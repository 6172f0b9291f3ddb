"""hot_loop: long stretches of simulation between stops, on every ISA.

One session per ISA runs ``gen.hot_program``, a seeded compute loop
that reaches a breakpoint about every 100k instructions; the sessions
take turns, one continue and one inspection each.  Nearly all the time
goes to the execution engine in ``repro.machines``, almost none to
PostScript or the wire.

So that this workload reports ``save_ms``, ``reopen_ms`` and
``triage_per_s`` too, in untraced runs each session dumps a core at
every stop, and reopens and triages the last one (about 3% of the run).
"""

from __future__ import annotations

import io
import os

import common
import gen

INNER = 4000
ROUNDS = 10
TAILS = {"first_stop": 70.0, "continue": 90.0, "inspect": 90.0}


class HotLoop(common.Workload):
    def setup(self) -> None:
        from repro.cc import driver
        self.program = gen.hot_program(self.run.seed, INNER, ROUNDS)
        self.exes = {isa: driver.compile_and_link(
            {"hot.c": self.program["source"]}, isa, debug=True)
            for isa in gen.ISAS}
        self.image = os.path.join(self.run.tmp, "hot.img")
        common.save_image(self.exes["rmips"], self.image)

    def programs(self):
        return sorted(self.exes.items())

    def measure(self, deadline: float) -> None:
        run = self.run
        run.tails.update(TAILS)
        live = {}
        while run.time_left(deadline):
            self.between()
            for isa in gen.ISAS:
                try:
                    done = self.step(live, isa)
                except Exception as err:  # a failed session is data
                    run.fail_with("session", err)
                    live.pop(isa, None)
                    continue
                if done is not None:
                    with run.side():
                        common.triage_batch(run, {done: isa})
        for session in live.values():
            session["target"].kill()

    def cold_starts(self, count: int) -> None:
        first = self.program["stops"][0]
        for _ in range(count):
            common.cold_start(self.run, self.image, "mark", first)

    def step(self, live: dict, isa: str):
        """One turn of ``isa``'s session; answers a saved core path
        when the session ended in this turn."""
        from repro.ldb import Ldb
        run = self.run
        stops = self.program["stops"]
        session = live.get(isa)
        if session is None:
            started = run.clock()
            with run.op("first_stop", isa):
                ldb = Ldb(stdout=io.StringIO())
                target = ldb.load_program(self.exes[isa])
                ldb.break_at_function("mark")
                ldb.run_to_stop()
            session = live[isa] = {"ldb": ldb, "target": target, "next": 1,
                                   "started": started}
            self.at_stop(session, stops[0], isa)
            return None
        ldb, target = session["ldb"], session["target"]
        if session["next"] < len(stops):
            before = target.current_icount()
            with run.op("continue", isa):
                ldb.run_to_stop()
            run.ran(isa, target.current_icount() - before,
                    run.last_ms("continue") / 1e3)
            self.at_stop(session, stops[session["next"]], isa)
            session["next"] += 1
            return None
        del live[isa]
        core = session.get("core")
        if core is not None:
            live_bt = ldb.backtrace_text(target)
        ldb.clear_breakpoints(target)
        with run.op("finish", isa):
            ldb.run_to_stop()
        run.expect(target.exit_status, self.program["status"], "exit status")
        run.session_done(session["started"], isa)
        run.harvest_ldb(ldb, target)
        if core is None:
            return None
        with run.op("reopen", isa, requests=0):
            again = Ldb(stdout=io.StringIO())
            again.open_core(core)
            text = again.backtrace_text()
        run.expect(text, live_bt, "core backtrace")
        run.harvest_ldb(again)
        return core

    def at_stop(self, session: dict, stop, isa: str) -> None:
        ldb, target = session["ldb"], session["target"]
        self.run.expect_stop(ldb, target, stop, "hot_loop")
        expr, value = common.expr_for(stop)
        common.inspect_bundle(self.run, ldb, target, stop, expr, value, isa,
                              "hot_loop")
        if self.run.side_ops:
            self.save(session, isa)

    def save(self, session: dict, isa: str) -> None:
        """A core at this stop; it replaces the session's previous one."""
        run = self.run
        core = os.path.join(run.tmp, "hot-%s-%d.core" % (isa, self.saved))
        self.saved += 1
        with run.op("save", isa, requests=0):
            session["target"].dump_core(core)
        if "core" in session:
            os.remove(session["core"])
        session["core"] = core
