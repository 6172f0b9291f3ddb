"""cold_attach: many fresh debuggers on one large program.

Each session loads ``gen.large_program(120, seed)`` into a new ``Ldb``,
breaks at a few functions ``main`` calls early, continues between those
nearby stops with an inspection at each, and kills the target.  Nearly
all the time goes to PostScript -- interpreter start and reading the
loader table -- and almost none to the simulator.

So that this workload reports ``save_ms``, ``reopen_ms`` and
``triage_per_s`` too, every session of an untraced run also dumps a
core before the kill, and every ``SIDE_EVERY``-th reopens its core and
triages it.
"""

from __future__ import annotations

import io
import os

import common
import gen

FUNCTIONS = 120
ISA = "rmips"
#: breakpoints per session; the first stop, then one continue to each
STOPS = 4
#: breakpoints go on odd-numbered functions, which only main calls, so
#: every continue runs the same amount of code whatever the seed; the
#: first is one of the first few, so little simulation precedes it
FIRST = (1, 3, 5, 7)
SIDE_EVERY = 3
TAILS = {"first_stop": 70.0, "continue": 90.0, "inspect": 90.0}


class ColdAttach(common.Workload):
    def setup(self) -> None:
        from repro.cc import driver
        self.program = gen.large_program(FUNCTIONS, self.run.seed)
        self.exe = driver.compile_and_link(
            {"big.c": self.program["source"]}, ISA, debug=True)
        self.image = os.path.join(self.run.tmp, "big.img")
        common.save_image(self.exe, self.image)

    def programs(self):
        return [(ISA, self.exe)]

    def measure(self, deadline: float) -> None:
        self.run.tails.update(TAILS)
        count = 0
        while self.run.time_left(deadline):
            self.between()
            count += 1
            core = None
            if self.run.side_ops:
                core = os.path.join(self.run.tmp, "cold%04d.core" % count)
            reopen = core is not None and count % SIDE_EVERY == 0
            try:
                stop = self.session(FIRST[count % len(FIRST)], core, reopen)
            except Exception as err:  # a failed session is data
                self.run.fail_with("session", err)
                continue
            if reopen:
                with self.run.side():
                    common.triage_batch(self.run, {core: "/".join(stop[3])})
            elif core is not None:
                os.remove(core)

    def cold_starts(self, count: int) -> None:
        for index in range(count):
            name = "work%03d" % FIRST[index % len(FIRST)]
            stop = gen.cold_stops(self.program, [name])[0]
            common.cold_start(self.run, self.image, name, stop)

    def session(self, first: int, core, reopen: bool):
        """One session from function ``first``; with a ``core`` path it
        also saves a core, and reopens it if ``reopen``."""
        from repro.ldb import Ldb
        run = self.run
        names = ["work%03d" % (first + 2 * k) for k in range(STOPS)]
        stops = gen.cold_stops(self.program, names)
        started = run.clock()
        with run.op("first_stop", ISA):
            ldb = Ldb(stdout=io.StringIO())
            target = ldb.load_program(self.exe)
            for name in names:
                ldb.break_at_function(name)
            ldb.run_to_stop()
        for index, stop in enumerate(stops):
            if index:
                before = target.current_icount()
                with run.op("continue", ISA):
                    ldb.run_to_stop()
                run.ran(ISA, target.current_icount() - before,
                        run.last_ms("continue") / 1e3)
            run.expect_stop(ldb, target, stop, "cold_attach")
            expr, value = common.expr_for(stop)
            common.inspect_bundle(run, ldb, target, stop, expr, value, ISA,
                                  "cold_attach")
        if reopen:
            live = ldb.backtrace_text(target)
        if core is not None:
            with run.op("save", ISA, requests=0):
                target.dump_core(core)
        with run.op("kill", ISA):
            target.kill()
        run.session_done(started, ISA)
        run.harvest_ldb(ldb, target)
        if reopen:
            with run.op("reopen", ISA, requests=0):
                again = Ldb(stdout=io.StringIO())
                again.open_core(core)
                text = again.backtrace_text()
            run.expect(text, live, "core backtrace")
            run.harvest_ldb(again)
        return stops[-1]
