"""crash_forensics: record a crash, save it, reopen it, triage it.

Each session records a live run of a seeded crashing program (one of
``gen.CRASH_FAMILIES`` on one of two fixed ISAs) up to its fault, saves the
recording (a write) and dumps a core.  Fresh debuggers then reopen the
recording and the core (reads): a backtrace, a reverse-continue to the
last breakpoint hit and a digest-checked forward replay.  A
``TriageEngine`` batch then triages the session's recording and core;
the groups are checked over the whole run.  Saves sit beside reopens so
that a save made faster by making reopen slower shows.
"""

from __future__ import annotations

import io
import os
import time

import common
import gen

INTERVAL = 5000
#: fixed, so that seeds change values, not the amount of work
ISAS = ("rmips", "rsparc")
SPIN = 8
WORK = 400
CONTINUES = 4
TAILS = {"first_stop": 80.0, "continue": 90.0, "inspect": 90.0}


class CrashForensics(common.Workload):
    def setup(self) -> None:
        from repro.cc import driver
        self.programs_ = []
        for family in sorted(gen.CRASH_FAMILIES):
            for isa in ISAS:
                program = gen.crash_program(family, self.run.seed, SPIN, WORK)
                exe = driver.compile_and_link(
                    {"crash.c": program["source"]}, isa, debug=True)
                self.programs_.append((isa, program, exe))
        isa, program, exe = self.programs_[0]
        self.image = os.path.join(self.run.tmp, "crash.img")
        common.save_image(exe, self.image)

    def programs(self):
        return [(isa, exe) for isa, _, exe in self.programs_]

    def measure(self, deadline: float) -> None:
        run = self.run
        run.tails.update(TAILS)
        while run.time_left(deadline):
            self.between()
            # in turn, so that every run has the same mix of programs
            isa, program, exe = self.programs_[self.saved
                                               % len(self.programs_)]
            stem = os.path.join(run.tmp, "crash%04d" % self.saved)
            self.saved += 1
            try:
                self.session(isa, program, exe, stem)
            except Exception as err:  # a failed session is data
                run.fail_with("session", err)
                continue
            label = "%s:%s" % (program["family"], isa)
            common.triage_batch(run, {stem + ".ldbrec": label,
                                      stem + ".core": label})

    def record_overhead(self) -> float:
        """Median recorded over median unrecorded run to the fault."""
        from repro.ldb import Ldb
        _isa, _program, exe = self.programs_[0]
        times = {False: [], True: []}
        for _ in range(3):
            for recorded in (False, True):
                ldb = Ldb(stdout=io.StringIO())
                target = ldb.load_program(exe)
                if recorded:
                    ldb.start_recording(interval=INTERVAL)
                started = time.perf_counter()
                ldb.run_to_stop()
                times[recorded].append(time.perf_counter() - started)
                target.kill()
        return common.percentile(times[True], 50) / common.percentile(
            times[False], 50)

    def cold_starts(self, count: int) -> None:
        first = self.programs_[0][1]["stops"][0]
        for _ in range(count):
            common.cold_start(self.run, self.image, "tick", first)

    def session(self, isa, program, exe, stem) -> None:
        from repro.ldb import Ldb
        from repro.machines import SIGTRAP
        run = self.run
        stops = program["stops"]
        started = run.clock()
        with run.op("first_stop", isa):
            ldb = Ldb(stdout=io.StringIO())
            target = ldb.load_program(exe)
            ldb.start_recording(path=stem + ".ldbrec", interval=INTERVAL)
            ldb.break_at_function("tick")
            ldb.run_to_stop()
        for index, stop in enumerate(stops[:CONTINUES + 1]):
            if index:
                before = target.current_icount()
                with run.op("continue", isa):
                    ldb.run_to_stop()
                run.ran(isa, target.current_icount() - before,
                        run.last_ms("continue") / 1e3)
            run.expect_stop(ldb, target, stop, "crash_forensics")
            expr, value = common.expr_for(stop)
            common.inspect_bundle(run, ldb, target, stop, expr, value, isa,
                                  "crash_forensics")
        ldb.clear_breakpoints(target)
        ldb.break_at_function(program["site"])
        with run.op("run_to_site", isa):
            ldb.run_to_stop()
        run.expect(ldb.where_am_i(target)[0], program["site"], "crash site")
        hit = target.current_icount()
        with run.op("run_to_fault", isa):
            ldb.run_to_stop()
        run.expect(target.state == "stopped" and target.signo != SIGTRAP,
                   True, "crash fault")
        fault_icount = target.current_icount()
        live = ldb.backtrace_text(target)
        with run.op("save", isa):
            ldb.record_save()
        with run.op("dump_core", isa):
            target.dump_core(stem + ".core")
        with run.op("kill", isa):
            target.kill()
        run.session_done(started, isa)
        run.harvest_ldb(ldb, target)
        self.reopen(isa, stem, live, hit, fault_icount)

    def reopen(self, isa, stem, live, hit, fault_icount) -> None:
        from repro.ldb import Ldb
        run = self.run
        with run.op("reopen", isa):
            ldb = Ldb(stdout=io.StringIO())
            target = ldb.open_recording(stem + ".ldbrec")
            text = ldb.backtrace_text()
        run.expect(text, live, "recording backtrace")
        with run.op("reverse", isa):
            landed = ldb.reverse_continue()
        run.expect(landed.icount, hit, "reverse-continue landing")
        with run.op("replay_forward", isa):
            ldb.run_to_stop()
        run.expect((target.current_icount(), ldb.backtrace_text()),
                   (fault_icount, live), "forward replay")
        counts = ldb.obs.metrics.snapshot()
        run.expect(counts.get("trace.replay.checks", 0) > 0
                   and counts.get("trace.replay.divergences", 0) == 0,
                   True, "replay digest checks")
        run.harvest_ldb(ldb)
        with run.op("reopen_core", isa):
            again = Ldb(stdout=io.StringIO())
            again.open_core(stem + ".core")
            text = again.backtrace_text()
        run.expect(text, live, "core backtrace")
        run.harvest_ldb(again)
