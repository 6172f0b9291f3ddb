"""The output checks must catch a wrong answer.

Before measuring, every run plants wrong expected values -- a printed
value, an exit status, a stop line, a crash family -- into the same
check helpers the workloads use, and confirms that each one is caught
while the right values pass.  A check that passes everything would fail
this test, so ``ok_rate`` cannot be 1.0 vacuously.
"""

from __future__ import annotations

import io
import os

import common
import gen


def planted_errors_caught(run: common.Run) -> None:
    from repro.cc.driver import compile_and_link
    from repro.ldb import Ldb
    program = gen.hot_program(run.seed, 50, 2)
    exe = compile_and_link({"selftest.c": program["source"]}, "rmips",
                           debug=True)
    probe = common.Run("selftest", run.seed, 0, False, run.tmp)
    cores = []
    for index in range(2):
        ldb = Ldb(stdout=io.StringIO())
        target = ldb.load_program(exe)
        ldb.break_at_function("mark")
        ldb.run_to_stop()
        stop = program["stops"][0]
        expr, value = common.expr_for(stop)
        wrong = (stop[0], stop[1] + 1, dict(stop[2]), stop[3])
        wrong[2]["value"] = str(int(stop[2]["value"]) + 1)
        cases = [
            ("right stop", lambda: probe.expect_stop(ldb, target, stop, "t"),
             0),
            ("wrong line", lambda: probe.expect_stop(ldb, target, wrong, "t"),
             1),
            ("right values", lambda: common.inspect_bundle(
                probe, ldb, target, stop, expr, value, None, "t"), 0),
            ("wrong value", lambda: common.inspect_bundle(
                probe, ldb, target, wrong, expr, value, None, "t"), 1),
            ("wrong expression", lambda: common.inspect_bundle(
                probe, ldb, target, stop, expr, value + 1, None, "t"), 1),
        ]
        for what, check, planted in cases:
            before = probe.checks_failed
            check()
            if probe.checks_failed - before != planted:
                run.fail("self-test: %s gave %d failures, planted %d"
                         % (what, probe.checks_failed - before, planted))
        core = os.path.join(run.tmp, "selftest%d.core" % index)
        target.dump_core(core)
        cores.append(core)
        ldb.clear_breakpoints()
        ldb.run_to_stop()
        before = probe.checks_failed
        probe.expect(target.exit_status, program["status"] ^ 1, "t")
        if probe.checks_failed - before != 1:
            run.fail("self-test: a wrong exit status was not caught")
    right = {cores[0]: "a", cores[1]: "a"}
    split = {cores[0]: "a", cores[1]: "b"}
    common.triage_batch(probe, right)
    for families, planted in ((right, 0), (split, 1)):
        before = probe.checks_failed
        common.check_groups(probe, probe.hashes, families)
        if (probe.checks_failed - before > 0) != bool(planted):
            run.fail("self-test: triage families %r not judged right"
                     % sorted(families.values()))
