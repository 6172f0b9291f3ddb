"""The repository benchmark: four debugger workloads, one command.

Usage::

    python3 perfbench/run.py --workload cold_attach --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--workload all`` runs the four workloads one after another.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time and traced for the other half, and
prints the per-layer metrics (see ``perfbench/layers.py``).  Every run
checks the debugger's answers against the generator's and prints, as
its last line, one JSON object: ``correct``, ``attempted``, ``failed``
(operations with a failed check) and ``metrics``.  Before it come the
provenance record (machine, commit, seed, run length, sample counts,
medians and tails, host speed) and one line per metric with its unit
and sample count.  A failed check makes the exit status 1.  ``--out
FILE`` also appends the provenance and the result, as one JSON record,
to FILE for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

WORKLOADS = ("cold_attach", "hot_loop", "served_sessions", "crash_forensics")


def _load(name: str):
    if name == "cold_attach":
        from cold_attach import ColdAttach as cls
    elif name == "hot_loop":
        from hot_loop import HotLoop as cls
    elif name == "served_sessions":
        from served_sessions import ServedSessions as cls
    else:
        from crash_forensics import CrashForensics as cls
    return cls


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


#: the operations whose tails are reported (in the provenance line)
TAILED = ("first_stop", "continue", "inspect")


def end_to_end(run: common.Run) -> dict:
    """The end-to-end metrics, by name -> (value, unit).  Timings are
    the lower quartile of their samples (``common.TYPICAL``), rates the
    upper quartile."""
    import statistics
    values = {
        "setup_s": (statistics.median(run.setup_seconds), "s"),
        "ok_rate": (1.0 - run.failed / max(run.attempted, 1), "ratio"),
        "peak_rss_mb": (run.peak_rss_mb or run.own_peak_rss_mb(), "MB"),
        "cold_start_ms": (run.cold_start_ms(), "ms"),
        "first_stop_ms": (run.timing("first_stop"), "ms"),
        "continue_ms": (run.timing("continue"), "ms"),
        "inspect_ms": (run.timing("inspect"), "ms"),
        "target_mips": (run.target_mips(), "1e6/s"),
        "session_ms": (run.timing("session"), "ms"),
        "requests_per_s": (run.requests_per_s(), "1/s"),
        "save_ms": (run.timing("save"), "ms"),
        "reopen_ms": (run.timing("reopen"), "ms"),
        "triage_per_s": (run.triage_per_s(), "1/s"),
    }
    for name, (value, _unit) in values.items():
        if value is None:
            run.fail("metric %s has no samples" % name)
    return {name: {"value": value if value is not None else 0.0,
                   "unit": unit}
            for name, (value, unit) in values.items()}


#: end-to-end metric -> the samples it is made of
SAMPLED = {
    "setup_s": "setup", "cold_start_ms": "cold_start",
    "first_stop_ms": "first_stop", "continue_ms": "continue",
    "target_mips": "continue", "inspect_ms": "inspect",
    "session_ms": "session", "requests_per_s": "requests",
    "save_ms": "save", "reopen_ms": "reopen", "triage_per_s": "triage",
}


def tails(run: common.Run) -> dict:
    """Median and tail of each tailed operation.  The tails are printed,
    not compared: they measure the host's slow episodes more than the
    program (see "dropped" in ``perfbench/predictions.json``)."""
    out = {}
    for kind in TAILED:
        if run.samples.get(kind):
            out[kind] = dict(run.tail_info(kind),
                             median_ms=run.timing(kind, "median"),
                             tail_ms=run.timing(kind, "tail"))
    return out


def provenance(run: common.Run, args) -> dict:
    kinds = ("first_stop", "continue", "inspect", "session", "save",
             "reopen")
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "reps": 1, "setup_reps": len(
            run.setup_seconds),
        "samples": dict({kind: run.tail_info(kind) for kind in kinds},
                        cold_start={"n": len(run.cold_starts)},
                        triage={"n": len(run.triage_rates)},
                        requests={"n": len(run.done)},
                        setup={"n": len(run.setup_seconds)}),
        "typical_percentile": common.TYPICAL,
        "tails": tails(run),
        "checks_failed": run.checks_failed,
        "failures": run.failures,
    }


def measure(workload, run: common.Run, seconds: float) -> None:
    """The measured window; an untraced run's cold starts are spread
    through it (``Workload.between``)."""
    deadline = time.perf_counter() + seconds
    workload.plan_cold_starts(0 if run.trace else common.COLD_STARTS,
                              deadline)
    workload.measure(deadline)
    run.check_triage()
    workload.cold_starts(len(workload.cold_due))  # any not yet run
    workload.cold_due = []


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own; the exit
    status is the worst of theirs."""
    status = 0
    for name in WORKLOADS:
        print("== %s" % name, flush=True)
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            command += ["--out", args.out]
        status = max(status, subprocess.run(command).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result record here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print("perfbench: no debugger sources under %s" % common.SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    # a terminated run still stops its server and removes its files
    signal.signal(signal.SIGTERM, lambda signo, frame: sys.exit(128 + signo))
    tmp = os.path.join(common.ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run still uses it


def _run(args, tmp: str) -> int:
    import hostprobe
    import selftest
    import tracing
    host = [hostprobe.host_ms(0.5)]
    spans = tracing.Spans() if args.trace else None
    run = common.Run(args.workload, args.seed, args.seconds, bool(
        args.trace), tmp)
    workload = _load(args.workload)(run)
    try:
        for _ in range(common.SETUP_REPS):
            workload.close()  # the previous repetition's server, if any
            if spans is not None:
                spans.install()
            started = time.perf_counter()
            imports = common.time_imports()
            workload.setup()
            run.setup_seconds.append(imports + time.perf_counter() - started)
            if spans is not None:
                spans.uninstall()
        selftest.planted_errors_caught(run)
        if not args.trace:
            measure(workload, run, args.seconds)
            metrics = end_to_end(run)
        else:
            import layers
            measure(workload, run, args.seconds / 2.0)
            traced = common.Run(args.workload, args.seed, args.seconds,
                                True, tmp, spans)
            traced.tails = run.tails
            workload.run = traced
            workload.trace_on(spans)
            spans.install()
            try:
                measure(workload, traced, args.seconds / 2.0)
            finally:
                spans.uninstall()
            workload.trace_off()
            metrics = layers.per_layer(workload, run, traced, spans)
            run.attempted += traced.attempted
            run.failed_ops |= traced.failed_ops
            run.checks_failed += traced.checks_failed
            run.failures += traced.failures
    finally:
        workload.close()
    host.append(hostprobe.host_ms(0.5))
    record = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    info = provenance(run, args)
    info["host_ms"] = host
    print(json.dumps({"provenance": info}))
    for name, entry in metrics.items():
        kind = SAMPLED.get(name)
        count = "" if kind is None else "n=%d" % info["samples"][kind]["n"]
        print("  %-36s %14.4f %-6s %s" % (name, entry["value"],
                                         entry["unit"], count))
    for kind, row in info["tails"].items():
        print("  %-36s %14.4f %-6s n=%d, p%g, %d beyond (not compared)"
              % (kind + "_tail_ms", row["tail_ms"], "ms", row["n"],
                 row["percentile"], row["beyond_tail"]))
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(dict(record, provenance=info)) + "\n")
    print(json.dumps(record))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
