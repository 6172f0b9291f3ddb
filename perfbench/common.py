"""What every workload shares: the run context, timers, output checks
and the statistics the end-to-end metrics are made of."""

from __future__ import annotations

import math
import os
import pickle
import resource
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh processes started per run for ``cold_start_ms``
COLD_STARTS = 11

#: set-up is repeated this many times and its median reported
SETUP_REPS = 3

#: the percentile a timing metric reports.  The 2-vCPU host this was
#: tuned on alternates between a fast and a ~1.4x slower speed in
#: episodes of seconds to minutes (see ``perfbench/hostprobe.py``), so a
#: run's median measured how many of its seconds were slow; its lower
#: quartile measures the program at the fast speed whenever a quarter of
#: the run has it.  Rates (higher is better) report the upper quartile.
TYPICAL = 25.0

#: shortest window requests are counted over, for ``requests_per_s``
BIN_SECONDS = 2.0

#: triage workers: one, because thread workers share one interpreter
#: lock and only add scheduling noise to the rate
TRIAGE_WORKERS = 1


def peak_rss_mb(pid: int) -> float:
    """A process's peak resident memory (VmHWM), in MB."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM for process %d" % pid)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def percentile(values: List[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Run:
    """One benchmark run: its inputs, its samples and its checks."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, tmp: str, spans=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tmp = tmp
        self.spans = spans
        #: operation kind -> [(milliseconds, isa)]
        self.samples: Dict[str, List[tuple]] = defaultdict(list)
        #: isa -> simulated instructions per host second, one sample per
        #: continue (per session through the gateway)
        self.rates: Dict[Optional[str], List[float]] = defaultdict(list)
        self.triage_rates: List[float] = []
        #: artifact path -> its crash family (the generator's) and the
        #: stack hash triage gave it
        self.families: Dict[str, str] = {}
        self.hashes: Dict[str, str] = {}
        self.cold_starts: List[float] = []
        self.setup_seconds: List[float] = []
        self.attempted = 0
        #: operations with at least one failed check (an operation's
        #: checks follow it, so a failure belongs to the latest one)
        self.failed_ops: set = set()
        #: every failed check, however many one operation has
        self.checks_failed = 0
        self.failures: List[str] = []
        #: (request-clock time, requests) of every answered request batch
        self.done: List[tuple] = []
        #: seconds of side work so far, which the request clock skips
        self.paused = 0.0
        #: counters harvested from each debugger's metrics registry
        self.counters: Dict[str, float] = defaultdict(float)
        self.peak_rss_mb: Optional[float] = None
        #: the percentile each operation's ``_tail_ms`` names, fixed per
        #: workload: p90, or where a run takes too few samples for ten
        #: to lie beyond p90, the highest percentile that has ten beyond
        #: (fixed, so a faster program that takes more samples is not
        #: judged at another percentile; p90 rather than higher because
        #: the run-to-run spread of higher ones exceeds the bounds)
        self.tails: Dict[str, float] = {}
        self.extra: Dict[str, float] = {}

    def merge(self, other: "Run") -> None:
        """Fold a client thread's samples and checks into this run."""
        for kind, rows in other.samples.items():
            self.samples[kind] += rows
        for isa, rates in other.rates.items():
            self.rates[isa] += rates
        self.triage_rates += other.triage_rates
        self.families.update(other.families)
        self.hashes.update(other.hashes)
        self.attempted += other.attempted
        self.failed_ops |= other.failed_ops
        self.checks_failed += other.checks_failed
        self.failures += other.failures
        self.done += other.done
        for name, value in other.counters.items():
            self.counters[name] += value
        for name, value in other.extra.items():
            self.extra[name] = self.extra.get(name, 0) + value

    # -- timing --------------------------------------------------------------

    @contextmanager
    def op(self, kind: str, isa: Optional[str] = None, requests: int = 1,
           tag: Optional[str] = None):
        """Time one operation; a raise inside counts it as failed.  It
        answers ``requests`` requests toward ``requests_per_s``; one that
        answers none is side work, off the request clock.  The block may
        name the session it served by setting ``tag`` on the dict it is
        given (how the traced run finds the server's work)."""
        self.attempted += 1
        context = {"tag": tag}
        traced = self.spans is not None
        with self.spans.request(kind, tag) if traced else nullcontext() \
                as rid:
            start = time.perf_counter()
            try:
                yield context
            except Exception as err:
                self.fail_with(kind, err)
                raise
            elapsed = time.perf_counter() - start
        if not requests:
            self.paused += elapsed
        if traced:
            self.spans.requests[rid] = (kind, context["tag"])
        self.samples[kind].append((elapsed * 1e3, isa))
        self.answered(requests)

    def answered(self, requests: int) -> None:
        self.done.append((self.clock(), requests))

    def clock(self) -> float:
        """The request clock: seconds, not counting side work."""
        return time.perf_counter() - self.paused

    def session_done(self, started: float, isa: Optional[str]) -> None:
        """A session that began at request-clock time ``started`` ended;
        side work in between is not part of it."""
        self.samples["session"].append(((self.clock() - started) * 1e3, isa))

    @contextmanager
    def side(self):
        """Side work: what a workload does only so that it reports every
        end-to-end metric.  The request clock stops meanwhile, so that
        ``requests_per_s`` is the rate of the workload's own requests."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - start

    @property
    def side_ops(self) -> bool:
        """Whether to run the operations a workload carries only so that
        it reports every end-to-end metric (saves, reopens, triage and
        cold starts outside cold_attach).  They run at a low rate
        through ``--trace 0`` runs and never in ``--trace 1`` runs, so
        the per-layer metrics see only the workload's own work."""
        return not self.trace

    def last_ms(self, kind: str) -> float:
        return self.samples[kind][-1][0]

    def ran(self, isa: Optional[str], instructions: int,
            seconds: float) -> None:
        self.rates[isa].append(instructions / seconds / 1e6)

    # -- checks -----------------------------------------------------------------

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, message: str) -> None:
        self.failed_ops.add((id(self), self.attempted))
        self.checks_failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def fail_with(self, what: str, err: Exception) -> None:
        """Count an exception once, however many levels see it."""
        if not getattr(err, "counted", False):
            self.fail("%s: %s: %s" % (what, type(err).__name__, err))
            err.counted = True

    def expect(self, actual, expected, what: str) -> bool:
        """One output check; a mismatch fails the operation it follows."""
        if actual == expected:
            return True
        self.fail("%s: got %r, expected %r" % (what, actual, expected))
        return False

    def expect_stop(self, ldb, target, stop, what: str) -> bool:
        """The stop lands at the generator's proc and line."""
        proc, line = stop[0], stop[1]
        where = ldb.where_am_i(target)
        return self.expect((where[0], where[2]), (proc, line), what + " stop")

    def triaged(self, families: Dict[str, str], hashes: Dict[str, str],
                errors: int, seconds: float) -> None:
        """One triage batch over ``families``' artifacts."""
        self.families.update(families)
        self.hashes.update(hashes)
        if self.expect(errors, 0, "triage errors"):
            self.triage_rates.append(len(families) / seconds)

    def check_triage(self) -> None:
        """Completeness and purity 1.0 over every artifact triaged."""
        if self.families:
            self.attempted += 1
            check_groups(self, self.hashes, self.families)

    # -- counters ----------------------------------------------------------------

    def harvest(self, metrics_snapshot: Dict[str, float]) -> None:
        for name, value in metrics_snapshot.items():
            if not name.endswith((".min", ".max")):
                self.counters[name] += value

    def harvest_ldb(self, ldb, target=None) -> None:
        """Fold one debugger's registry (and its simulator's block-cache
        counters, when the target ran in this process) into the run."""
        self.harvest(ldb.obs.metrics.snapshot())
        process = getattr(target, "process", None)
        if process is not None:
            for name, value in process.cpu.engine.stats.as_dict().items():
                self.counters["machines." + name] += value

    def time_left(self, deadline: float) -> bool:
        return time.perf_counter() < deadline

    # -- the metrics ---------------------------------------------------------------

    def timing(self, kind: str, stat: str = "typical") -> Optional[float]:
        """The ``TYPICAL`` percentile (or the median, or the tail) of
        ``kind``.  On runs that mix ISAs it is taken per ISA and the
        geometric mean reported, so it never lands between two ISA
        modes; the tail is the geometric mean of the per-ISA medians
        times the percentile of every sample over its own ISA's median,
        which keeps the modes apart and still has enough samples."""
        rows = self.samples.get(kind)
        if not rows:
            return None
        groups: Dict[Optional[str], List[float]] = defaultdict(list)
        for value, isa in rows:
            groups[isa].append(value)
        if stat == "typical":
            return geomean([percentile(v, TYPICAL) for v in groups.values()])
        medians = {isa: percentile(v, 50.0) for isa, v in groups.items()}
        middle = geomean(list(medians.values()))
        if stat == "median":
            return middle
        relative = [value / medians[isa] for value, isa in rows]
        return middle * percentile(relative, self.tails.get(kind, 50.0))

    def tail_info(self, kind: str) -> dict:
        """Sample count, the tail's percentile, and how many samples lie
        beyond it."""
        rows = self.samples.get(kind, [])
        level = self.tails.get(kind, 50.0)
        return {"n": len(rows), "isas": len({isa for _, isa in rows}),
                "percentile": level,
                "beyond_tail": int(len(rows) * (1.0 - level / 100.0))}

    def target_mips(self, level: float = 100.0 - TYPICAL) -> Optional[float]:
        """Upper-quartile (or ``level``) rate per ISA, the rate-side twin
        of ``TYPICAL``; geometric mean over ISAs."""
        rates = [percentile(r, level) for r in self.rates.values()]
        return geomean(rates) if rates else None

    def requests_per_s(self) -> Optional[float]:
        """Requests answered per second over windows of at least
        ``BIN_SECONDS``, one starting at each answer and ending at the
        first answer that closes it; the upper quartile of the windows
        is reported.  Overlapping windows give many samples however
        unevenly a workload's requests are spread over its sessions."""
        done = sorted(self.done)
        rates, end, count = [], 0, 0
        for start, (t0, _requests) in enumerate(done):
            if start:
                count -= done[start][1]  # it opens this window
            while end + 1 < len(done) and done[end][0] - t0 < BIN_SECONDS:
                end += 1
                count += done[end][1]
            if done[end][0] - t0 < BIN_SECONDS:
                break
            rates.append(count / (done[end][0] - t0))
        return percentile(rates, 100.0 - TYPICAL) if rates else None

    def triage_per_s(self) -> Optional[float]:
        if not self.triage_rates:
            return None
        return percentile(self.triage_rates, 100.0 - TYPICAL)

    def cold_start_ms(self) -> Optional[float]:
        if not self.cold_starts:
            return None
        return percentile(self.cold_starts, TYPICAL)

    def own_peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """A workload: set up (repeatable), measure until a deadline, close."""

    def __init__(self, run: Run):
        self.run = run
        self.saved = 0
        #: when each cold start still to run falls due
        self.cold_due: List[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, deadline: float) -> None:
        raise NotImplementedError

    def programs(self):
        """(isa, executable) pairs, for the bare-engine measurement."""
        return []

    def cold_starts(self, count: int) -> None:
        """Fresh processes to a first stop."""

    def plan_cold_starts(self, count: int, deadline: float) -> None:
        """Spread ``count`` cold starts evenly over the window that ends
        at ``deadline``, so that they sample the host's speed across the
        run, not at one moment of it (see ``TYPICAL``)."""
        start = time.perf_counter()
        step = (deadline - start) / max(count, 1)
        self.cold_due = [start + step * (index + 0.5)
                         for index in range(count)]

    def between(self) -> None:
        """Called between units of the workload's own work: runs the
        cold starts now due, as side work."""
        now = time.perf_counter()
        due = sum(1 for moment in self.cold_due if moment <= now)
        if due:
            del self.cold_due[:due]
            with self.run.side():
                self.cold_starts(due)

    def record_overhead(self) -> float:
        """Recorded over unrecorded run time; 0 where nothing records."""
        return 0.0

    def trace_on(self, spans) -> None:
        """Tracing starts in this process; extend it to helpers."""

    def trace_off(self) -> None:
        """Tracing ended."""

    def close(self) -> None:
        """Stop whatever the workload started (it may be set up again)."""


# -- pieces several workloads use -----------------------------------------------------

def save_image(exe, path: str) -> None:
    """Write a runnable image the way ``rcc -o`` does: no front-end
    state, loader table included."""
    from repro.cc.driver import loader_table_ps
    compiled = exe.compiled_units
    exe.loader_ps = loader_table_ps(exe)
    exe.compiled_units = None
    try:
        with open(path, "wb") as handle:
            pickle.dump(exe, handle)
    finally:
        exe.compiled_units = compiled
        del exe.loader_ps


def time_imports() -> float:
    """Seconds a fresh interpreter takes to import the debugger."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import repro.ldb, repro.serve, repro.triage, "
                    "repro.timetravel, repro.trace"],
                   env=child_env(), check=True, timeout=120)
    return time.perf_counter() - start


def cold_start(run: Run, image: str, function: str, stop) -> None:
    """A fresh process runs a fresh Ldb to its first stop."""
    script = os.path.join(HERE, "coldstart.py")
    run.attempted += 1
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, script, image, function],
                             stdout=subprocess.PIPE, env=child_env(),
                             text=True)
    try:
        line = child.stdout.readline().split()
        elapsed = time.perf_counter() - start
    finally:
        child.stdout.close()
        child.wait(timeout=120)
    if run.expect(line[:1], ["STOP"], "cold start") and run.expect(
            (line[1], int(line[2])), (stop[0], stop[1]), "cold start stop"):
        run.cold_starts.append(elapsed * 1e3)


def inspect_bundle(run: Run, ldb, target, stop, expr: str, expr_value,
                   isa: Optional[str], what: str) -> None:
    """The fixed inspection at a stop: backtrace, print each variable
    the generator predicts, evaluate one expression."""
    names = list(stop[2])
    with run.op("inspect", isa):
        frames = [frame.proc_name() for frame in target.frames()]
        ldb.backtrace_text(target)
        printed = {name: ldb.print_variable(name, target=target).strip()
                   for name in names}
        value = ldb.evaluate(expr, target=target)
    run.expect(frames, stop[3], what + " backtrace")
    run.expect(printed, stop[2], what + " values")
    run.expect(value, expr_value, what + " expression")


def expr_for(stop) -> tuple:
    """``a * 2 + b`` over the stop's first two variables, and its value."""
    (x, vx), (y, vy) = list(stop[2].items())[:2]
    return "%s * 2 + %s" % (x, y), int(vx) * 2 + int(vy)


def triage_batch(run: Run, families: Dict[str, str],
                 workers: int = TRIAGE_WORKERS) -> None:
    """Triage ``families``' artifacts (path -> crash family) in one
    batch: one ``triage_per_s`` sample.  The groups are checked over
    every artifact of the run at its end (``Run.check_triage``), so
    that small batches still test purity."""
    from repro.triage import TriageEngine
    engine = TriageEngine(workers=workers, mode="thread")
    run.attempted += 1
    start = time.perf_counter()
    report = engine.triage_paths(list(families))
    elapsed = time.perf_counter() - start
    run.harvest(engine.obs.metrics.snapshot())
    run.triaged(families, {member.path: group.stack_hash
                           for group in report.groups
                           for member in group.members},
                len(report.errors), elapsed)


def check_groups(run: Run, grouped: Dict[str, str],
                 families: Dict[str, str]) -> bool:
    """Completeness and purity 1.0: each family is exactly one group."""
    by_family: Dict[str, set] = defaultdict(set)
    by_group: Dict[str, set] = defaultdict(set)
    for path, family in families.items():
        by_family[family].add(grouped.get(path))
        by_group[grouped.get(path)].add(family)
    ok = run.expect(sorted(f for f, g in by_family.items() if len(g) != 1),
                    [], "triage completeness")
    ok &= run.expect(sorted(str(g) for g, f in by_group.items()
                            if len(f) != 1), [], "triage purity")
    return ok
