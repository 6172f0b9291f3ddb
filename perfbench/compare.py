"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds result records, one JSON object a line, as
``perfbench/run.py --out FILE`` appends them (several runs, seeds and
workloads per file).  For every workload and metric it prints both
medians, both quartile ranges (as a share of the median) and a verdict
under the bounds in ``BENCHMARK.json``:

* ``worse``: AFTER's median is worse than BEFORE's by more than the bound;
* ``better``: AFTER's median is better by more than BEFORE's spread,
  and AFTER wins at least nine tenths of all (BEFORE, AFTER) run pairs
  (ties count for neither);
* ``same``: neither;
* ``unresolved``: a spread is wider than the bound, so the runs cannot
  tell -- unless every AFTER run beats (or loses to) every BEFORE run.

Per-layer metrics have no bound; they get medians and spreads only, as
does ``host_ms``, the host's own speed around each run (see
``perfbench/hostprobe.py``): when it moved between the two sets, so did
every timing.  Exits 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path: str) -> dict:
    """workload -> metric -> [values]"""
    out: dict = defaultdict(lambda: defaultdict(list))
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            workload = record["provenance"]["workload"]
            for name, entry in record["metrics"].items():
                out[workload][name].append(entry["value"])
            host = record["provenance"].get("host_ms")
            if host:
                out[workload]["host_ms"].append(statistics.median(host))
    return out


def spread(values) -> float:
    """Distance between the quartiles, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(before, after, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(before), statistics.median(after)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spread_a, spread_b = spread(before), spread(after)
    if spread_a > bound or spread_b > bound:
        if all(sign * (b - a) < 0 for a in before for b in after):
            return "better"
        if all(sign * (b - a) > 0 for a in before for b in after):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(sign * (b - a) < 0 for a in before for b in after)
    if -worse_by > spread_a and wins >= 0.9 * len(before) * len(after):
        return "better"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in bench["end_to_end"]}
    before, after = load(argv[0]), load(argv[1])
    worse = 0
    print("%-16s %-34s %12s %12s %7s %7s  %s" % (
        "workload", "metric", "median A", "median B", "iqr A", "iqr B",
        "verdict"))
    for workload in sorted(set(before) | set(after)):
        names = sorted(set(before[workload]) | set(after[workload]))
        for name in names:
            a, b = before[workload].get(name), after[workload].get(name)
            if not a or not b:
                print("%-16s %-34s %s" % (workload, name,
                                           "missing on one side"))
                continue
            if name in bounds:
                result = verdict(a, b, *bounds[name])
            else:
                result = "-"
            worse += result == "worse"
            print("%-16s %-34s %12.4f %12.4f %6.1f%% %6.1f%%  %s" % (
                workload, name, statistics.median(a), statistics.median(b),
                100 * spread(a), 100 * spread(b), result))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
