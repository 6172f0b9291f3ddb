"""How steady is this host?  Times a fixed pure-Python loop for a while
and prints, per second, the median time of one loop, then the fastest
and slowest second and the share of seconds within 10% of the fastest.

Usage: python3 perfbench/hostprobe.py [--seconds 60]

On a host whose speed alternates (a busy neighbour on the same core,
frequency changes), the per-second times fall into two modes.  That is
why the benchmark reports the lower quartile of each timing, not its
median: see ``TYPICAL`` in ``perfbench/common.py``.  Every benchmark run
also records ``host_ms`` (half a second of this loop before set-up and
half after the measured window) in its provenance record, so that two
sets of results show whether the host's speed moved between them.
"""

from __future__ import annotations

import argparse
import statistics
import time


def loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def host_ms(seconds: float = 1.0) -> float:
    """Median milliseconds of one ``loop`` over ``seconds``."""
    times, began = [], time.perf_counter()
    while time.perf_counter() - began < seconds:
        start = time.perf_counter()
        loop()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args()
    seconds, current, began = [], [], time.perf_counter()
    second = began
    while time.perf_counter() - began < args.seconds:
        start = time.perf_counter()
        loop()
        end = time.perf_counter()
        current.append((end - start) * 1e3)
        if end - second >= 1.0:
            seconds.append(statistics.median(current))
            current, second = [], end
    print(" ".join("%.1f" % ms for ms in seconds))
    fast, slow = min(seconds), max(seconds)
    near = sum(ms <= fast * 1.1 for ms in seconds) / len(seconds)
    print("fastest %.1f ms, slowest %.1f ms (x%.2f), %.0f%% of seconds "
          "within 10%% of the fastest" % (fast, slow, slow / fast,
                                            100 * near))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
