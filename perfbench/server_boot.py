"""Runs the session server in its own process for ``served_sessions``.

Usage: python3 perfbench/server_boot.py --trace 0|1 --out STATS.json --scratch DIR

Prints ``READY <port>`` once the gateway listens, serves until a line
``quit`` (or end of input) arrives on stdin, then writes the server's
``serve.*`` counters, the counters of every session it closed
and, with ``--trace 1``, its spans to STATS.json, and exits.
"""

import argparse
import json
import os
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.serve import DebugServer  # noqa: E402
from repro.serve.session import SessionWorker  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scratch", required=True,
                        help="where the server writes session cores")
    args = parser.parse_args()
    spans = None
    if args.trace:
        import tracing
        spans = tracing.Spans().install()
    counters = defaultdict(float)
    close = SessionWorker.close

    def harvesting_close(worker, *a, **kw):
        # a session's own registry dies with it: fold it in first
        ldb = worker.ldb
        if ldb is not None:
            for name, value in ldb.obs.metrics.snapshot().items():
                if not name.endswith((".min", ".max")):
                    counters[name] += value
            process = getattr(worker.target, "process", None)
            if process is not None:
                for name, value in process.cpu.engine.stats.as_dict(
                        ).items():
                    counters["machines." + name] += value
        return close(worker, *a, **kw)
    SessionWorker.close = harvesting_close
    server = DebugServer(max_sessions=16, default_deadline=60.0,
                         hang_grace=10.0, idle_ttl=600.0, token_seed=0,
                         scratch_dir=args.scratch)
    print("READY %d" % server.port, flush=True)
    for line in sys.stdin:
        if line.strip() == "quit":
            break
    stats = server.manager.stats()
    server.close()
    out = {"stats": stats, "counters": counters,
           "spans": spans.export() if spans is not None else None}
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
