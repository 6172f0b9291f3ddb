"""Child process for ``cold_start_ms``: a fresh interpreter imports the
debugger, opens a fresh ``Ldb`` on a program image, runs to a breakpoint
and prints ``STOP <proc> <line>``.

Usage: python3 perfbench/coldstart.py IMAGE FUNCTION
"""

import io
import os
import pickle
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.ldb import Ldb  # noqa: E402


def main() -> int:
    image, function = sys.argv[1], sys.argv[2]
    with open(image, "rb") as handle:
        exe = pickle.load(handle)
    ldb = Ldb(stdout=io.StringIO())
    target = ldb.load_program(exe)
    ldb.break_at_function(function)
    ldb.run_to_stop()
    proc, _file, line = ldb.where_am_i()
    print("STOP %s %d" % (proc, line), flush=True)
    target.kill()
    return 0


if __name__ == "__main__":
    sys.exit(main())
