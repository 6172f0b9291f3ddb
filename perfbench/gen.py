"""Seeded program generators and their reference answers.

Every workload hands the debugger only the C source made here; the
expected stops, printed values, exit statuses and crash families come
from the same seed, computed in Python, never from the program under
test.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

ISAS = ("rmips", "rmipsel", "rsparc", "rm68k", "rvax")

#: a breakpoint stop the generator predicts:
#: (proc, line, {variable: printed text}, [procs in the backtrace])
Stop = Tuple[str, int, Dict[str, str], List[str]]


def _line_of(source: str, text: str) -> int:
    return source.splitlines().index(text) + 1


# -- cold_attach: a large program, cheap to run, costly to load --------------

def large_program(functions: int, seed: int) -> dict:
    """About 30 lines per function; ``main`` calls the first 40 in
    order and every odd-numbered function calls the leaf just before it
    in its loop, so the order of breakpoint hits is known from the seed
    alone.  The seed picks values, not how much code runs."""
    rng = random.Random(seed)
    parts = ["struct record { int key; int value; int weight; };",
             "static int pool[64];", "int visits = 0;", ""]
    meta = []
    for index in range(functions):
        name = "work%03d" % index
        limit = 5
        bias = rng.randrange(1, 5)
        callee = meta[-1]["name"] if index % 2 else None
        call = ("        acc += %s(i, %d) & 15;" % (callee, bias)
                if callee else "")
        parts.append("""
int %(name)s(int a, int b) {
    static int memo;
    struct record r;
    int acc = 0;
    int i;
    r.key = a; r.value = b; r.weight = a + b;
    for (i = 0; i < %(limit)d; i++) {
        int step = i * %(bias)d + r.weight;
        if (step > 100) step = step %% 100;
        acc += step;
%(call)s
    }
    {
        int scaled = acc * 2;
        if (scaled > memo) memo = scaled;
        pool[(a + b) & 63] = memo;
    }
    visits++;
    return acc + memo;
}""" % {"name": name, "limit": limit, "bias": bias, "call": call})
        meta.append({"name": name, "limit": limit, "bias": bias,
                     "callee": callee})
    called = min(40, functions)
    args = [(rng.randrange(0, 50), rng.randrange(0, 50))
            for _ in range(called)]
    calls = "\n".join("    total += %s(%d, %d);" % (meta[i]["name"], a, b)
                      for i, (a, b) in enumerate(args))
    parts.append("""
int main(void) {
    int total = 0;
%s
    printf("%%d\\n", total);
    return 0;
}
""" % calls)
    source = "\n".join(parts)
    lines = {m["name"]: _line_of(source, "int %s(int a, int b) {"
                                 % m["name"]) for m in meta}
    # every procedure entry main's calls produce, in execution order
    entries = []
    for index, (a, b) in enumerate(args):
        m = meta[index]
        entries.append((m["name"], a, b, ["main"]))
        if m["callee"]:
            for i in range(m["limit"]):
                entries.append((m["callee"], i, m["bias"],
                                [m["name"], "main"]))
    return {"source": source, "meta": meta, "entries": entries,
            "lines": lines}


def cold_stops(program: dict, names: List[str]) -> List[Stop]:
    """The first ``len(names)`` stops when breakpoints sit on ``names``."""
    count = len(names)
    stops = []
    for name, a, b, callers in program["entries"]:
        if name in names:
            stops.append((name, program["lines"][name],
                          {"a": str(a), "b": str(b)}, [name] + callers))
            if len(stops) == count:
                break
    return stops


# -- hot_loop: long compute between stops --------------------------------

def hot_program(seed: int, inner: int, rounds: int) -> dict:
    rng = random.Random(seed)
    mul = rng.randrange(3, 200) | 1
    add = rng.randrange(1, 1000)
    x = rng.randrange(1, 60000)
    source = """int acc;
int rounds_done;
int mark(int round, int value) {
    rounds_done = round;
    return value;
}
int main(void) {
    int r;
    int i;
    int x = %(x)d;
    for (r = 0; r < %(rounds)d; r++) {
        for (i = 0; i < %(inner)d; i++)
            x = (x * %(mul)d + i + %(add)d) & 65535;
        acc = mark(r, x);
    }
    return acc & 255;
}
""" % {"x": x, "rounds": rounds, "inner": inner, "mul": mul, "add": add}
    stops = []
    line = _line_of(source, "int mark(int round, int value) {")
    for r in range(rounds):
        for i in range(inner):
            x = (x * mul + i + add) & 65535
        stops.append(("mark", line, {"round": str(r), "value": str(x)},
                      ["mark", "main"]))
    return {"source": source, "stops": stops, "status": x & 255}


# -- served_sessions: a stop every few dozen instructions ----------------------

def served_program(seed: int, depth: int, rounds: int) -> dict:
    """``main`` reaches ``tick`` through ``depth`` hops, so each program
    of the set has its own call chain (and its own crash family)."""
    rng = random.Random(seed * 31 + depth)
    base = rng.randrange(1, 40)
    hops = ["hop%d" % k for k in range(1, depth + 1)]
    lines = ["int counter;",
             "int tick(int n) {",
             "    counter = counter + n;",
             "    return counter;",
             "}"]
    inner = "tick"
    for k in range(1, depth + 1):
        lines.append("int hop%d(int n) { return %s(n) + %d; }" % (k, inner, k))
        inner = "hop%d" % k
    lines += ["int main(void) {",
              "    int i;",
              "    for (i = 0; i < %d; i++)" % rounds,
              "        %s(i + %d);" % (inner, base),
              "    return counter & 255;",
              "}"]
    source = "\n".join(lines) + "\n"
    line = _line_of(source, "int tick(int n) {")
    stops, counter = [], 0
    for i in range(rounds):
        stops.append(("tick", line, {"n": str(i + base),
                                     "counter": str(counter)},
                      ["tick"] + hops + ["main"]))
        counter += i + base
    return {"source": source, "stops": stops, "family": "chain%d" % depth}


# -- crash_forensics: crashing programs in known families ------------------------

#: each family is one bug; the seed's ``salt`` varies the values, never
#: the crash site, so every member folds to one stack hash per ISA
CRASH_FAMILIES = {
    "nullwrite": ("poke", """int g;
int tick(int i) {
    int k;
    for (k = 0; k < %(work)d; k++)
        g = (g * 5 + k + i + %(salt)d) & 4095;
    return g;
}
void poke(int *p) { *p = 42; }
int main(void) {
    int i;
    for (i = 0; i < %(spin)d; i++)
        tick(i);
    poke((int *)0x7fffffff);
    return 0;
}
"""),
    "divzero": ("shrink", """int g;
int tick(int i) {
    int k;
    for (k = 0; k < %(work)d; k++)
        g = (g * 3 + k + i + %(salt)d) & 4095;
    return g;
}
int shrink(int a, int b) { return a / b; }
int main(void) {
    int i;
    for (i = 0; i < %(spin)d; i++)
        tick(i);
    g = shrink(100, g - g);
    return 0;
}
"""),
    "deepchain": ("inner", """int g;
int tick(int i) {
    int k;
    for (k = 0; k < %(work)d; k++)
        g = (g * 7 + k + i + %(salt)d) & 4095;
    return g;
}
void poke(int *p) { *p = 42; }
void inner(void) { poke((int *)0x7ffffff3); }
void middle(void) { inner(); }
void outer(void) { middle(); }
int main(void) {
    int i;
    for (i = 0; i < %(spin)d; i++)
        tick(i);
    outer();
    return 0;
}
"""),
}

_FAMILY_MUL = {"nullwrite": 5, "divzero": 3, "deepchain": 7}


def crash_program(family: str, seed: int, spin: int, work: int) -> dict:
    site, template = CRASH_FAMILIES[family]
    salt = random.Random("%s/%d" % (family, seed)).randrange(1, 4096)
    source = template % {"spin": spin, "work": work, "salt": salt}
    line = _line_of(source, "int tick(int i) {")
    stops, g = [], 0
    for i in range(spin):
        stops.append(("tick", line, {"i": str(i), "g": str(g)},
                      ["tick", "main"]))
        for k in range(work):
            g = (g * _FAMILY_MUL[family] + k + i + salt) & 4095
    return {"source": source, "stops": stops, "site": site,
            "family": family}
