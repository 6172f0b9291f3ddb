"""Per-layer metrics from the traced half of a ``--trace 1`` run.

Each metric names the entry point it times (see ``tracing.ENTRY_POINTS``)
or the program counter it reads.  A layer that a workload does not
exercise reads 0: that is the check that the workloads are separated,
and ``SEPARATION`` and ``OWN_LAYERS`` fail a traced run where it breaks.
``perfbench/predictions.json`` says which end-to-end metric each one
should move, on which workload, and where it should stay flat.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict, List

import common
import tracing

#: the commands whose layer self times must add up to their duration
COMMANDS = ("first_stop", "continue", "inspect")

#: share of a command's traced time its layers may leave unexplained
SUM_TOLERANCE = 0.10

#: instructions per ISA for the bare-engine measurement
ENGINE_STEPS = 400_000

#: the separation each workload exists for: (command, layer prefix,
#: least share, greatest share) of the command's traced time
SEPARATION = {
    "cold_attach": [("first_stop", "postscript.", 0.5, 1.0),
                    ("first_stop", "machines.engine", 0.0, 0.1)],
    "hot_loop": [("continue", "machines.engine", 0.5, 1.0),
                 ("continue", "postscript.", 0.0, 0.1)],
}

#: per-layer metrics that must read above 0 on one workload and 0 on
#: every other (``--trace 1`` runs carry no side operations)
OWN_LAYERS = {
    "crash_forensics": ("trace.save_ms", "trace.open_ms",
                        "timetravel.reverse_ms", "triage.artifact_ms"),
    "served_sessions": ("serve.overhead_ms", "serve.detach_ms",
                        "serve.service_ms"),
}


def _mean(values: List[float], scale: float = 1.0) -> float:
    return statistics.fmean(values) * scale if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def engine_mips(programs) -> float:
    """Simulated instructions per host second with no debugger: the
    program runs straight in a bare ``Process``."""
    from repro.machines import Process, SIGTRAP
    rates = []
    for _isa, exe in programs:
        process = Process(exe)
        pause = exe.symbols.get("__nub_pause")
        started = time.perf_counter()
        while process.cpu.icount < ENGINE_STEPS:
            event = process.run_until_event(
                max_steps=ENGINE_STEPS - process.cpu.icount)
            if getattr(event, "signo", None) == SIGTRAP \
                    and event.pc == pause:
                process.cpu.pc = event.pc + exe.arch.noop_advance
                continue
            break
        rates.append(process.cpu.icount / (time.perf_counter() - started)
                     / 1e6)
    return common.geomean(rates) if rates else 0.0


def _attributions(workload, spans) -> List[dict]:
    """Client-side requests, with the server's self times folded into
    the ``served_sessions`` commands they served."""
    requests = list(tracing.attribute(spans.export()).values())
    server = getattr(workload, "traced_out", {}).get("spans")
    if not server:
        return requests
    served = defaultdict(list)
    for row in tracing.attribute(server).values():
        served[row["tag"]].append(row)
    for row in requests:
        covered = 0.0
        for inner in served.get(row["tag"], ()):
            if inner["start"] >= row["start"] and inner["end"] <= row["end"]:
                for name, seconds in inner["self"].items():
                    key = "serve.worker" if name.startswith("bench.") \
                        else name
                    row["self"][key] = row["self"].get(key, 0.0) + seconds
                covered += inner["end"] - inner["start"]
        client = row["self"].pop("serve.client", 0.0)
        row["self"]["serve.overhead"] = max(0.0, client - covered)
    return requests


def per_layer(workload, plain: common.Run, traced: common.Run,
              spans) -> Dict[str, dict]:
    requests = _attributions(workload, spans)
    spans_by_name = tracing.durations(spans.export())
    server = getattr(workload, "traced_out", {})
    if server.get("spans"):
        for name, values in tracing.durations(server["spans"]).items():
            spans_by_name[name] += values
    counters = defaultdict(float, traced.counters)
    for name, value in server.get("counters", {}).items():
        counters[name] += value
    stats = server.get("stats", {})

    # self time by layer, summed over each command kind
    by_kind: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    totals: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for row in requests:
        kind = row["kind"]
        counts[kind] += 1
        totals[kind] += row["end"] - row["start"]
        for name, seconds in row["self"].items():
            by_kind[kind][name] += seconds

    def share(kind: str, prefix: str) -> float:
        return _ratio(sum(s for n, s in by_kind[kind].items()
                          if n.startswith(prefix)), totals[kind])

    gaps = [share(kind, "bench.") for kind in COMMANDS if counts[kind]]
    unattributed = max(gaps) if gaps else 0.0
    if unattributed > SUM_TOLERANCE:
        traced.fail("sum check: layers leave %.1f%% of a command "
                    "unexplained (tolerance %.0f%%)"
                    % (100 * unattributed, 100 * SUM_TOLERANCE))

    commands = sum(counts[kind] for kind in COMMANDS)
    stops = counts["first_stop"] + counts["continue"]
    ps_self = sum(by_kind[k].get("postscript.run", 0.0) for k in COMMANDS)
    overheads = []
    for kind in ("continue", "inspect"):
        before = plain.timing(kind, "median")
        after = traced.timing(kind, "median")
        if before and after:
            overheads.append(after / before)
    engine = engine_mips(workload.programs())
    target = plain.target_mips(50.0) or 0.0
    client_cmd = _ratio(traced.extra.get("cmd_s", 0.0),
                        traced.extra.get("cmd_n", 0))
    service = _ratio(stats.get("serve.cmd_latency_us.sum", 0.0),
                     stats.get("serve.cmd_latency_us.count", 0)) / 1e6
    spawn = [v for v, _ in traced.samples.get("spawn", [])]
    detach = [v for v, _ in traced.samples.get("detach", [])]
    d = spans_by_name
    values = {
        "cc.compile_ms": (_mean(d["cc.compile"], 1e3), "ms"),
        "postscript.interp_init_ms": (_mean(d["postscript.interp_init"],
                                            1e3), "ms"),
        "postscript.symtab_read_ms": (_mean(d["postscript.symtab_read"],
                                            1e3), "ms"),
        "postscript.run_self_ms": (_ratio(ps_self, commands) * 1e3, "ms"),
        "ldb.break_ms": (_mean(d["ldb.break"], 1e3), "ms"),
        "ldb.frames_ms": (_mean(d["ldb.frames"], 1e3), "ms"),
        "ldb.eval_ms": (_mean(d["ldb.eval"], 1e3), "ms"),
        "ldb.mem.round_trips_per_stop": (_ratio(sum(
            v for n, v in counters.items() if n.startswith("wire.")),
            stops), "count"),
        "ldb.mem.cache_hit_ratio": (_ratio(counters["cache.hit"],
                                           counters["cache.fetch"]),
                                    "ratio"),
        "nub.requests_per_cmd": (_ratio(counters["session.requests"],
                                        commands), "count"),
        "nub.rtt_us": (_mean(d["nub.request"], 1e6), "us"),
        "nub.bytes_per_cmd": (_ratio(counters["session.bytes_in"]
                                     + counters["session.bytes_out"],
                                     commands), "bytes"),
        "nub.retries": (counters["session.retries"], "count"),
        "machines.engine_mips": (engine, "1e6/s"),
        "machines.debugger_overhead_frac": (
            1.0 - target / engine if engine and target else 0.0, "ratio"),
        "machines.blocks_compiled": (counters["machines.blocks_compiled"],
                                     "count"),
        "machines.block_hits": (counters["machines.block_hits"], "count"),
        "machines.blocks_invalidated": (
            counters["machines.blocks_invalidated"], "count"),
        "machines.process_start_ms": (_mean(d["machines.process_start"],
                                            1e3), "ms"),
        "timetravel.checkpoints": (counters["replay.checkpoints"], "count"),
        "timetravel.instructions_replayed": (
            counters["replay.instructions_replayed"], "count"),
        "timetravel.reverse_ms": (_mean(d["timetravel.reverse"], 1e3),
                                  "ms"),
        "trace.record_overhead_x": (workload.record_overhead(), "x"),
        "trace.save_ms": (_mean(d["trace.save"], 1e3), "ms"),
        "trace.saved_bytes": (_ratio(counters["trace.saved_bytes"],
                                     counters["trace.saves"]), "bytes"),
        "trace.open_ms": (_mean(d["ldb.open_recording"], 1e3), "ms"),
        "core.dump_ms": (_mean(d["core.dump"], 1e3), "ms"),
        "core.open_ms": (_mean(d["core.load"], 1e3), "ms"),
        "atomicio.write_ms": (_mean(d["atomicio.write"], 1e3), "ms"),
        "triage.artifact_ms": (_mean(d["triage.artifact"], 1e3), "ms"),
        "triage.stackhash_us": (_mean(d["triage.stackhash"], 1e6), "us"),
        "serve.spawn_ms": (_mean(spawn), "ms"),
        "serve.detach_ms": (_mean(detach), "ms"),
        "serve.service_ms": (service * 1e3, "ms"),
        "serve.overhead_ms": (max(0.0, client_cmd - service) * 1e3
                              if client_cmd else 0.0, "ms"),
        "serve.queue_depth_max": (stats.get("serve.queue_depth.max", 0),
                                  "count"),
        "serve.rejects": (sum(v for n, v in stats.items()
                              if n.startswith("serve.rejects")), "count"),
        "serve.compiles": (stats.get("serve.compiles", 0), "count"),
        "obs.trace_overhead_frac": (common.geomean(overheads) - 1.0
                                    if overheads else 0.0, "ratio"),
        "obs.unattributed_frac": (unattributed, "ratio"),
        "sep.postscript_share_first_stop": (
            share("first_stop", "postscript."), "ratio"),
        "sep.postscript_share_continue": (share("continue", "postscript."),
                                          "ratio"),
        "sep.engine_share_continue": (share("continue", "machines.engine"),
                                      "ratio"),
        "sep.engine_share_first_stop": (
            share("first_stop", "machines.engine"), "ratio"),
        "sep.serve_share_continue": (share("continue", "serve."), "ratio"),
    }
    for kind, prefix, least, most in SEPARATION.get(traced.workload, ()):
        got = share(kind, prefix)
        if not least <= got <= most:
            traced.fail("separation: %s* share of %s is %.3f, outside "
                        "[%g, %g]" % (prefix, kind, got, least, most))
    for owner, names in OWN_LAYERS.items():
        for name in names:
            mine = traced.workload == owner
            if (values[name][0] > 0) != mine:
                traced.fail("separation: %s reads %g on %s" % (
                    name, values[name][0], traced.workload))
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in values.items()}
