"""Spans around the program's public entry points, installed from outside.

Nothing under ``src/`` is edited: :meth:`Spans.install` replaces a fixed list
of functions and methods with wrappers that record one span per call
(name, start, end, parent, request id, thread).  Spans stay in memory
and are analysed when the run ends.

A *request* is one benchmark operation (a continue, an inspection
bundle, ...), opened by :meth:`Spans.request` on the thread that issues
it.  Threads the debugger starts to serve that thread -- the nub's
thread, triage pool workers -- are *service* threads: their spans join
the request that is open on the owning thread.  Self time is assigned
instant by instant: a service span wins over the owner thread's spans
(the owner is only waiting on it), and on one thread the innermost open
span wins.  So the self times of one request add up to its duration.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: (span name, module, attribute path, opens a request when none is open)
#: -- the public entry points of each layer, named layer.operation
ENTRY_POINTS = [
    ("cc.compile", "repro.cc.driver", "compile_and_link", None),
    ("postscript.interp_init", "repro.ldb.debugger", "new_interp",
     "serve.spawn"),
    ("postscript.symtab_read", "repro.ldb.debugger", "Ldb.read_loader_table",
     None),
    ("postscript.run", "repro.postscript.interp", "Interp.run", None),
    ("ldb.load", "repro.ldb.debugger", "Ldb.load_program", "serve.spawn"),
    ("ldb.break", "repro.ldb.debugger", "Ldb.break_at_function", None),
    ("ldb.run_to_stop", "repro.ldb.debugger", "Ldb.run_to_stop", None),
    ("ldb.where", "repro.ldb.debugger", "Ldb.where_am_i", None),
    ("ldb.print", "repro.ldb.debugger", "Ldb.print_variable", None),
    ("ldb.backtrace", "repro.ldb.debugger", "Ldb.backtrace_text", None),
    ("ldb.open_core", "repro.ldb.debugger", "Ldb.open_core", None),
    ("ldb.open_recording", "repro.ldb.debugger", "Ldb.open_recording", None),
    ("ldb.record_save", "repro.ldb.debugger", "Ldb.record_save", None),
    ("ldb.frames", "repro.ldb.target", "Target.frames", None),
    ("ldb.wait", "repro.ldb.target", "Target.wait_for_stop", None),
    ("ldb.kill", "repro.ldb.target", "Target.kill", None),
    ("ldb.dump_core", "repro.ldb.target", "Target.dump_core", None),
    ("ldb.eval", "repro.ldb.exprserver", "ExpressionClient.evaluate", None),
    ("ldb.events_wait", "repro.ldb.events", "EventEngine.wait", None),
    ("nub.request", "repro.nub.session", "NubSession.request", None),
    ("nub.control", "repro.nub.session", "NubSession.control", None),
    ("nub.recv_event", "repro.nub.session", "NubSession.recv_event", None),
    ("machines.process_start", "repro.machines.process", "Process.__init__",
     None),
    ("machines.engine", "repro.machines.process", "Process.run_until_event",
     None),
    ("timetravel.enable", "repro.timetravel.replay", "ReplayController.enable",
     None),
    ("timetravel.forward", "repro.timetravel.replay",
     "ReplayController.continue_forward", None),
    ("timetravel.reverse", "repro.timetravel.replay",
     "ReplayController.reverse_continue", None),
    ("trace.save", "repro.trace.writer", "TraceWriter.save", None),
    ("trace.load", "repro.trace.format", "Recording.load", None),
    ("core.dump", "repro.machines.core", "CoreFile.dump", None),
    ("core.load", "repro.machines.core", "CoreFile.load", None),
    ("atomicio.write", "repro.machines.atomicio", "atomic_write_bytes", None),
    ("atomicio.write", "repro.machines.core", "atomic_write_bytes", None),
    ("atomicio.write", "repro.trace.format", "atomic_write_bytes", None),
    ("atomicio.write", "repro.trace.writer", "atomic_write_bytes", None),
    ("triage.batch", "repro.triage.engine", "TriageEngine.triage_paths", None),
    ("triage.artifact", "repro.triage.engine", "triage_artifact", None),
    ("triage.stackhash", "repro.triage.engine", "hash_backtrace", None),
    ("serve.client", "repro.serve.gateway", "GatewayClient.request", None),
    ("serve.cmd", "repro.ldb.api", "DebugAPI.execute", "serve.cmd"),
    ("serve.close", "repro.serve.session", "SessionWorker.close",
     "serve.close"),
]

#: a span record: (id, parent id, request id, name, start, end, thread)
Span = Tuple[int, int, Optional[int], str, float, float, int]


class Spans:
    """The in-memory span store and the wrappers that feed it."""

    def __init__(self):
        self.records: List[Span] = []
        #: request id -> (kind, tag)
        self.requests: Dict[int, Tuple[str, Optional[str]]] = {}
        self._ids = itertools.count(1)
        self._req_ids = itertools.count(1)
        self._local = threading.local()
        self._owner: Dict[int, int] = {}
        self._open: Dict[int, int] = {}
        self._batch_owner: Optional[int] = None
        self._undo: List[Tuple[object, str, object]] = []

    # -- requests -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _owner_of(self, tid: int) -> int:
        return self._owner.get(tid, tid)

    @contextmanager
    def request(self, kind: str, tag: Optional[str] = None):
        """One benchmark operation on this thread: its root span."""
        tid = threading.get_ident()
        # a thread that issues requests owns itself, whatever thread
        # once had its (reused) identifier
        self._owner.pop(tid, None)
        rid = next(self._req_ids)
        self.requests[rid] = (kind, tag)
        previous = self._open.get(tid)
        self._open[tid] = rid
        try:
            with self._span("bench." + kind, rid, tid):
                yield rid
        finally:
            if previous is None:
                self._open.pop(tid, None)
            else:
                self._open[tid] = previous

    @contextmanager
    def _span(self, name: str, rid: Optional[int], tid: int):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.records.append((sid, parent, rid, name, start, end, tid))

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn, root: Optional[str]):
        spans = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            if name == "triage.artifact" and tid not in spans._owner \
                    and tid not in spans._open \
                    and spans._batch_owner is not None:
                # a pool worker serves the thread running the batch
                spans._owner[tid] = spans._batch_owner
            rid = spans._open.get(spans._owner_of(tid))
            if rid is None and root is not None:
                sid = getattr(args[0], "sid", None) if args else None
                tag = ("session-%s" % sid if sid
                       else threading.current_thread().name)
                with spans.request(root, tag) as rid:
                    with spans._span(name, rid, tid):
                        return fn(*args, **kwargs)
            if name == "triage.batch":
                spans._batch_owner = spans._owner_of(tid)
            with spans._span(name, rid, tid):
                return fn(*args, **kwargs)
        return wrapper

    def _patch(self, holder, attr: str, name: str, root: Optional[str]):
        raw = holder.__dict__[attr] if isinstance(holder, type) \
            else getattr(holder, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__, root))
        else:
            new = self._wrap(name, raw, root)
        self._undo.append((holder, attr, raw))
        setattr(holder, attr, new)

    def install(self) -> "Spans":
        for name, module_name, path, root in ENTRY_POINTS:
            holder = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for owner in owners:
                holder = getattr(holder, owner)
            self._patch(holder, attr, name, root)
        # the nub's thread serves whoever started it
        from repro.nub.nub import NubRunner
        original_start = NubRunner.start
        spans = self

        def start(runner):
            result = original_start(runner)
            spans._owner[runner.thread.ident] = spans._owner_of(
                threading.get_ident())
            return result
        self._undo.append((NubRunner, "start", original_start))
        NubRunner.start = start
        return self

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, raw = self._undo.pop()
            setattr(holder, attr, raw)

    # -- export -------------------------------------------------------------

    def export(self) -> dict:
        return {"records": self.records,
                "requests": {str(k): v for k, v in self.requests.items()}}


# -- analysis ------------------------------------------------------------------

def _innermost(spans: List[Span]) -> List[Tuple[str, float, float]]:
    """Pieces of time on one thread, each owned by its innermost span."""
    out: List[Tuple[str, float, float]] = []
    stack: List[Span] = []
    cursor = 0.0
    for span in sorted(spans, key=lambda s: (s[4], -s[5])):
        while stack and stack[-1][5] <= span[4]:
            top = stack.pop()
            out.append((top[3], cursor, top[5]))
            cursor = top[5]
        if stack:
            out.append((stack[-1][3], cursor, span[4]))
        stack.append(span)
        cursor = span[4]
    while stack:
        top = stack.pop()
        out.append((top[3], cursor, top[5]))
        cursor = top[5]
    return [(n, a, b) for n, a, b in out if b > a]


def _merge(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _minus(a: float, b: float, cover: List[Tuple[float, float]],
           starts: List[float]) -> float:
    """Length of [a, b) not covered by the merged ``cover``."""
    total = b - a
    index = max(0, bisect.bisect_right(starts, a) - 1)
    while index < len(cover) and cover[index][0] < b:
        lo, hi = max(a, cover[index][0]), min(b, cover[index][1])
        if hi > lo:
            total -= hi - lo
        index += 1
    return total


def attribute(export: dict) -> Dict[int, dict]:
    """Per request: its kind, tag, window and self seconds by span name."""
    by_request: Dict[int, List[Span]] = defaultdict(list)
    for span in export["records"]:
        if span[2] is not None:
            by_request[span[2]].append(tuple(span))
    out: Dict[int, dict] = {}
    for rid, spans in by_request.items():
        kind, tag = export["requests"][str(rid)]
        roots = [s for s in spans if s[3] == "bench." + kind]
        if not roots:
            continue
        root = roots[0]
        lo, hi = root[4], root[5]
        owner = root[6]
        threads: Dict[int, List[Span]] = defaultdict(list)
        for s in spans:
            threads[s[6]].append(s)
        service = []
        for tid, group in threads.items():
            if tid != owner:
                service += [(n, max(a, lo), min(b, hi))
                            for n, a, b in _innermost(group)]
        service = [(n, a, b) for n, a, b in service if b > a]
        cover = _merge([(a, b) for _, a, b in service])
        starts = [a for a, _ in cover]
        self_s: Dict[str, float] = defaultdict(float)
        for name, a, b in _innermost(threads[owner]):
            self_s[name] += _minus(a, b, cover, starts)
        for name, a, b in service:
            self_s[name] += b - a
        out[rid] = {"kind": kind, "tag": tag, "start": lo, "end": hi,
                    "self": dict(self_s)}
    return out


def durations(export: dict) -> Dict[str, List[float]]:
    """Whole-span durations by span name, requests or not."""
    out: Dict[str, List[float]] = defaultdict(list)
    for span in export["records"]:
        out[span[3]].append(span[5] - span[4])
    return out
