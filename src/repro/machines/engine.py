"""Execution engines: pluggable strategies for running the simulation.

The interpreter is the hot path of the whole system — time-travel
replay, the fault matrix, and every `repro.serve` fleet workload are
bounded by simulated instructions per second.  This module splits the
*policy* of running (when to stop, how to dispatch) from the
*semantics* of one instruction (``Cpu.step``), behind one small
interface:

* :class:`StepEngine` — the reference implementation: decode and
  execute one instruction at a time, exactly ``Cpu.step`` in a loop.
* :class:`BlockEngine` — a decoded-basic-block core in the spirit of
  the DiVM bitcode simulator (PAPERS.md): decode from the pc to the
  next control transfer *once*, compile the block into a list of
  prebuilt execute closures cached by address, and dispatch whole
  blocks between icount/stop checks.

Both engines must produce byte-identical state: the same stops,
registers, memory, faults, icount, and delay-slot bookkeeping.  The
block engine dispatches most instructions as one bare closure call.
``Cpu.step``'s rules live where an instruction's position is known:
:meth:`BlockEngine._compile` wraps only the instructions that can find
an rmips load pending, may write memory, or may look at ``icount`` and
``_wrote_reg`` mid-block; :meth:`BlockEngine.run` retires whole blocks
(a faulting instruction included), converts memory faults, and runs
the last instruction before a planned stop through ``Cpu.step``.

Cache invalidation: the engine marks every byte it decoded from in a
per-byte code map and registers a write hook on the target memory.
Any write that overlaps a decoded byte — PLANT/unplant, POKE,
BLOCKSTORE, a self-modifying store, or a checkpoint restore rewriting
a code page — bumps the generation counter and drops every cached
block, so the next dispatch re-decodes current bytes.  A store that
lands inside the *currently executing* block is caught by the
generation check its instruction carries.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

from .isa import (
    DEFAULT_MAX_STEPS,
    Halt,
    IcountReached,
    SIGILL,
    SIGSEGV,
    TargetFault,
)
from .memory import MemoryFault

#: Environment variable consulted when no engine is requested
#: explicitly; value "step" or "block".
ENGINE_ENV = "LDB_SIM_ENGINE"

#: The engine used when neither the caller nor the environment picks
#: one.  The block engine is the default: its architectural state is
#: byte-identical to the step engine (the equivalence property in
#: tests/machines/test_engines.py), only faster.
DEFAULT_ENGINE = "block"


class StopSpec:
    """One shared description of when a run must stop.

    ``Cpu.run`` and ``Process.run_until_event`` both accept these
    (or build one from their keyword-only ``max_steps`` /
    ``stop_at_icount``), so the two stop-condition vocabularies cannot
    drift apart again.

    * ``max_steps`` — runaway guard: after this many retired
      instructions the run raises the SIGILL/99 runaway fault.
    * ``stop_at_icount`` — absolute retired-instruction target:
      checked *between* instructions, raising :class:`IcountReached`
      before executing the instruction that would pass it.
    """

    __slots__ = ("max_steps", "stop_at_icount")

    def __init__(self, max_steps: int = DEFAULT_MAX_STEPS,
                 stop_at_icount: Optional[int] = None):
        if max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if stop_at_icount is not None and stop_at_icount < 0:
            raise ValueError("stop_at_icount must be >= 0")
        self.max_steps = max_steps
        self.stop_at_icount = stop_at_icount

    @classmethod
    def coerce(cls, stop: Optional["StopSpec"],
               max_steps: Optional[int],
               stop_at_icount: Optional[int]) -> "StopSpec":
        """Fold the (stop | max_steps/stop_at_icount) keyword surface
        into one spec; passing both forms is a caller bug."""
        if stop is not None:
            if max_steps is not None or stop_at_icount is not None:
                raise ValueError(
                    "pass either stop= or max_steps=/stop_at_icount=, not both")
            return stop
        return cls(DEFAULT_MAX_STEPS if max_steps is None else max_steps,
                   stop_at_icount)

    def __repr__(self) -> str:
        return "<stop max_steps=%d stop_at_icount=%r>" % (
            self.max_steps, self.stop_at_icount)


class SimStats:
    """Block-cache counters; the source of the ``sim.*`` metrics."""

    __slots__ = ("compiled", "hits", "invalidated")

    def __init__(self):
        self.compiled = 0
        self.hits = 0
        self.invalidated = 0

    def as_dict(self) -> Dict[str, int]:
        return {"blocks_compiled": self.compiled,
                "block_hits": self.hits,
                "blocks_invalidated": self.invalidated}


class ExecutionEngine:
    """Strategy interface: run a Cpu until a stop condition fires.

    ``run`` must behave exactly like the historical ``Cpu.run`` loop:
    return the exit status on :class:`Halt`, raise
    :class:`IcountReached` when the icount target is hit between
    instructions, let :class:`TargetFault` propagate, and raise the
    SIGILL/99 runaway fault when ``max_steps`` instructions retire
    without any of the above.
    """

    name = "abstract"

    def __init__(self, cpu=None):
        self.cpu = cpu
        self.stats = SimStats()

    def run(self, cpu, stop: StopSpec) -> int:
        raise NotImplementedError

    def describe(self) -> Dict[str, int]:
        """Engine identity + counters, for `ldb sim` / the sim_stats verb."""
        info: Dict[str, int] = {}
        info.update(self.stats.as_dict())
        return info


class StepEngine(ExecutionEngine):
    """The reference engine: ``Cpu.step`` in a loop, nothing cached."""

    name = "step"

    def run(self, cpu, stop: StopSpec) -> int:
        remaining = stop.max_steps
        target = stop.stop_at_icount
        try:
            while remaining > 0:
                if target is not None and cpu.icount >= target:
                    raise IcountReached(cpu.icount, cpu.pc)
                cpu.step()
                remaining -= 1
        except Halt as halt:
            return halt.status
        raise TargetFault(SIGILL, code=99, address=cpu.pc)  # runaway


class _Invalidated(Exception):
    """Internal control flow: a just-executed instruction wrote over
    decoded code, so the rest of its block is stale.  Raised by the
    writer wrapper *after* the instruction fully retires; the dispatch
    loop swallows it and resumes from ``cpu.pc`` with fresh bytes."""


class _Block:
    """One compiled basic block.

    ``steps`` holds one prebuilt closure per instruction; an *empty*
    ``steps`` with a non-None ``fault`` is a decode-fault terminator:
    dispatching it replays ``Cpu.step``'s decode-fault path (the
    pending load is dropped, nothing retires, the fault is raised).
    """

    __slots__ = ("steps", "fault", "start", "size")

    def __init__(self, steps: List[Callable],
                 fault: Optional[Tuple[int, int, int]],
                 start: int, size: int):
        self.steps = steps
        self.fault = fault
        self.start = start
        self.size = size


class BlockEngine(ExecutionEngine):
    """Decoded-basic-block dispatch with write-invalidated caching."""

    name = "block"

    #: Longest straight-line run compiled into one block.  Blocks end
    #: at the arch's control transfers anyway; this bounds pathological
    #: straight-line code so stop checks stay responsive.
    MAX_BLOCK = 128

    def __init__(self, cpu):
        super().__init__(cpu)
        self.arch = cpu.arch
        self.mem = cpu.mem
        #: bumped on every write into decoded code, which also empties
        #: the cache; a running block's writers compare it against
        #: the generation they were compiled under
        self.generation = 0
        self._blocks: Dict[int, _Block] = {}
        #: per-byte map of decoded code: 1 where some cached block
        #: decoded from this address.  Byte-exact so that data packed
        #: right next to text (the linker aligns data to 16 bytes after
        #: text) never false-invalidates on hot stores.
        self._code_marks = bytearray(cpu.mem.size)
        #: bounds of the marked region: stores outside [lo, hi) skip
        #: the byte-map scan entirely (the write hook runs per store)
        self._marks_lo = cpu.mem.size
        self._marks_hi = 0
        cpu.mem.add_write_hook(self._on_write)

    # -- invalidation -----------------------------------------------------

    def _on_write(self, address: int, size: int) -> None:
        """Memory write hook: any store overlapping decoded code drops
        the whole cache (simple, and correct for PLANT/unplant, POKE,
        BLOCKSTORE, self-modifying stores, and snapshot restores)."""
        if address >= self._marks_hi or address + size <= self._marks_lo:
            return  # outside every decoded span: the common case (data)
        if 1 in self._code_marks[address:address + size]:
            self._invalidate()

    def _invalidate(self) -> None:
        self.generation += 1
        self.stats.invalidated += len(self._blocks)
        marks = self._code_marks
        for block in self._blocks.values():
            if block.size:
                marks[block.start:block.start + block.size] = \
                    bytes(block.size)
        self._blocks.clear()
        self._marks_lo = self.mem.size
        self._marks_hi = 0

    def flush(self) -> None:
        """Drop every cached block (public; normal invalidation is
        automatic via the memory write hook)."""
        if self._blocks:
            self._invalidate()

    # -- compilation ------------------------------------------------------

    def _wrap(self, body: Callable, gen: int, writer: bool, commit: bool,
              delta: Optional[int]) -> Callable:
        """``body`` plus what ``Cpu.step`` adds at its place in a block.

        ``delta`` is set for generic fallbacks and syscalls, which may
        read ``cpu.icount`` and ``_wrote_reg``.  Mid-block, ``icount``
        holds the block's start count plus the index of the previous
        such instruction; adding ``delta`` gives this one's, and
        ``_wrote_reg`` is cleared, as ``Cpu.step`` shows them.
        ``commit``: a load may be pending (the block's first
        instruction, or one right after a load); land it after the
        body unless the body wrote that register — in a ``finally``,
        since a faulting instruction still retires.  ``writer``:
        afterwards, raise :class:`_Invalidated` if a store hit decoded
        code.
        """
        engine = self
        zero_reg = self.arch.zero_reg

        def step(cpu):
            if delta is not None:
                cpu.icount += delta
                cpu._wrote_reg = None
            pending = cpu._pending_load if commit else None
            if pending is None:
                body(cpu)
            else:
                cpu._pending_load = None
                cpu._wrote_reg = None
                try:
                    body(cpu)
                finally:
                    reg = pending[0]
                    if reg != cpu._wrote_reg and not (reg == 0 and zero_reg):
                        cpu.regs[reg] = pending[1]
            if writer and engine.generation != gen:
                raise _Invalidated
        return step

    def _compile(self, pc: int) -> _Block:
        arch = self.arch
        mem = self.mem
        gen = self.generation
        steps: List[Callable] = []
        fault: Optional[Tuple[int, int, int]] = None
        loads = frozenset(arch.loads())
        # a load may be pending on entry: from the block before, or a
        # restored state
        commit = arch.has_load_delay
        observed = 0
        addr = pc
        while len(steps) < self.MAX_BLOCK:
            try:
                insn = arch.decode(mem, addr)
            except MemoryFault as exc:
                fault = (SIGSEGV, 1, exc.address)
                break
            except TargetFault as exc:
                fault = (exc.signo, exc.code, exc.address)
                break
            index = len(steps)
            body = arch.compile_insn(insn, addr)
            observer = body is None or insn.op == "syscall"
            if body is None:
                body = _generic_body(arch.execute, insn)
                writer = True  # unknown semantics: stay conservative
            else:
                writer = arch.may_write_mem(insn)
            if observer:
                body = self._wrap(body, gen, writer, commit, index - observed)
                observed = index
            elif commit or writer:
                body = self._wrap(body, gen, writer, commit, None)
            steps.append(body)
            commit = insn.op in loads
            addr += insn.size
            if arch.is_block_end(insn):
                break
        if steps:
            # A decode fault after at least one instruction is *not*
            # part of this block: execution may never get there (a
            # mid-block stop, an exception, a patched branch).  The
            # faulting pc gets its own zero-step fault block on demand.
            fault = None
            size = addr - pc
        else:
            # Zero-step fault block.  Its *cause* is the undecodable
            # bytes at pc, so mark a conservative span: a write there
            # (e.g. self-modifying code repairing an illegal opcode)
            # must invalidate this block too.
            size = min(16, self.mem.size - pc) if pc < self.mem.size else 0
        block = _Block(steps, fault, pc, size)
        if size > 0:
            self._code_marks[pc:pc + size] = b"\x01" * size
            if pc < self._marks_lo:
                self._marks_lo = pc
            if pc + size > self._marks_hi:
                self._marks_hi = pc + size
        return block

    # -- dispatch ---------------------------------------------------------

    def run(self, cpu, stop: StopSpec) -> int:
        # one bound for both stop conditions: the icount the run ends at
        # (the runaway guard wins a tie, as in the step loop)
        runaway = cpu.icount + stop.max_steps
        target = stop.stop_at_icount
        limit = runaway if target is None else min(target, runaway)
        blocks = self._blocks
        stats = self.stats
        try:
            while True:
                icount = cpu.icount
                left = limit - icount
                if left <= 0:
                    break
                pc = cpu.pc
                # invalidation empties the cache: a cached block is current
                block = blocks.get(pc)
                if block is None:
                    block = blocks[pc] = self._compile(pc)
                    stats.compiled += 1
                else:
                    stats.hits += 1
                steps = block.steps
                if not steps:
                    # decode-fault terminator: replay Cpu.step's decode
                    # path exactly — the pending load is dropped and
                    # nothing retires
                    cpu._pending_load = None
                    cpu._wrote_reg = None
                    signo, code, address = block.fault
                    raise TargetFault(signo, code=code, address=address)
                final = len(steps) >= left
                if final:
                    # the run stops after instruction ``left``: run it
                    # through Cpu.step itself, so the stop shows the
                    # reference's _wrote_reg and pending load
                    steps = steps[:left - 1]
                it = iter(steps)
                try:
                    for fn in it:
                        fn(cpu)
                except _Invalidated:
                    # a store inside the block clobbered decoded code;
                    # its instruction fully retired — resume from
                    # cpu.pc with freshly decoded bytes
                    cpu.icount = icount + len(steps) - it.__length_hint__()
                except BaseException as exc:
                    # the raising instruction still retires, and
                    # Cpu.step leaves _wrote_reg clear after it (see
                    # Arch.compile_insn)
                    cpu.icount = icount + len(steps) - it.__length_hint__()
                    cpu._wrote_reg = None
                    if isinstance(exc, MemoryFault):
                        raise TargetFault(SIGSEGV, code=2,
                                          address=exc.address)
                    raise
                else:
                    cpu.icount = icount + len(steps)
                    if final:
                        cpu.step()
        except Halt as halt:
            return halt.status
        if icount < runaway:
            raise IcountReached(icount, cpu.pc)
        raise TargetFault(SIGILL, code=99, address=cpu.pc)  # runaway

    # -- introspection ----------------------------------------------------

    def describe(self) -> Dict[str, int]:
        info = super().describe()
        info["blocks_cached"] = len(self._blocks)
        info["generation"] = self.generation
        return info


def _generic_body(execute, insn):
    """Fallback body: the arch's own execute with the decode pre-done.
    Used for every instruction the arch does not specialize — semantics
    are the arch's single source of truth."""
    def body(cpu):
        execute(cpu, insn)
    return body


_ENGINES = {"step": StepEngine, "block": BlockEngine}


def engine_names() -> Tuple[str, ...]:
    return tuple(sorted(_ENGINES))


def make_engine(spec, cpu) -> ExecutionEngine:
    """Resolve an engine request into an engine bound to ``cpu``.

    ``spec`` may be None (environment variable :data:`ENGINE_ENV`, then
    :data:`DEFAULT_ENGINE`), an engine name, an ExecutionEngine
    subclass, or a ready instance.
    """
    if spec is None:
        spec = os.environ.get(ENGINE_ENV) or DEFAULT_ENGINE
    if isinstance(spec, ExecutionEngine):
        return spec
    if isinstance(spec, type) and issubclass(spec, ExecutionEngine):
        return spec(cpu)
    if isinstance(spec, str):
        cls = _ENGINES.get(spec)
        if cls is None:
            raise ValueError("unknown execution engine %r (one of %s)"
                             % (spec, ", ".join(engine_names())))
        return cls(cpu)
    raise TypeError("engine must be a name, class, or instance, not %r"
                    % (spec,))
