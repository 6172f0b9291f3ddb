"""Architecture descriptions: the seam between shared and MD machine code.

Each simulated target is described by an :class:`Arch` subclass supplying
encode/decode/execute for its instruction set plus the machine-dependent
*data* the debugger needs (paper Sec. 3, 4.3):

* the bit patterns used for ``break`` and no-op instructions,
* the type (granularity) used to fetch and store instructions,
* the amount to advance the program counter after "interpreting" a no-op,
* the layout of a saved context,
* register names, special register indices, and byte order.

The four targets keep the idiosyncrasies that drive the paper's
machine-dependent code sizes: rmips has no frame pointer and exposes a
runtime procedure table; rm68k has variable-length instructions and
80-bit floats; rvax is little-endian with byte-granular instructions;
rsparc's context is entirely provided by the "operating system" (the
simulator), leaving almost nothing for its nub to do.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

# Signal numbers (UNIX-flavored).
SIGILL = 4
SIGTRAP = 5
SIGFPE = 8
SIGBUS = 10
SIGSEGV = 11

#: Syscall codes serviced by the simulated OS (see machines.process).
SYS_EXIT = 1
SYS_PUTCHAR = 2
SYS_PRINTF = 3

#: Runaway guard shared by :meth:`Cpu.run` and
#: :meth:`Process.run_until_event` (one named constant, one policy).
DEFAULT_MAX_STEPS = 50_000_000

#: The SIGTRAP ``code`` a nub reports when execution stopped because a
#: requested retired-instruction count was reached (RUNTO), not because
#: the target trapped.  Distinct from breakpoint trap codes, which come
#: from the trap instruction's immediate (small integers).
CODE_ICOUNT = 0x1C0


class TargetFault(Exception):
    """A fault in the target: the signal the nub's handler catches."""

    def __init__(self, signo: int, code: int = 0, address: int = 0):
        self.signo = signo
        self.code = code
        self.address = address
        super().__init__("signal %d (code %d) at 0x%x" % (signo, code, address))


class Halt(Exception):
    """The target called exit()."""

    def __init__(self, status: int):
        self.status = status
        super().__init__("exit(%d)" % status)


class IcountReached(Exception):
    """Execution reached a requested retired-instruction count.

    Raised by :meth:`Cpu.run` *before* executing the instruction that
    would be number ``icount + 1`` — the stop lands between
    instructions, which is what makes ``RUNTO`` replays deterministic.
    """

    def __init__(self, icount: int, pc: int):
        self.icount = icount
        self.pc = pc
        super().__init__("icount %d reached at pc=0x%x" % (icount, pc))


class Insn:
    """One assembler-level instruction.

    ``imm`` and ``target`` may hold symbolic operands — a symbol name, or
    a ``("hi", name)`` / ``("lo", name)`` half — until the linker resolves
    them; :meth:`Arch.encode` requires integers.
    """

    __slots__ = ("op", "rd", "rs", "rt", "imm", "target", "size", "comment")

    def __init__(self, op: str, rd: Optional[int] = None, rs: Optional[int] = None,
                 rt: Optional[int] = None, imm=None, target=None, comment: str = ""):
        self.op = op
        self.rd = rd
        self.rs = rs
        self.rt = rt
        self.imm = imm
        self.target = target
        self.size = 0  # filled by encode/decode
        self.comment = comment

    def __repr__(self) -> str:
        parts = [self.op]
        for field in ("rd", "rs", "rt"):
            value = getattr(self, field)
            if value is not None:
                parts.append("%s=%s" % (field, value))
        if self.imm is not None:
            parts.append("imm=%s" % (self.imm,))
        if self.target is not None:
            parts.append("target=%s" % (self.target,))
        return "<%s>" % " ".join(str(p) for p in parts)


class Label:
    """A position in an instruction stream; resolved at assembly time.

    ``stop_index`` marks compiler stopping points (paper Sec. 3: "lcc
    already places labels at stopping points").
    """

    __slots__ = ("name", "stop_index", "is_block_leader")

    def __init__(self, name: str, stop_index: Optional[int] = None,
                 is_block_leader: bool = False):
        self.name = name
        self.stop_index = stop_index
        self.is_block_leader = is_block_leader

    def __repr__(self) -> str:
        suffix = " (stop %d)" % self.stop_index if self.stop_index is not None else ""
        return "<label %s%s>" % (self.name, suffix)


class ContextField:
    """One field of a saved-signal context (machine-dependent data)."""

    __slots__ = ("name", "offset", "size", "kind")

    def __init__(self, name: str, offset: int, size: int, kind: str):
        self.name = name
        self.offset = offset
        self.size = size
        self.kind = kind  # "pc", "reg", "freg", "flags"


class Arch:
    """Base class for architecture descriptions."""

    name = "abstract"
    byteorder = "little"
    insn_align = 4  # instruction granularity in bytes
    word = 4
    nregs = 32
    nfregs = 16
    reg_names: Sequence[str] = ()
    sp: int = 0
    fp: Optional[int] = None  # None: no frame pointer (the rmips case)
    ra: Optional[int] = None  # None: return address lives on the stack
    arg_regs: Sequence[int] = ()
    ret_reg: int = 0
    has_runtime_proc_table = False
    #: True when register 0 is hardwired to zero (rmips, rsparc).
    zero_reg = False
    #: True when loads commit one instruction late (the rmips load
    #: delay slot).  Engines skip the pending-load bookkeeping on
    #: targets that never use it.
    has_load_delay = False
    #: 80-bit floats exist only where the hardware has them.
    has_f80 = False
    #: Spaces in this target's abstract memory (paper Sec. 4.1).
    spaces = "cdrfx"

    # -- machine-dependent data for the interim breakpoint scheme --------
    nop_bytes = b""
    break_bytes = b""

    @property
    def noop_advance(self) -> int:
        """PC advance that "interprets" a no-op out of line (Sec. 3)."""
        return len(self.nop_bytes)

    # -- context ---------------------------------------------------------

    def context_fields(self) -> List[ContextField]:
        """Layout of a saved context in target memory.

        The debugger's code that fetches and stores fields of a context is
        machine-independent but parameterized by this description
        (paper Sec. 4.3).
        """
        fields = [ContextField("pc", 0, 4, "pc")]
        offset = 4
        for i in range(self.nregs):
            fields.append(ContextField("r%d" % i, offset, 4, "reg"))
            offset += 4
        fsize = 10 if self.has_f80 else 8
        for i in range(self.nfregs):
            fields.append(ContextField("f%d" % i, offset, fsize, "freg"))
            offset += fsize
        fields.append(ContextField("flags", offset, 4, "flags"))
        return fields

    def context_size(self) -> int:
        fields = self.context_fields()
        last = fields[-1]
        return last.offset + last.size

    # -- code ------------------------------------------------------------

    def encode(self, insn: Insn) -> bytes:
        raise NotImplementedError

    def decode(self, mem, address: int) -> Insn:
        raise NotImplementedError

    def execute(self, cpu, insn: Insn) -> None:
        raise NotImplementedError

    def insn_length(self, insn: Insn) -> int:
        """Encoded length in bytes (before encoding, for layout)."""
        raise NotImplementedError

    # -- block dispatch (machine-dependent data for the execution engine)

    #: Opcodes that end a decoded basic block: control transfers,
    #: traps, and syscalls — anything that may set the pc to something
    #: other than the next sequential instruction, or hand control to
    #: code outside the simulated ISA.  ``None`` (the conservative
    #: default for an arch that supplies no classification) makes
    #: *every* instruction a block of one, which is step-equivalent.
    block_enders: Optional[frozenset] = None

    #: Opcodes whose execution may write target memory.  ``None`` (the
    #: conservative default) means *any* instruction may write.  The
    #: block engine only re-checks its code-cache generation after
    #: instructions that can write, so this set must be sound: listing
    #: too many ops costs a cheap check, missing one breaks
    #: self-modifying-code invalidation.
    mem_write_ops: Optional[frozenset] = None

    def is_block_end(self, insn: Insn) -> bool:
        enders = self.block_enders
        return True if enders is None else insn.op in enders

    def may_write_mem(self, insn: Insn) -> bool:
        ops = self.mem_write_ops
        return True if ops is None else insn.op in ops

    def compile_insn(self, insn: Insn, pc: int):
        """Return a prebuilt fast-path body ``f(cpu) -> None`` for this
        instruction at this pc, or None to fall back to
        :meth:`execute`.

        The contract is byte-identical equivalence with
        ``execute(cpu, insn)`` for an instruction decoded at ``pc``:
        the same register writes (including ``set_reg``'s masking,
        zero-register suppression, and ``_wrote_reg`` tracking for the
        delay-slot commit), the same memory and condition-code effects
        in the same order, the same faults with the same addresses —
        and it must leave ``cpu.pc`` at the next instruction exactly as
        execute would.  The engine supplies the step prologue/epilogue
        (pending-load commit, icount); bodies never touch those.  On a
        target with a load delay, an instruction that can raise (body
        or :meth:`execute`) must do so before it writes any register:
        the engine leaves ``_wrote_reg`` clear at a fault.
        """
        return None

    # -- conventions ------------------------------------------------------

    def loads(self) -> Sequence[str]:
        """Opcodes with a load delay slot (empty except rmips)."""
        return ()

    def __repr__(self) -> str:
        return "<arch %s>" % self.name


def to_u32(value: int) -> int:
    return value & 0xFFFFFFFF


def to_i32(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >= 1 << 31 else value


def to_i16(value: int) -> int:
    value &= 0xFFFF
    return value - (1 << 16) if value >= 1 << 15 else value


def to_i8(value: int) -> int:
    value &= 0xFF
    return value - (1 << 8) if value >= 1 << 7 else value
