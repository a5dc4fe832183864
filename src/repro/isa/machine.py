"""Functional execution of IR modules.

The :class:`Machine` runs one hart per core over a shared, word-granular
memory, delivering events to an :class:`~repro.isa.trace.Observer` as
instructions retire.  It is *architecturally exact*: the Capri architecture
never changes what programs compute, only how stores become persistent, so
this machine is the reference that crash-recovery tests compare against.

Calls and recovery
------------------
Functions have private register namespaces; on ``Call`` the machine
suspends the caller frame and starts the callee with arguments in
``r0..rN-1``.  Two things bridge this to the paper's recovery story:

* **Argument checkpoints.**  Real Capri checkpoints a callee's live-in
  registers on the caller side (the arg registers' last defs precede the
  call boundary).  The machine mirrors this by emitting checkpoint events
  for every argument at call time, into the *callee-depth* slots.
* **Continuations.**  At every region boundary the machine snapshots the
  resume point: (function, label, index-after-boundary) plus the suspended
  caller frames.  In a real system the caller frames live in stack memory,
  which WSP makes persistent; the continuation snapshot is our image of
  that persistent stack (see DESIGN.md).  The *interrupted* frame's
  registers are deliberately **not** in the snapshot — recovery must
  rebuild them from checkpoint storage plus recovery blocks, so the Capri
  compiler's checkpoint analyses are load-bearing in our correctness tests.

Unobserved runs
---------------
``run()`` without an observer (how a fault campaign resumes every
recovered state) skips the event stream altogether: no callbacks, no
continuations, and a lone hart runs without quantum slicing.  Its
straight-line code runs as *compiled segments*: each stretch of a block
from an entry point to the block's branch or jump (or to the next call,
return or halt) becomes one generated Python function, compiled on first
entry and cached on the block.  The observed loop never runs compiled
code and stays the reference.  An unobserved run leaves memory, the I/O
log and the harts (registers and caller frames included) exactly as an
observed run does (``tests/isa/test_unobserved_identity.py``,
``tests/isa/test_compiled_segments.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.function import Function
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import (
    ATOMIC_OPS,
    BINARY_OPS,
    UNARY_OPS,
    AtomicRMW,
    BinOp,
    Branch,
    Call,
    CheckpointStore,
    Fence,
    Halt,
    Instr,
    IOWrite,
    Jump,
    Load,
    Move,
    Nop,
    RegionBoundary,
    Ret,
    Store,
    UnOp,
)
from repro.ir.module import MAX_CALL_DEPTH, Module, ckpt_slot_addr
from repro.ir.values import Operand, Reg, wrap_word
from repro.isa.trace import Observer


class MachineError(Exception):
    """Raised on runtime errors: step-limit overrun, stack overflow, etc."""


#: Immutable snapshot of one suspended caller frame.
#: (function name, resume label, resume index, regs tuple, ret-dst index | None)
FrameSnapshot = Tuple[str, str, int, Tuple[int, ...], Optional[int]]


@dataclass(frozen=True)
class Continuation:
    """A resume point captured at a region boundary.

    ``label``/``index`` address the first instruction of the interrupted
    region (the instruction *after* the boundary).  ``callstack`` holds the
    suspended caller frames, innermost last.
    """

    func_name: str
    label: str
    index: int
    callstack: Tuple[FrameSnapshot, ...]

    @property
    def depth(self) -> int:
        """Call depth of the interrupted frame."""
        return len(self.callstack)


class Frame:
    """A suspended caller awaiting a ``Ret``.

    Its ``regs`` are not written until it is popped, so its snapshot is
    built once, at the first boundary that needs it.
    """

    __slots__ = ("func", "label", "index", "regs", "ret_reg", "_snapshot")

    def __init__(
        self,
        func: Function,
        label: str,
        index: int,
        regs: List[int],
        ret_reg: Optional[int],
    ) -> None:
        self.func = func
        self.label = label
        self.index = index
        self.regs = regs
        self.ret_reg = ret_reg
        self._snapshot: Optional[FrameSnapshot] = None

    def snapshot(self) -> FrameSnapshot:
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = (
                self.func.name, self.label, self.index, tuple(self.regs), self.ret_reg
            )
        return snap


class Hart:
    """One hardware thread of execution (one per core)."""

    __slots__ = (
        "core_id",
        "func",
        "label",
        "index",
        "regs",
        "callstack",
        "halted",
        "started",
        "spawn_args",
        "spawn_func",
        "retired",
        "result",
    )

    def __init__(self, core_id: int, func: Function, args: Sequence[int]) -> None:
        self.core_id = core_id
        self.func = func
        self.label = func.entry.label
        self.index = 0
        self.regs: List[int] = [0] * func.num_regs
        for i, a in enumerate(args):
            self.regs[i] = wrap_word(a)
        self.callstack: List[Frame] = []
        self.halted = False
        self.started = False
        self.spawn_func = func.name
        self.spawn_args = tuple(wrap_word(a) for a in args)
        self.retired = 0
        #: value of the top-level ``Ret`` that halted this hart (0 if none)
        self.result = 0

    @property
    def depth(self) -> int:
        return len(self.callstack)

    def continuation(self) -> Continuation:
        """Snapshot the current position (used at region boundaries)."""
        return Continuation(
            func_name=self.func.name,
            label=self.label,
            index=self.index,
            callstack=tuple(f.snapshot() for f in self.callstack),
        )


# -- pre-decoded blocks ---------------------------------------------------------
#
# The interpreter never looks at an ``Instr`` while it runs.  Each basic
# block is decoded once into a tuple of *ops*, ``(opcode, retire_name,
# *operands)``: register operands become register indices, immediates
# become ints, operators become their one-call word functions, and an
# operation whose inputs are all immediates is folded to a constant move.
# Operand pairs ``(is_reg, x)`` remain only on the less frequent memory,
# I/O and atomic ops.  The loop tests opcodes most frequent first; the
# numbering puts every op that can make an observer callback at
# ``_LOAD`` or above, so a batching observer's pending retirements are
# handed over on one comparison.

(
    _BIN_RI,
    _BIN_RR,
    _BRANCH,
    _JUMP,
    _UNOP,
    _MOVE_I,
    _MOVE_R,
    _BIN_IR,
    _NOP,
    _UNKNOWN,
    _LOAD,
    _STORE,
    _CKPT,
    _BOUNDARY,
    _CALL,
    _RET,
    _ATOMIC,
    _FENCE,
    _IO,
    _HALT,
) = range(20)


def _operand(op: Operand) -> Tuple[bool, int]:
    return (True, op.index) if type(op) is Reg else (False, op.value)


def _decode(instr: Instr) -> tuple:
    """One instruction as an op tuple (see the section comment)."""
    cls = type(instr)
    name = cls.__name__
    if cls is BinOp:
        fn = BINARY_OPS[instr.op]
        lhs_reg, a = _operand(instr.lhs)
        rhs_reg, b = _operand(instr.rhs)
        dst = instr.dst.index
        if lhs_reg and rhs_reg:
            return (_BIN_RR, name, fn, dst, a, b)
        if lhs_reg:
            return (_BIN_RI, name, fn, dst, a, b)
        if rhs_reg:
            return (_BIN_IR, name, fn, dst, a, b)
        return (_MOVE_I, name, dst, fn(a, b))
    if cls is Move:
        is_reg, src = _operand(instr.src)
        return (_MOVE_R if is_reg else _MOVE_I, name, instr.dst.index, src)
    if cls is Load:
        return (_LOAD, name, instr.dst.index, *_operand(instr.addr), instr.offset)
    if cls is Store:
        return (
            _STORE, name, *_operand(instr.value), *_operand(instr.addr), instr.offset
        )
    if cls is Branch:
        is_reg, cond = _operand(instr.cond)
        if is_reg:
            return (_BRANCH, name, cond, instr.if_true, instr.if_false)
        return (_JUMP, name, instr.if_true if cond != 0 else instr.if_false)
    if cls is Jump:
        return (_JUMP, name, instr.target)
    if cls is UnOp:
        fn = UNARY_OPS[instr.op]
        is_reg, src = _operand(instr.src)
        if is_reg:
            return (_UNOP, name, fn, instr.dst.index, src)
        return (_MOVE_I, name, instr.dst.index, fn(src))
    if cls is RegionBoundary:
        return (_BOUNDARY, name, instr.region_id)
    if cls is CheckpointStore:
        # The slot's offset within the frame (ckpt_slot_addr range-checks
        # the register here, once, instead of on every execution).
        reg = instr.src.index
        return (_CKPT, name, reg, ckpt_slot_addr(0, reg) - ckpt_slot_addr(0, 0))
    if cls is Call:
        return (_CALL, name, instr)
    if cls is Ret:
        return (_RET, name, instr)
    if cls is AtomicRMW:
        return (
            _ATOMIC, name, ATOMIC_OPS[instr.op], instr.dst.index,
            *_operand(instr.addr), instr.offset, *_operand(instr.value),
        )
    if cls is Fence:
        return (_FENCE, name)
    if cls is IOWrite:
        return (_IO, name, instr.port, *_operand(instr.value))
    if cls is Halt:
        return (_HALT, name)
    if cls is Nop:
        return (_NOP, name)
    return (_UNKNOWN, name, instr)


def _ops(block: BasicBlock) -> tuple:
    """``block``'s decoded ops, decoding it on first use or after an edit.

    The cache keeps a copy of the instruction list it was decoded from;
    an insertion, deletion or replacement in ``block.instrs`` makes the
    two lists compare unequal and forces a fresh decode.  A machine asks
    once per block, the first time it enters the block's function
    (:meth:`Machine._code_table`, :meth:`Machine._segment_table`).
    """
    cached = block.decoded
    if cached is None or cached[0] != block.instrs:
        cached = block.decoded = (
            list(block.instrs),
            tuple(_decode(instr) for instr in block.instrs),
        )
    return cached[1]


# -- compiled segments ----------------------------------------------------------
#
# An unobserved run executes a block's straight-line stretches as compiled
# Python functions.  A *segment* starts at an entry index (a block start,
# a resume continuation's mid-block index, or the instruction after a
# call) and runs to the block's branch or jump, stopping early before a
# call, return, halt or unknown op.  Its function takes ``(regs, memory,
# ckpt_frame, io_log, core)``: the registers it touches live in locals,
# loaded once and written back before it returns the label to go on at.
# The source holds only ints, register indices and ``repr()``-quoted
# labels; every callable is passed in the function's namespace.  Why a
# segment is exactly its ops run one by one: INTERNALS §1.2.

_HALF = 1 << 63
_MASK = (1 << 64) - 1

#: ``BINARY_OPS`` entries inlined in segments: the Python expression and
#: whether its value still needs the word wrap (``{a}`` and ``{b}`` are
#: register locals or int literals).
_INLINE = {
    BINARY_OPS[name]: form
    for name, form in {
        "add": ("{a} + {b}", True),
        "sub": ("{a} - {b}", True),
        "mul": ("{a} * {b}", True),
        "and": ("{a} & {b}", True),
        "or": ("{a} | {b}", True),
        "xor": ("{a} ^ {b}", True),
        "shl": ("{a} << ({b} & 63)", True),
        "shr": ("{a} >> ({b} & 63)", True),
        "slt": ("1 if {a} < {b} else 0", False),
        "sle": ("1 if {a} <= {b} else 0", False),
        "sgt": ("1 if {a} > {b} else 0", False),
        "sge": ("1 if {a} >= {b} else 0", False),
        "seq": ("1 if {a} == {b} else 0", False),
        "sne": ("1 if {a} != {b} else 0", False),
    }.items()
}
#: The wrap of ``BINARY_OPS``, applied only when ``{v}`` is out of range:
#: ``((v + _HALF) & _MASK) - _HALF`` is ``v`` itself for every word.
_WRAP = (
    f"if not {-_HALF} <= {{v}} < {_HALF}: "
    f"{{v}} = (({{v}} + {_HALF}) & {_MASK}) - {_HALF}"
)


def _int(value: int) -> str:
    """An int constant as segment source text."""
    if type(value) is not int:
        raise TypeError(f"segment constant {value!r} is not an int")
    return f"({value})" if value < 0 else str(value)


#: What an entry index that starts no segment (a call, return, halt or
#: unknown op) maps to: its length fits no budget.
_NO_SEGMENT = (math.inf, None, None)


def _compile_segment(ops: tuple, label: str, start: int) -> tuple:
    """The segment of block ``label`` entered at ``start``, as ``(length,
    function, next index)``, or :data:`_NO_SEGMENT`."""
    body: List[str] = []
    namespace: Dict[str, object] = {}
    loaded: List[int] = []  # registers read before the segment writes them
    written: Dict[int, None] = {}  # registers it writes, in order

    def reg(r: int) -> str:
        if r not in written and r not in loaded:
            loaded.append(r)
        return f"r{r}"

    def operand(is_reg: bool, x: int) -> str:
        return reg(x) if is_reg else _int(x)

    def address(base_reg: bool, base: int, offset: int) -> str:
        if not base_reg:
            return _int(base + offset)
        return f"{reg(base)} + {_int(offset)}" if offset else reg(base)

    def call(fn: object) -> str:
        name = f"f{len(namespace)}"
        namespace[name] = fn
        return name

    def assign(dst: int, expr: str) -> None:
        body.append(f"r{dst} = {expr}")
        written[dst] = None

    index = start
    ret = None  # the returned label, as an expression
    while ret is None and index < len(ops):
        op = ops[index]
        k = op[0]
        if k == _CALL or k == _RET or k == _HALT or k == _UNKNOWN:
            break
        index += 1
        if k == _BIN_RI or k == _BIN_RR or k == _BIN_IR:
            _, _, fn, dst, a, b = op
            a = _int(a) if k == _BIN_IR else reg(a)
            b = _int(b) if k == _BIN_RI else reg(b)
            form = _INLINE.get(fn)
            if form is None:
                assign(dst, f"{call(fn)}({a}, {b})")
            else:
                expr, wraps = form
                assign(dst, expr.format(a=a, b=b))
                if wraps:
                    body.append(_WRAP.format(v=f"r{dst}"))
        elif k == _MOVE_I:
            assign(op[2], _int(op[3]))
        elif k == _MOVE_R:
            assign(op[2], reg(op[3]))
        elif k == _UNOP:
            assign(op[3], f"{call(op[2])}({reg(op[4])})")
        elif k == _LOAD:
            _, _, dst, base_reg, base, offset = op
            assign(dst, f"memory.get({address(base_reg, base, offset)}, 0)")
        elif k == _STORE:
            _, _, value_reg, value, base_reg, base, offset = op
            value = operand(value_reg, value)
            body.append(f"memory[{address(base_reg, base, offset)}] = {value}")
        elif k == _CKPT:
            slot = f"ckpt_frame + {_int(op[3])}" if op[3] else "ckpt_frame"
            body.append(f"memory[{slot}] = {reg(op[2])}")
        elif k == _ATOMIC:
            _, _, fn, dst, base_reg, base, offset, value_reg, value = op
            body.append(f"addr = {address(base_reg, base, offset)}")
            body.append("old = memory.get(addr, 0)")
            value = operand(value_reg, value)
            body.append(f"memory[addr] = {call(fn)}(old, {value})")
            assign(dst, "old")
        elif k == _IO:
            _, _, port, value_reg, value = op
            value = operand(value_reg, value)
            body.append(f"io_log.append((core, {_int(port)}, {value}))")
        elif k == _BRANCH:
            ret = f"{op[3]!r} if {reg(op[2])} != 0 else {op[4]!r}"
        elif k == _JUMP:
            ret = repr(op[2])
        # A boundary, fence or nop changes nothing an unobserved run keeps.
    if index == start:
        return _NO_SEGMENT
    next_index = index
    if ret is None:
        ret = repr(label)
    else:
        next_index = 0
    source = "\n    ".join(
        ["def segment(regs, memory, ckpt_frame, io_log, core):"]
        + [f"r{r} = regs[{r}]" for r in loaded]
        + body
        + [f"regs[{r}] = r{r}" for r in written]
        + [f"return {ret}"]
    )
    exec(compile(source, "<segment>", "exec"), namespace)
    return index - start, namespace["segment"], next_index


class _Segments(dict):
    """One decode's compiled segments by entry index, compiled on first use."""

    __slots__ = ("ops", "label")

    def __init__(self, ops: tuple, label: str) -> None:
        super().__init__()
        self.ops = ops
        self.label = label

    def __missing__(self, index: int) -> tuple:
        segment = self[index] = _compile_segment(self.ops, self.label, index)
        return segment


class Machine:
    """Executes a module's harts over shared memory, emitting events.

    Parameters
    ----------
    module:
        The (possibly Capri-instrumented) program.
    quantum:
        Instructions executed per hart per scheduling turn.  Round-robin
        with a fixed quantum keeps multi-hart runs deterministic.
    """

    def __init__(self, module: Module, quantum: int = 32) -> None:
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.module = module
        self.quantum = quantum
        self.memory: Dict[int, int] = dict(module.initial_data)
        self.harts: List[Hart] = []
        self.total_retired = 0
        #: External-device output log: (core, port, value) in issue order.
        #: I/O effects leave the persistence domain — a crash cannot undo
        #: them (the Section 3.3 open problem); tests use this log to
        #: check at-least-once delivery across failures.
        self.io_log: List[Tuple[int, int, int]] = []
        #: Per function name: decoded ops (observed runs) or compiled
        #: segments (unobserved runs), by label.
        self._code: Dict[str, Dict[str, tuple]] = {}
        self._segments: Dict[str, Dict[str, _Segments]] = {}

    # -- hart management -----------------------------------------------------

    def spawn(self, func_name: str, args: Sequence[int] = ()) -> Hart:
        """Create a hart running ``func_name(*args)`` on the next core id."""
        func = self.module.functions[func_name]
        if len(args) != func.num_params:
            raise MachineError(
                f"spawn {func_name!r}: {len(args)} args, expected {func.num_params}"
            )
        hart = Hart(len(self.harts), func, args)
        self.harts.append(hart)
        return hart

    def resume(
        self, core_id: int, continuation: Continuation, regs: Sequence[int]
    ) -> Hart:
        """Install a recovered hart at ``continuation`` with register file ``regs``.

        Used by the crash-recovery protocol: ``regs`` comes from the NVM
        checkpoint storage (plus recovery-block reconstruction) and the
        caller frames from the continuation snapshot.
        """
        func = self.module.functions[continuation.func_name]
        hart = Hart(core_id, func, ())
        hart.label = continuation.label
        hart.index = continuation.index
        hart.regs = [wrap_word(v) for v in regs]
        if len(hart.regs) < func.num_regs:
            hart.regs.extend([0] * (func.num_regs - len(hart.regs)))
        hart.callstack = [
            Frame(
                self.module.functions[name],
                label,
                index,
                list(saved_regs),
                ret_reg,
            )
            for (name, label, index, saved_regs, ret_reg) in continuation.callstack
        ]
        hart.started = True  # no spawn-time events on resume
        while len(self.harts) <= core_id:
            self.harts.append(None)  # type: ignore[arg-type]
        self.harts[core_id] = hart
        return hart

    # -- memory ----------------------------------------------------------------

    def read_word(self, addr: int) -> int:
        return self.memory.get(addr, 0)

    def write_word(self, addr: int, value: int) -> None:
        self.memory[addr] = wrap_word(value)

    # -- code tables -----------------------------------------------------------

    def _code_table(self, func: Function) -> Dict[str, tuple]:
        """``func``'s decoded blocks by label.  Each block is checked
        against its decode once per machine, here, on first entry."""
        table = self._code.get(func.name)
        if table is None:
            table = self._code[func.name] = {
                label: _ops(block) for label, block in func.blocks.items()
            }
        return table

    def _segment_table(self, func: Function) -> Dict[str, _Segments]:
        """:meth:`_code_table` for unobserved runs: ``func``'s compiled
        segments by label, each kept on its block beside the decode it was
        compiled from."""
        table = self._segments.get(func.name)
        if table is None:
            table = self._segments[func.name] = {}
            for label, block in func.blocks.items():
                ops = _ops(block)
                segments = block.segments
                if segments is None or segments.ops is not ops:
                    segments = block.segments = _Segments(ops, label)
                table[label] = segments
        return table

    # -- execution ----------------------------------------------------------------

    def run(
        self,
        observer: Optional[Observer] = None,
        max_steps: int = 50_000_000,
    ) -> int:
        """Round-robin execute all harts until they halt; return retired count.

        With ``observer=None`` the run is *unobserved*: it takes
        :meth:`_run_unobserved`, which computes the same memory, I/O log,
        hart states and retired counts as an observed run without making
        a callback or building a continuation, running straight-line
        code as compiled segments.  Quanta only decide how harts
        interleave, so an unobserved lone hart runs its whole remaining
        budget in one turn; two or more live harts keep the round-robin
        quanta of an observed run.

        A machine checks each block against its decode the first time it
        enters the block's function, so an edit to a block is seen by
        the next machine, not in the middle of a run.

        Raises :class:`MachineError` if ``max_steps`` instructions retire
        without completion (runaway loop guard).  On any other
        :class:`MachineError` (an unknown callee, a call-stack overflow)
        an unobserved run's retired counts include every instruction
        before the raising one; an observed run's leave out the
        interrupted quantum.  An asynchronous exception (such as
        ``KeyboardInterrupt``) that lands inside a compiled segment
        leaves that segment's memory writes up to that point done, but
        its register writes undone, and the hart's position and retired
        counts where the segment began: the machine is then only fit to
        be thrown away.
        """
        steps_left = max_steps
        live = [h for h in self.harts if h is not None and not h.halted]
        while live:
            quantum = self.quantum
            if observer is None and len(live) == 1:
                quantum = steps_left
            progressed = False
            for hart in live:
                if hart.halted:
                    continue
                budget = min(quantum, steps_left)
                if observer is None:
                    n = self._run_unobserved(hart, budget)
                else:
                    n = self._run_quantum(hart, observer, budget)
                steps_left -= n
                progressed = progressed or n > 0
                if steps_left <= 0:
                    raise MachineError(f"machine exceeded max_steps={max_steps}")
            live = [h for h in live if not h.halted]
            if live and not progressed:
                raise MachineError("no hart can make progress")
        return self.total_retired

    def _start_hart(self, hart: Hart, obs: Optional[Observer]) -> None:
        """Write the spawn-argument checkpoints and, when observed, emit
        their events and an implicit boundary.

        The implicit boundary (region id -1) gives crash recovery a
        committed resume point covering "crash before the first compiler
        boundary commits"; its continuation is simply the spawn point.
        """
        hart.started = True
        core = hart.core_id
        for i, value in enumerate(hart.spawn_args):
            addr = ckpt_slot_addr(core, i, 0)
            self.memory[addr] = value
            if obs is not None:
                obs.on_ckpt(core, i, value, addr)
        if obs is not None:
            obs.on_boundary(core, -1, hart.continuation())

    def _run_quantum(self, hart: Hart, obs: Observer, budget: int) -> int:
        """Execute up to ``budget`` instructions on ``hart``.

        The position lives in locals and is written back to ``hart`` before
        every callback that reads it (boundaries, calls, returns) and on
        every exit.  If a callback raises, the hart is left where the
        raising instruction left it, and the quantum's instructions are
        not added to the retired counts.

        A ``retire_batching`` observer gets no ``on_retire``: the loop
        counts retirements and hands the pending count to
        ``on_retire_batch`` before any other callback, at the end of the
        quantum, and on raise (the raising instruction included, as its
        ``on_retire`` would have been).
        """
        if budget <= 0:
            return 0
        if not hart.started:
            self._start_hart(hart, obs)
        if hart.halted:
            return 0
        memory = self.memory
        core = hart.core_id
        on_retire = obs.on_retire
        batching = obs.retire_batching
        if batching:
            on_retire_batch = obs.on_retire_batch
        charged = 0  # retirements of this quantum already handed over
        on_load = obs.on_load
        on_store = obs.on_store
        on_ckpt = obs.on_ckpt
        regs = hart.regs
        code_of = self._code_table(hart.func)
        label = hart.label
        index = hart.index
        ckpt_frame = ckpt_slot_addr(core, 0, len(hart.callstack))
        code = code_of[label]
        executed = budget
        try:
            for n in range(budget):
                op = code[index]
                k = op[0]
                if not batching:
                    on_retire(core, op[1])
                elif k >= _LOAD:
                    pending = n + 1 - charged
                    charged = n + 1
                    on_retire_batch(core, pending)
                if k == _BIN_RI:
                    regs[op[3]] = op[2](regs[op[4]], op[5])
                    index += 1
                elif k == _BIN_RR:
                    regs[op[3]] = op[2](regs[op[4]], regs[op[5]])
                    index += 1
                elif k == _LOAD:
                    _, _, dst, base_reg, base, offset = op
                    addr = (regs[base] if base_reg else base) + offset
                    regs[dst] = memory.get(addr, 0)
                    on_load(core, addr)
                    index += 1
                elif k == _STORE:
                    _, _, value_reg, value, base_reg, base, offset = op
                    if value_reg:
                        value = regs[value]
                    addr = (regs[base] if base_reg else base) + offset
                    old = memory.get(addr, 0)
                    memory[addr] = value
                    on_store(core, addr, value, old)
                    index += 1
                elif k == _BRANCH:
                    label = op[3] if regs[op[2]] != 0 else op[4]
                    index = 0
                    code = code_of[label]
                elif k == _JUMP:
                    label = op[2]
                    index = 0
                    code = code_of[label]
                elif k == _CKPT:
                    reg = op[2]
                    value = regs[reg]
                    addr = ckpt_frame + op[3]
                    memory[addr] = value
                    on_ckpt(core, reg, value, addr)
                    index += 1
                elif k == _BOUNDARY:
                    # The continuation points at the *next* instruction:
                    # the first instruction of the region this opens.
                    index += 1
                    hart.label = label
                    hart.index = index
                    obs.on_boundary(core, op[2], hart.continuation())
                elif k == _UNOP:
                    regs[op[3]] = op[2](regs[op[4]])
                    index += 1
                elif k == _MOVE_I:
                    regs[op[2]] = op[3]
                    index += 1
                elif k == _MOVE_R:
                    regs[op[2]] = regs[op[3]]
                    index += 1
                elif k == _BIN_IR:
                    regs[op[3]] = op[2](op[4], regs[op[5]])
                    index += 1
                elif k == _CALL or k == _RET:
                    # Frame switches go through the hart itself.
                    hart.label = label
                    hart.index = index
                    switch = self._do_call if k == _CALL else self._do_ret
                    switch(hart, op[2], obs)
                    if hart.halted:  # a top-level Ret
                        executed = n + 1
                        break
                    regs = hart.regs
                    code_of = self._code_table(hart.func)
                    label = hart.label
                    index = hart.index
                    ckpt_frame = ckpt_slot_addr(core, 0, len(hart.callstack))
                    code = code_of[label]
                elif k == _ATOMIC:
                    _, _, fn, dst, base_reg, base, offset, value_reg, value = op
                    addr = (regs[base] if base_reg else base) + offset
                    if value_reg:
                        value = regs[value]
                    old = memory.get(addr, 0)
                    new = fn(old, value)
                    memory[addr] = new
                    regs[dst] = old
                    obs.on_atomic(core, addr, new, old)
                    index += 1
                elif k == _FENCE:
                    obs.on_fence(core)
                    index += 1
                elif k == _IO:
                    _, _, port, value_reg, value = op
                    if value_reg:
                        value = regs[value]
                    self.io_log.append((core, port, value))
                    obs.on_io(core, port, value)
                    index += 1
                elif k == _HALT:
                    hart.halted = True
                    obs.on_halt(core)
                    executed = n + 1
                    break
                elif k == _NOP:
                    index += 1
                else:
                    raise MachineError(f"unknown instruction {op[2]!r}")
        except BaseException:
            hart.label = label
            hart.index = index
            if batching and n + 1 > charged:
                on_retire_batch(core, n + 1 - charged)
            raise
        hart.label = label
        hart.index = index
        hart.retired += executed
        self.total_retired += executed
        if batching and executed > charged:
            on_retire_batch(core, executed - charged)
        return executed

    def _run_unobserved(self, hart: Hart, budget: int) -> int:
        """:meth:`_run_quantum` without an observer.

        The same ops with the same effects on memory (data words and
        checkpoint slots alike), the I/O log and the hart, and the same
        retired counts, but no callback, no store's old-value read and
        no continuation.  Straight-line code runs as compiled segments
        chained while the next one fits the remaining budget; a budget
        tail and each call, return and halt run op by op.  If an
        instruction raises, the hart is left where it stood and every
        instruction before it is added to the retired counts.
        """
        if budget <= 0:
            return 0
        if not hart.started:
            self._start_hart(hart, None)
        if hart.halted:
            return 0
        memory = self.memory
        io_log = self.io_log
        core = hart.core_id
        regs = hart.regs
        segments_of = self._segment_table(hart.func)
        label = hart.label
        index = hart.index
        ckpt_frame = ckpt_slot_addr(core, 0, len(hart.callstack))
        left = budget
        try:
            while left:
                segments = segments_of[label]
                length, fn, next_index = segments[index]
                if length <= left:
                    label = fn(regs, memory, ckpt_frame, io_log, core)
                    index = next_index
                    left -= length
                    continue
                code = segments.ops
                if fn is not None:
                    # A budget tail: the segment's first ``left`` ops.
                    for index in range(index, index + left):
                        op = code[index]
                        k = op[0]
                        if k == _BIN_RI:
                            regs[op[3]] = op[2](regs[op[4]], op[5])
                        elif k == _BIN_RR:
                            regs[op[3]] = op[2](regs[op[4]], regs[op[5]])
                        elif k == _LOAD:
                            _, _, dst, base_reg, base, offset = op
                            regs[dst] = memory.get(
                                (regs[base] if base_reg else base) + offset, 0
                            )
                        elif k == _STORE:
                            _, _, value_reg, value, base_reg, base, offset = op
                            addr = (regs[base] if base_reg else base) + offset
                            memory[addr] = regs[value] if value_reg else value
                        elif k == _CKPT:
                            memory[ckpt_frame + op[3]] = regs[op[2]]
                        elif k == _UNOP:
                            regs[op[3]] = op[2](regs[op[4]])
                        elif k == _MOVE_I:
                            regs[op[2]] = op[3]
                        elif k == _MOVE_R:
                            regs[op[2]] = regs[op[3]]
                        elif k == _BIN_IR:
                            regs[op[3]] = op[2](op[4], regs[op[5]])
                        elif k == _ATOMIC:
                            _, _, rmw, dst, base_reg, base, offset, value_reg, v = op
                            addr = (regs[base] if base_reg else base) + offset
                            old = memory.get(addr, 0)
                            memory[addr] = rmw(old, regs[v] if value_reg else v)
                            regs[dst] = old
                        elif k == _IO:
                            _, _, port, value_reg, value = op
                            io_log.append(
                                (core, port, regs[value] if value_reg else value)
                            )
                        # A boundary, fence or nop: nothing to do.  The
                        # segment's branch or jump lies past the tail.
                    index += 1
                    left = 0
                    break
                op = code[index]
                k = op[0]
                if k == _CALL or k == _RET:
                    hart.label = label
                    hart.index = index
                    switch = self._do_call if k == _CALL else self._do_ret
                    switch(hart, op[2], None)
                    left -= 1
                    if hart.halted:  # a top-level Ret
                        break
                    regs = hart.regs
                    segments_of = self._segment_table(hart.func)
                    label = hart.label
                    index = hart.index
                    ckpt_frame = ckpt_slot_addr(core, 0, len(hart.callstack))
                elif k == _HALT:
                    hart.halted = True
                    left -= 1
                    break
                else:
                    raise MachineError(f"unknown instruction {op[2]!r}")
        finally:
            hart.label = label
            hart.index = index
            executed = budget - left
            hart.retired += executed
            self.total_retired += executed
        return executed

    def _do_call(self, hart: Hart, instr: Call, obs: Optional[Observer]) -> None:
        callee = self.module.functions.get(instr.callee)
        if callee is None:
            raise MachineError(f"call to unknown function {instr.callee!r}")
        if hart.depth + 1 >= MAX_CALL_DEPTH:
            raise MachineError(f"call stack overflow in {hart.func.name!r}")
        regs = hart.regs
        args = [
            regs[a.index] if type(a) is Reg else a.value for a in instr.args
        ]
        # Caller-side checkpoints of the callee's live-in (argument)
        # registers, written to the callee-depth slots (see module docs).
        callee_depth = hart.depth + 1
        core = hart.core_id
        for i, value in enumerate(args):
            addr = ckpt_slot_addr(core, i, callee_depth)
            self.memory[addr] = value
            if obs is not None:
                obs.on_ckpt(core, i, value, addr)
        hart.callstack.append(
            Frame(
                hart.func,
                hart.label,
                hart.index + 1,
                regs,
                instr.dst.index if instr.dst is not None else None,
            )
        )
        new_regs = [0] * callee.num_regs
        new_regs[: len(args)] = args
        hart.func = callee
        hart.label = callee.entry.label
        hart.index = 0
        hart.regs = new_regs

    def _do_ret(self, hart: Hart, instr: Ret, obs: Optional[Observer]) -> None:
        value = 0
        if instr.value is not None:
            v = instr.value
            value = hart.regs[v.index] if type(v) is Reg else v.value
        if not hart.callstack:
            hart.result = value
            hart.halted = True
            if obs is not None:
                obs.on_halt(hart.core_id)
            return
        frame = hart.callstack.pop()
        hart.func = frame.func
        hart.label = frame.label
        hart.index = frame.index
        hart.regs = frame.regs
        if frame.ret_reg is not None:
            hart.regs[frame.ret_reg] = value

    # -- conveniences for tests/harness ----------------------------------------

    def run_function(
        self,
        func_name: str,
        args: Sequence[int] = (),
        observer: Optional[Observer] = None,
        max_steps: int = 50_000_000,
    ) -> int:
        """Spawn a single hart, run to completion, return its return value
        (the value of the top-level ``Ret``; 0 if it halts otherwise)."""
        hart = self.spawn(func_name, args)
        self.run(observer, max_steps=max_steps)
        return hart.result
