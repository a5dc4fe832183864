"""Compiled segments are the per-op interpreter, chained.

An unobserved run executes straight-line code as compiled segments (see
"Unobserved runs" in :mod:`repro.isa.machine`).  These tests pin the
places where a segment could part from its ops run one by one: where a
budget ends, where a segment is entered, what it may contain, when it is
compiled again, and what its generated source may hold.  The observed
loop, which never runs compiled code, is the reference throughout.
"""

import pytest

from repro.compiler.clone import clone_module
from repro.ir import IRBuilder
from repro.ir.instructions import (
    BINARY_OPS,
    BinOp,
    Call,
    CheckpointStore,
    Jump,
    Move,
    RegionBoundary,
)
from repro.ir.values import Imm, Reg
from repro.isa.machine import Machine, MachineError, _compile_segment, _decode
from repro.isa.trace import Observer
from tests.isa.test_unobserved_identity import machine_state

QUANTA = (1, 7, 32)


def _mixed():
    """``main(seed)``: a loop whose blocks mix every op a segment may hold
    (arithmetic, inlined and called operators, loads, stores, checkpoints,
    boundaries, fences, atomics, I/O) with a call in mid-block."""
    b = IRBuilder("mixed")
    cells = b.module.alloc("cells", 8)
    with b.function("bump", params=["x"]) as f:
        f.emit(RegionBoundary(1))
        f.ret(f.add(f.rem(f.param(0), 5), f.div(f.param(0), -3)))
    with b.function("main", params=["seed"]) as f:
        acc = f.move(f.reg(), f.param(0))
        with f.for_range(9) as i:
            x = f.add(f.mul(acc, 31), i)
            slot = f.add(f.shl(f.and_(x, 7), 3), cells)
            old = f.load(slot)
            f.store(f.xor(old, f.shr(x, 2)), slot)
            f.emit(CheckpointStore(acc))
            f.emit(RegionBoundary(2))
            y = f.call("bump", [x], returns=True)
            f.add(acc, f.unop("neg", y), dst=acc)
            f.atomic("add", slot, acc)
            f.fence()
            f.io_write(1, f.cmp("slt", acc, old))
            f.atomic("max", cells, 8, offset=8)
        f.ret(acc)
    return b.module


def _spawned(module, spawns, quantum=32):
    machine = Machine(module, quantum=quantum)
    for func, args in spawns:
        machine.spawn(func, args)
    return machine


def _run_both(module, spawns, quantum, max_steps):
    """(unobserved, observed) machines after ``run(max_steps=...)``."""
    machines = []
    for observer in (None, Observer()):
        machine = _spawned(module, spawns, quantum)
        try:
            machine.run(observer, max_steps=max_steps)
        except MachineError as err:
            assert "max_steps" in str(err)
        machines.append(machine)
    return machines


@pytest.mark.parametrize(
    "spawns", [[("main", [5])], [("main", [5]), ("main", [-2])]], ids=["1", "2"]
)
def test_max_steps_lands_on_every_offset(spawns):
    """Every budget from 1 to past the end: a chain of segments may use
    it up exactly, stop short of a segment that does not fit, or leave a
    tail to run op by op."""
    module = _mixed()
    total = _spawned(module, spawns).run()
    block_starts = 0
    for quantum in QUANTA:
        for max_steps in range(1, total + 2):
            unobserved, observed = _run_both(module, spawns, quantum, max_steps)
            assert machine_state(unobserved) == machine_state(observed), (
                quantum,
                max_steps,
            )
            block_starts += unobserved.harts[0].index == 0
    assert block_starts  # some budgets end exactly on a segment's end


class _Boundaries(Observer):
    """Records every boundary's continuation with the registers and
    memory at that point."""

    def __init__(self, machine):
        self.machine = machine
        self.resumes = []

    def on_boundary(self, core, region_id, continuation):
        regs = list(self.machine.harts[core].regs)
        self.resumes.append((continuation, regs, dict(self.machine.memory)))


def test_resume_at_mid_block_continuations():
    """A continuation points after a boundary, mid-block, possibly inside
    a callee: the unobserved run enters a segment there."""
    module = _mixed()
    machine = _spawned(module, [("main", [5])])
    recorder = _Boundaries(machine)
    machine.run(recorder)
    resumes = [r for r in recorder.resumes if r[0].index > 0]
    assert any(c.callstack for c, _, _ in resumes)
    assert any(not c.callstack for c, _, _ in resumes)
    for continuation, regs, memory in resumes:
        finished = []
        for observer in (None, Observer()):
            resumed = Machine(module)
            resumed.memory = dict(memory)
            resumed.resume(0, continuation, regs)
            resumed.run(observer)
            finished.append(machine_state(resumed))
        assert finished[0] == finished[1], continuation
        assert finished[0][0] == machine.memory  # the run's own ending


def test_call_in_the_middle_of_a_block():
    module = _mixed()
    (unobserved, observed) = _run_both(module, [("main", [5])], 32, 10**6)
    assert machine_state(unobserved) == machine_state(observed)
    body = next(
        block
        for block in module.functions["main"].blocks.values()
        if any(type(i) is Call for i in block.instrs)
    )
    call = next(k for k, i in enumerate(body.instrs) if type(i) is Call)
    assert 0 < call < len(body.instrs) - 1
    length, _, next_index = body.segments[0]
    assert (length, next_index) == (call, call)  # stops before the call
    length, _, next_index = body.segments[call + 1]  # entered on return
    assert next_index == 0 and call + 1 + length == len(body.instrs)
    assert body.segments[call][1] is None  # a call starts no segment


def test_atomics_and_io_inside_a_segment():
    b = IRBuilder("rmw")
    cells = b.module.alloc("cells", 2)
    with b.function("main", params=["k"]) as f:
        old = f.atomic("add", cells, f.param(0))
        f.io_write(4, old)
        swapped = f.atomic("swap", cells, 99, offset=8)
        f.io_write(5, f.add(swapped, old))
        f.atomic("xor", cells, old, dst=old)
        f.io_write(6, old)
        f.ret(old)
    module = b.module
    module.initial_data[cells] = 40
    module.initial_data[cells + 8] = -1
    unobserved, observed = _run_both(module, [("main", [2])], 32, 10**6)
    assert machine_state(unobserved) == machine_state(observed)
    assert unobserved.io_log == [(0, 4, 40), (0, 5, 39), (0, 6, 42)]
    (block,) = module.functions["main"].blocks.values()
    length, fn, _ = block.segments[0]
    assert length == len(block.instrs) - 1  # everything before the Ret


class TestRecompilation:
    def _module(self):
        b = IRBuilder("m")
        with b.function("main") as f:
            f.ret(f.add(f.li(20), f.move(f.reg(), 22)))
        return b.module

    def _run(self, module):
        return Machine(module).run_function("main")

    def _edit(self, module, edit):
        block = module.functions["main"].entry
        assert self._run(module) == 42
        compiled = block.segments
        assert compiled is not None and compiled[0][1] is not None
        edit(block.instrs)
        return block, compiled

    def test_replaced_instruction_is_recompiled(self):
        module = self._module()

        def replace(instrs):
            k, add = next((k, i) for k, i in enumerate(instrs) if type(i) is BinOp)
            instrs[k] = BinOp("mul", add.dst, add.lhs, add.rhs)

        block, compiled = self._edit(module, replace)
        assert self._run(module) == 20 * 22
        assert block.segments is not compiled

    def test_inserted_and_deleted_instructions_are_recompiled(self):
        module = self._module()

        def insert(instrs):
            k, add = next((k, i) for k, i in enumerate(instrs) if type(i) is BinOp)
            instrs.insert(k + 1, Move(add.dst, Imm(7)))

        block, compiled = self._edit(module, insert)
        assert self._run(module) == 7
        inserted = block.segments
        assert inserted is not compiled
        del block.instrs[block.instrs.index(Move(block.instrs[-1].value, Imm(7)))]
        assert self._run(module) == 42
        assert block.segments is not inserted

    def test_unedited_blocks_keep_their_segments(self):
        module = self._module()
        block = module.functions["main"].entry
        assert self._run(module) == 42
        compiled = block.segments
        assert self._run(module) == 42
        assert block.segments is compiled

    def test_clone_starts_uncompiled(self):
        module = self._module()
        assert self._run(module) == 42
        clone = clone_module(module)
        block = clone.functions["main"].entry
        assert block.segments is None and block.decoded is None
        assert self._run(clone) == 42
        assert block.segments is not module.functions["main"].entry.segments


@pytest.mark.parametrize(
    "label",
    [
        "it's",
        'say "hi"',
        "back\\slash",
        "line\nbreak",
        "'); raise SystemExit('",
        '"""',
    ],
)
def test_labels_with_quotes_and_backslashes_compile_safely(label):
    b = IRBuilder("labels")
    out = b.module.alloc("out", 1)
    with b.function("main", params=["n"]) as f:
        i = f.li(0)
        f.start_block(label)
        f.add(i, 1, dst=i)
        f.store(i, out)
        f.branch(f.cmp("slt", i, f.param(0)), label, "done")
        f.start_block("done")
        f.ret(i)
    module = b.module
    unobserved, observed = _run_both(module, [("main", [6])], 32, 10**6)
    assert machine_state(unobserved) == machine_state(observed)
    assert unobserved.harts[0].result == 6
    block = module.functions["main"].blocks[label]
    assert block.segments[0][1] is not None


#: Words at the edges of the range, and ints outside it (a memory word
#: written from outside the program need not be in range).
EDGE_VALUES = (
    0, 1, -1, 2, 63, 64, 65, -64, 1 << 62, (1 << 63) - 1, -(1 << 63),
    1 << 63, -(1 << 63) - 1, (1 << 64) + 5, -(1 << 70), 0x9E3779B97F4A7C15,
)


@pytest.mark.parametrize("name", sorted(BINARY_OPS))
def test_every_binary_operator_matches_its_table_entry(name):
    """Inlined expressions and namespace calls alike, with register and
    immediate operands, on values in and out of the word range."""
    fn = BINARY_OPS[name]
    ops = (
        _decode(BinOp(name, Reg(2), Reg(0), Reg(1))),
        _decode(BinOp(name, Reg(3), Reg(0), Imm(-3))),
        _decode(BinOp(name, Reg(4), Imm(70), Reg(1))),
        _decode(Jump("next")),
    )
    length, segment, next_index = _compile_segment(ops, "here", 0)
    assert (length, next_index) == (4, 0)
    for a in EDGE_VALUES:
        for b in EDGE_VALUES:
            regs = [a, b, 0, 0, 0]
            assert segment(regs, {}, 0, [], 0) == "next"
            assert regs == [a, b, fn(a, b), fn(a, -3), fn(70, b)], (a, b)
