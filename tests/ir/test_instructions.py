"""Tests for the instruction set: defs/uses, traits, operator semantics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    Jump,
    Load,
    Move,
    Nop,
    RegionBoundary,
    Ret,
    Store,
    UnOp,
    eval_atomic,
    eval_binop,
    eval_unop,
    is_memory_access,
    terminator_targets,
)
from repro.ir.values import Imm, Reg, wrap_word

words = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestDefsUses:
    def test_binop(self):
        i = BinOp("add", Reg(0), Reg(1), Imm(2))
        assert i.defs() == (Reg(0),)
        assert i.uses() == (Reg(1),)

    def test_binop_two_reg_uses(self):
        i = BinOp("mul", Reg(0), Reg(1), Reg(2))
        assert set(i.uses()) == {Reg(1), Reg(2)}

    def test_unop(self):
        i = UnOp("neg", Reg(5), Reg(6))
        assert i.defs() == (Reg(5),)
        assert i.uses() == (Reg(6),)

    def test_move_imm_has_no_uses(self):
        assert Move(Reg(0), Imm(1)).uses() == ()

    def test_load(self):
        i = Load(Reg(1), Reg(2), 8)
        assert i.defs() == (Reg(1),)
        assert i.uses() == (Reg(2),)

    def test_store_defines_nothing(self):
        i = Store(Reg(1), Reg(2))
        assert i.defs() == ()
        assert set(i.uses()) == {Reg(1), Reg(2)}

    def test_branch_uses_cond(self):
        assert Branch(Reg(3), "a", "b").uses() == (Reg(3),)

    def test_call_defs_uses(self):
        i = Call("f", (Reg(1), Imm(2)), Reg(0))
        assert i.defs() == (Reg(0),)
        assert i.uses() == (Reg(1),)

    def test_call_without_dst(self):
        assert Call("f", (Reg(1),)).defs() == ()

    def test_ret_value(self):
        assert Ret(Reg(2)).uses() == (Reg(2),)
        assert Ret().uses() == ()

    def test_atomic(self):
        i = AtomicRMW("add", Reg(0), Reg(1), Reg(2))
        assert i.defs() == (Reg(0),)
        assert set(i.uses()) == {Reg(1), Reg(2)}

    def test_checkpoint_store_uses_src(self):
        i = CheckpointStore(Reg(7))
        assert i.uses() == (Reg(7),)
        assert i.defs() == ()


class TestTraits:
    def test_store_counts(self):
        assert Store(Imm(0), Imm(0)).store_count == 1
        assert CheckpointStore(Reg(0)).store_count == 1
        assert AtomicRMW("add", Reg(0), Imm(0), Imm(1)).store_count == 1
        assert Load(Reg(0), Imm(0)).store_count == 0
        assert BinOp("add", Reg(0), Imm(0), Imm(0)).store_count == 0

    def test_region_boundary_points(self):
        assert Fence().is_region_boundary_point
        assert AtomicRMW("add", Reg(0), Imm(0), Imm(1)).is_region_boundary_point
        assert Call("f").is_region_boundary_point
        assert not Store(Imm(0), Imm(0)).is_region_boundary_point
        assert not Load(Reg(0), Imm(0)).is_region_boundary_point

    def test_terminators(self):
        assert Jump("x").is_terminator
        assert Branch(Imm(1), "a", "b").is_terminator
        assert Ret().is_terminator
        assert Halt().is_terminator
        assert not Fence().is_terminator
        assert not Nop().is_terminator
        assert not RegionBoundary(0).is_terminator

    def test_memory_access_predicate(self):
        assert is_memory_access(Load(Reg(0), Imm(0)))
        assert is_memory_access(Store(Imm(0), Imm(0)))
        assert is_memory_access(AtomicRMW("add", Reg(0), Imm(0), Imm(1)))
        assert is_memory_access(CheckpointStore(Reg(0)))
        assert not is_memory_access(Fence())

    def test_terminator_targets(self):
        assert terminator_targets(Jump("a")) == ("a",)
        assert terminator_targets(Branch(Imm(1), "a", "b")) == ("a", "b")
        assert terminator_targets(Ret()) == ()
        assert terminator_targets(Halt()) == ()
        with pytest.raises(TypeError):
            terminator_targets(Nop())


class TestValidation:
    def test_unknown_binop_rejected(self):
        with pytest.raises(ValueError):
            BinOp("bogus", Reg(0), Imm(0), Imm(0))

    def test_unknown_unop_rejected(self):
        with pytest.raises(ValueError):
            UnOp("bogus", Reg(0), Imm(0))

    def test_unknown_atomic_rejected(self):
        with pytest.raises(ValueError):
            AtomicRMW("bogus", Reg(0), Imm(0), Imm(1))


class TestOperatorSemantics:
    @given(words, words)
    def test_binops_stay_in_word_range(self, a, b):
        for op in BINARY_OPS:
            r = eval_binop(op, a, b)
            assert -(2**63) <= r < 2**63

    @given(words)
    def test_unops_stay_in_word_range(self, a):
        for op in UNARY_OPS:
            r = eval_unop(op, a)
            assert -(2**63) <= r < 2**63

    @given(words, words)
    def test_atomics_stay_in_word_range(self, a, b):
        for op in ATOMIC_OPS:
            r = eval_atomic(op, a, b)
            assert -(2**63) <= r < 2**63

    def test_division_semantics(self):
        assert eval_binop("div", 7, 2) == 3
        assert eval_binop("div", -7, 2) == -3  # truncating, not floor
        assert eval_binop("div", 7, -2) == -3
        assert eval_binop("div", 7, 0) == 0  # ARM-style

    def test_rem_semantics(self):
        assert eval_binop("rem", 7, 2) == 1
        assert eval_binop("rem", -7, 2) == -1
        assert eval_binop("rem", 7, 0) == 0

    @given(words, st.integers(min_value=-(2**62), max_value=2**62).filter(lambda x: x != 0))
    def test_div_rem_identity(self, a, b):
        q = eval_binop("div", a, b)
        r = eval_binop("rem", a, b)
        assert eval_binop("add", eval_binop("mul", q, b), r) == a

    def test_comparisons_produce_bool_ints(self):
        assert eval_binop("slt", 1, 2) == 1
        assert eval_binop("slt", 2, 1) == 0
        assert eval_binop("seq", 5, 5) == 1
        assert eval_binop("sne", 5, 5) == 0
        assert eval_binop("sge", 5, 5) == 1
        assert eval_binop("sgt", 5, 5) == 0
        assert eval_binop("sle", 4, 5) == 1

    def test_shifts_mask_amount(self):
        assert eval_binop("shl", 1, 64) == 1  # 64 & 63 == 0
        assert eval_binop("shr", 8, 3) == 1

    def test_atomic_swap_ignores_old(self):
        assert eval_atomic("swap", 99, 5) == 5

    def test_atomic_add(self):
        assert eval_atomic("add", 10, 5) == 15


def _trunc_div(a, b):
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


#: The operators' mathematical definitions; the tables must return
#: ``wrap_word`` of these for every pair of ints, in or out of range.
REFERENCE_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": _trunc_div,
    "rem": lambda a, b: 0 if b == 0 else a - _trunc_div(a, b) * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 63),
    "shr": lambda a, b: a >> (b & 63),
    "slt": lambda a, b: int(a < b),
    "sle": lambda a, b: int(a <= b),
    "sgt": lambda a, b: int(a > b),
    "sge": lambda a, b: int(a >= b),
    "seq": lambda a, b: int(a == b),
    "sne": lambda a, b: int(a != b),
    "min": min,
    "max": max,
}
REFERENCE_UNARY = {"neg": lambda a: -a, "not": lambda a: ~a, "abs": abs}
REFERENCE_ATOMIC = {
    "add": lambda old, v: old + v,
    "and": lambda old, v: old & v,
    "or": lambda old, v: old | v,
    "xor": lambda old, v: old ^ v,
    "swap": lambda old, v: v,
    "max": max,
    "min": min,
}
any_ints = words | st.integers(min_value=-(2**70), max_value=2**70)


class TestOperatorTablesMatchDefinitions:
    def test_tables_cover_the_definitions(self):
        assert set(BINARY_OPS) == set(REFERENCE_BINARY)
        assert set(UNARY_OPS) == set(REFERENCE_UNARY)
        assert set(ATOMIC_OPS) == set(REFERENCE_ATOMIC)

    @given(any_ints, any_ints)
    def test_binary(self, a, b):
        for op, ref in REFERENCE_BINARY.items():
            got = BINARY_OPS[op](a, b)
            assert got == wrap_word(ref(a, b)) and type(got) is int, op

    @given(any_ints)
    def test_unary(self, a):
        for op, ref in REFERENCE_UNARY.items():
            got = UNARY_OPS[op](a)
            assert got == wrap_word(ref(a)) and type(got) is int, op

    @given(any_ints, any_ints)
    def test_atomic(self, a, b):
        for op, ref in REFERENCE_ATOMIC.items():
            got = ATOMIC_OPS[op](a, b)
            assert got == wrap_word(ref(a, b)) and type(got) is int, op
