"""Tests for liveness, reaching definitions, and backward slicing."""

import pytest

from repro.ir import (
    CFG,
    IRBuilder,
    compute_liveness,
    compute_reaching_defs,
    backward_slice,
)
from repro.ir.dataflow import iter_bits
from repro.ir.slicing import slice_instructions, slice_is_reconstructible
from repro.ir.values import Reg


def regs(mask):
    """Decode a register bitset."""
    return frozenset(iter_bits(mask))


class TestLiveness:
    def test_straightline(self):
        b = IRBuilder("m")
        with b.function("f", params=["a"]) as f:
            x = f.add(f.param(0), 1)
            y = f.add(x, 2)
            f.ret(y)
        func = b.module.function("f")
        lv = compute_liveness(func)
        assert regs(lv.live_in["entry"]) == {0}
        assert regs(lv.live_out["entry"]) == frozenset()

    def test_loop_carried_values_live_at_header(self):
        b = IRBuilder("m")
        with b.function("f", params=["n"]) as f:
            acc = f.li(0)
            with f.for_range(f.param(0)) as i:
                f.add(acc, i, dst=acc)
            f.ret(acc)
        func = b.module.function("f")
        cfg = CFG(func)
        from repro.ir import natural_loops

        header = natural_loops(cfg)[0].header
        lv = compute_liveness(func, cfg)
        # n, acc, i all live at the loop header
        assert {0, acc.index}.issubset(regs(lv.live_in[header]))

    def test_dead_value_not_live(self):
        b = IRBuilder("m")
        with b.function("f", params=["a"]) as f:
            f.add(f.param(0), 1)  # dead
            f.ret(f.param(0))
        func = b.module.function("f")
        lv = compute_liveness(func)
        assert regs(lv.live_in["entry"]) == {0}

    def test_branch_merges_liveness(self):
        b = IRBuilder("m")
        with b.function("f", params=["c", "x", "y"]) as f:
            r = f.reg()
            with f.if_else(f.cmp("sgt", f.param(0), 0)) as h:
                f.move(r, f.param(1))  # uses x on the then-path
                h.otherwise()
                f.move(r, f.param(2))  # uses y on the else-path
            f.ret(r)
        func = b.module.function("f")
        lv = compute_liveness(func)
        # c, x, y all live into the entry block (both branch paths merge).
        assert {0, 1, 2}.issubset(regs(lv.live_in["entry"]))

    def test_live_before_index(self):
        b = IRBuilder("m")
        with b.function("f", params=["a", "b"]) as f:
            x = f.add(f.param(0), f.param(1))  # idx 0
            y = f.mul(x, x)  # idx 1
            f.ret(y)  # idx 2
        func = b.module.function("f")
        lv = compute_liveness(func)
        # Before instr 0: a, b live.
        assert regs(lv.live_before_index(func, "entry", 0)) == {0, 1}
        # Before instr 1: only x live.
        assert regs(lv.live_before_index(func, "entry", 1)) == {2}
        # Before ret: only y live.
        assert regs(lv.live_before_index(func, "entry", 2)) == {3}

    def test_live_before_index_bounds(self):
        b = IRBuilder("m")
        with b.function("f") as f:
            f.ret()
        func = b.module.function("f")
        lv = compute_liveness(func)
        with pytest.raises(IndexError):
            lv.live_before_index(func, "entry", 5)


class TestReachingDefs:
    def test_single_def_reaches_use(self):
        b = IRBuilder("m")
        with b.function("f", params=["a"]) as f:
            x = f.add(f.param(0), 1)  # def at entry[0]
            f.ret(x)
        func = b.module.function("f")
        rd = compute_reaching_defs(func)
        sites = rd.reaching_defs_of(func, "entry", 1, x.index)
        assert sites == {("entry", 0, x.index)}

    def test_redefinition_kills(self):
        b = IRBuilder("m")
        with b.function("f") as f:
            x = f.li(1)  # entry[0]
            f.li(2, dst=x)  # entry[1] kills entry[0]
            f.ret(x)
        func = b.module.function("f")
        rd = compute_reaching_defs(func)
        sites = rd.reaching_defs_of(func, "entry", 2, x.index)
        assert sites == {("entry", 1, x.index)}

    def test_branch_merges_defs(self):
        b = IRBuilder("m")
        with b.function("f", params=["c"]) as f:
            x = f.reg()
            with f.if_else(f.cmp("sgt", f.param(0), 0)) as h:
                f.move(x, 1)
                h.otherwise()
                f.move(x, 2)
            f.ret(x)
        func = b.module.function("f")
        rd = compute_reaching_defs(func)
        # At the join, both defs reach.
        end_label = [l for l in func.blocks if l.startswith("if.end")][0]
        sites = rd.reaching_defs_of(func, end_label, 0, x.index)
        assert len(sites) == 2

    def test_param_has_no_reaching_def(self):
        b = IRBuilder("m")
        with b.function("f", params=["a"]) as f:
            f.ret(f.param(0))
        func = b.module.function("f")
        rd = compute_reaching_defs(func)
        assert rd.reaching_defs_of(func, "entry", 0, 0) == frozenset()

    def test_defs_of_index(self):
        b = IRBuilder("m")
        with b.function("f") as f:
            x = f.li(1)
            f.li(2, dst=x)
            f.ret()
        func = b.module.function("f")
        rd = compute_reaching_defs(func)
        assert rd.decode(rd.defs_of[x.index]) == [
            ("entry", 0, x.index),
            ("entry", 1, x.index),
        ]


class TestBackwardSlice:
    def test_pure_slice_is_reconstructible(self):
        b = IRBuilder("m")
        with b.function("f", params=["a"]) as f:
            x = f.add(f.param(0), 1)
            y = f.mul(x, 2)
            f.ret(y)
        func = b.module.function("f")
        rd = compute_reaching_defs(func)
        # Slice of y at the ret: depends on the mul and the add, then hits
        # the parameter => incomplete.
        sites, complete = backward_slice(func, rd, "entry", 2, y.index)
        assert not complete  # reaches parameter a

    def test_slice_of_constant_chain_completes(self):
        b = IRBuilder("m")
        with b.function("f") as f:
            x = f.li(5)
            y = f.add(x, 1)
            z = f.mul(y, y)
            f.ret(z)
        func = b.module.function("f")
        rd = compute_reaching_defs(func)
        sites, complete = backward_slice(func, rd, "entry", 3, z.index)
        assert complete
        assert len(sites) == 3
        assert slice_is_reconstructible(func, sites)

    def test_slice_through_load_not_reconstructible(self):
        b = IRBuilder("m")
        with b.function("f") as f:
            a = f.li(0x10000)
            v = f.load(a)
            w = f.add(v, 1)
            f.ret(w)
        func = b.module.function("f")
        rd = compute_reaching_defs(func)
        sites, complete = backward_slice(func, rd, "entry", 3, w.index)
        assert complete
        assert not slice_is_reconstructible(func, sites)

    def test_slice_instruction_order(self):
        b = IRBuilder("m")
        with b.function("f") as f:
            x = f.li(5)
            y = f.add(x, 1)
            f.ret(y)
        func = b.module.function("f")
        rd = compute_reaching_defs(func)
        sites, complete = backward_slice(func, rd, "entry", 2, y.index)
        assert complete
        instrs = slice_instructions(func, sites)
        assert len(instrs) == 2
        # Producer before consumer.
        assert instrs[0].defs()[0] == x
        assert instrs[1].defs()[0] == y

    def test_slice_size_cap(self):
        b = IRBuilder("m")
        with b.function("f") as f:
            x = f.li(1)
            for _ in range(100):
                x = f.add(x, 1)
            f.ret(x)
        func = b.module.function("f")
        rd = compute_reaching_defs(func)
        sites, complete = backward_slice(func, rd, "entry", 101, x.index, max_sites=10)
        assert not complete
