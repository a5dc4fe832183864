"""Property tests: the bitset dataflow agrees with a frozenset reference.

Random programs are the random CFGs of ``test_cfg_properties`` with
register moves and ALU ops added to every block.  Liveness and reaching
definitions are re-solved here by a deliberately naive reference: plain
frozensets, round-robin iteration over every block until nothing changes.
Every fact and every query of :mod:`repro.ir.liveness` and
:mod:`repro.ir.reaching` must match it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.cfg import CFG
from repro.ir.dataflow import iter_bits
from repro.ir.function import Function
from repro.ir.instructions import BinOp, Move
from repro.ir.liveness import compute_liveness
from repro.ir.reaching import compute_reaching_defs
from repro.ir.values import Imm, Reg
from tests.ir.test_cfg_properties import random_cfg

#: Register indices the random programs draw from; some sit past bit 63.
REGS = (0, 1, 2, 3, 5, 9, 64, 130)

Site = Tuple[str, int, int]


@st.composite
def random_program(draw) -> Function:
    """A random CFG whose blocks also read and write registers."""
    func = draw(random_cfg())
    func.num_regs = max(REGS) + 1
    operand = st.one_of(
        st.sampled_from(REGS).map(Reg), st.integers(-4, 4).map(Imm)
    )
    for block in func.blocks.values():
        body = []
        for _ in range(draw(st.integers(0, 4))):
            dst = Reg(draw(st.sampled_from(REGS)))
            if draw(st.booleans()):
                body.append(Move(dst, draw(operand)))
            else:
                body.append(BinOp("add", dst, draw(operand), draw(operand)))
        block.instrs[:0] = body
    return func


def regs(mask: int) -> FrozenSet[int]:
    return frozenset(iter_bits(mask))


def ref_liveness(func: Function, cfg: CFG):
    """(live_in, live_out) per reachable block, as frozensets."""
    use: Dict[str, FrozenSet[int]] = {}
    kill: Dict[str, FrozenSet[int]] = {}
    for label in cfg.rpo:
        u, d = set(), set()
        for instr in func.blocks[label].instrs:
            u |= {r.index for r in instr.uses()} - d
            d |= {r.index for r in instr.defs()}
        use[label], kill[label] = frozenset(u), frozenset(d)
    live_in = {label: frozenset() for label in cfg.rpo}
    live_out = dict(live_in)
    changed = True
    while changed:
        changed = False
        for label in cfg.rpo:
            out = frozenset().union(
                *(live_in[s] for s in cfg.succs[label] if s in live_in)
            )
            new_in = use[label] | (out - kill[label])
            if (new_in, out) != (live_in[label], live_out[label]):
                live_in[label], live_out[label] = new_in, out
                changed = True
    return live_in, live_out


def ref_live_before(func: Function, live_out, label: str, index: int):
    live = set(live_out[label])
    for instr in reversed(func.blocks[label].instrs[index:]):
        live -= {r.index for r in instr.defs()}
        live |= {r.index for r in instr.uses()}
    return frozenset(live)


def ref_reach_in(func: Function, cfg: CFG) -> Dict[str, FrozenSet[Site]]:
    """Definition sites reaching each reachable block's entry."""
    out_sets = {label: frozenset() for label in cfg.rpo}
    reach_in = dict(out_sets)
    changed = True
    while changed:
        changed = False
        for label in cfg.rpo:
            incoming = frozenset().union(
                *(out_sets[p] for p in cfg.preds[label] if p in out_sets)
            )
            reach_in[label] = incoming
            out = ref_reach_at(func, incoming, label, len(func.blocks[label].instrs))
            if out != out_sets[label]:
                out_sets[label] = out
                changed = True
    return reach_in


def ref_reach_at(func: Function, incoming, label: str, index: int):
    """Sites reaching just before ``instrs[index]`` given the block's IN."""
    live = set(incoming)
    for i, instr in enumerate(func.blocks[label].instrs[:index]):
        for d in instr.defs():
            live = {s for s in live if s[2] != d.index}
            live.add((label, i, d.index))
    return frozenset(live)


def all_sites(func: Function, cfg: CFG) -> List[Site]:
    return [
        (label, i, d.index)
        for label in cfg.rpo
        for i, instr in enumerate(func.blocks[label].instrs)
        for d in instr.defs()
    ]


class TestLivenessMatchesReference:
    @given(func=random_program())
    @settings(max_examples=150, deadline=None)
    def test_block_facts(self, func):
        cfg = CFG(func)
        lv = compute_liveness(func, cfg)
        live_in, live_out = ref_liveness(func, cfg)
        assert set(lv.live_in) == set(lv.live_out) == set(cfg.rpo)
        for label in cfg.rpo:
            assert regs(lv.live_in[label]) == live_in[label], label
            assert regs(lv.live_out[label]) == live_out[label], label
            written = {d.index for i in func.blocks[label].instrs for d in i.defs()}
            assert regs(lv.defs[label]) == written, label

    @given(func=random_program())
    @settings(max_examples=100, deadline=None)
    def test_live_before_every_index(self, func):
        cfg = CFG(func)
        lv = compute_liveness(func, cfg)
        _, live_out = ref_liveness(func, cfg)
        for label in cfg.rpo:
            for index in range(len(func.blocks[label].instrs) + 1):
                got = regs(lv.live_before_index(func, label, index))
                assert got == ref_live_before(func, live_out, label, index)


class TestReachingMatchesReference:
    @given(func=random_program())
    @settings(max_examples=150, deadline=None)
    def test_reach_in_membership(self, func):
        cfg = CFG(func)
        rd = compute_reaching_defs(func, cfg)
        reach_in = ref_reach_in(func, cfg)
        sites = all_sites(func, cfg)
        assert rd.sites == sites
        for label in cfg.rpo:
            assert set(rd.decode(rd.reach_in[label])) == reach_in[label]
            for site in sites:
                assert rd.reaches(label, site) == (site in reach_in[label])
        for reg in REGS:
            assert set(rd.decode(rd.defs_of.get(reg, 0))) == {
                s for s in sites if s[2] == reg
            }

    @given(func=random_program())
    @settings(max_examples=100, deadline=None)
    def test_reaching_defs_of_every_point(self, func):
        cfg = CFG(func)
        rd = compute_reaching_defs(func, cfg)
        reach_in = ref_reach_in(func, cfg)
        for label in cfg.rpo:
            for index in range(len(func.blocks[label].instrs) + 1):
                here = ref_reach_at(func, reach_in[label], label, index)
                for reg in REGS:
                    want = {s for s in here if s[2] == reg}
                    got = rd.reaching_defs_of(func, label, index, reg)
                    assert got == want, (label, index, reg)
