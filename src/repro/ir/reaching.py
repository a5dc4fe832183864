"""Reaching-definitions analysis.

A *definition* is a (block label, instruction index) pair whose instruction
writes some register.  The checkpoint-pruning pass (Section 4.4.1) uses
reaching definitions to build the backward slice that reconstructs a pruned
register value at recovery time.

Each function's def sites are numbered once, in reverse postorder and then
instruction order, and every set of sites is an int bitset over those
numbers (see :mod:`repro.ir.dataflow`).  A block's gen set is the last def
of each register it writes; its kill set is every def of those registers.
Queries test bits or decode only the masks they need: full reach sets are
never materialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Tuple

from repro.ir.cfg import CFG
from repro.ir.dataflow import iter_bits, solve_forward
from repro.ir.function import Function

#: A definition site: (block label, instruction index, register index).
DefSite = Tuple[str, int, int]


@dataclass
class ReachingDefs:
    """Reaching-definition facts for one function, as def-site bitsets."""

    #: Every definition site of a reachable block; bit ``n`` is ``sites[n]``.
    sites: List[DefSite]
    #: Definitions reaching the *entry* of each block.
    reach_in: Dict[str, int]
    #: Definitions reaching the *exit* of each block.
    reach_out: Dict[str, int]
    #: All definition sites of each register index.
    defs_of: Dict[int, int]

    @cached_property
    def site_number(self) -> Dict[DefSite, int]:
        """Site number of each definition site."""
        return {site: n for n, site in enumerate(self.sites)}

    def decode(self, mask: int) -> List[DefSite]:
        """The definition sites in ``mask``, in site-number order."""
        sites = self.sites
        return [sites[n] for n in iter_bits(mask)]

    def reaches(self, label: str, site: DefSite) -> bool:
        """True if ``site`` reaches the entry of block ``label``."""
        n = self.site_number.get(site)
        return n is not None and bool(self.reach_in[label] >> n & 1)

    def reaching_defs_of(
        self, func: Function, label: str, index: int, reg_index: int
    ) -> FrozenSet[DefSite]:
        """Definition sites of ``reg_index`` reaching before instruction ``index``."""
        instrs = func.blocks[label].instrs
        if not 0 <= index <= len(instrs):
            raise IndexError(index)
        for i in range(index - 1, -1, -1):
            for d in instrs[i].defs():
                if d.index == reg_index:
                    return frozenset(((label, i, reg_index),))
        mask = self.reach_in[label] & self.defs_of.get(reg_index, 0)
        return frozenset(self.decode(mask))


def compute_reaching_defs(func: Function, cfg: CFG | None = None) -> ReachingDefs:
    """Compute reaching definitions for every reachable block."""
    cfg = cfg or CFG(func)

    sites: List[DefSite] = []
    defs_of: Dict[int, int] = {}
    gen: Dict[str, int] = {}
    written: Dict[str, List[int]] = {}
    for label in cfg.rpo:
        last_def: Dict[int, int] = {}
        for i, instr in enumerate(func.blocks[label].instrs):
            for d in instr.defs():
                bit = 1 << len(sites)
                sites.append((label, i, d.index))
                defs_of[d.index] = defs_of.get(d.index, 0) | bit
                last_def[d.index] = bit
        gen[label] = sum(last_def.values())
        written[label] = list(last_def)
    kill: Dict[str, int] = {}
    for label, regs in written.items():
        mask = 0
        for reg in regs:
            mask |= defs_of[reg]
        kill[label] = mask

    reach_in, reach_out = solve_forward(cfg, gen, kill)
    return ReachingDefs(
        sites=sites,
        reach_in=reach_in,
        reach_out=reach_out,
        defs_of=defs_of,
    )
