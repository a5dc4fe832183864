"""Register liveness analysis.

The Capri compiler checkpoints the *live-in* register set at region
boundaries: "the compiler performs static analysis over the control flow
graph to identify live-in registers to the next region" (Section 3.2).
This module provides block-level live-in/live-out sets plus an
instruction-level refinement used when boundaries fall mid-block.

Every register set is an int bitset with bit ``r`` standing for register
``r`` (see :mod:`repro.ir.dataflow`); ``iter_bits`` decodes one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.ir.cfg import CFG
from repro.ir.dataflow import solve_backward
from repro.ir.function import Function


@dataclass
class LivenessInfo:
    """Per-block liveness facts for one function, as register bitsets."""

    live_in: Dict[str, int]
    live_out: Dict[str, int]
    #: Registers each block writes anywhere in its body.
    defs: Dict[str, int]

    def live_before_index(self, func: Function, label: str, index: int) -> int:
        """Registers live immediately before ``block.instrs[index]``.

        Computed by walking the block backwards from its live-out set.
        ``index == len(instrs)`` gives the live-out set itself.
        """
        block = func.blocks[label]
        if not 0 <= index <= len(block.instrs):
            raise IndexError(index)
        live = self.live_out[label]
        for instr in reversed(block.instrs[index:]):
            for d in instr.defs():
                live &= ~(1 << d.index)
            for u in instr.uses():
                live |= 1 << u.index
        return live


def compute_liveness(func: Function, cfg: CFG | None = None) -> LivenessInfo:
    """Compute live-in/live-out register bitsets for every reachable block."""
    cfg = cfg or CFG(func)
    uses: Dict[str, int] = {}
    defs: Dict[str, int] = {}
    for label in cfg.rpo:
        # use = upward-exposed reads, def = any write.
        used = written = 0
        for instr in func.blocks[label].instrs:
            for u in instr.uses():
                used |= (1 << u.index) & ~written
            for d in instr.defs():
                written |= 1 << d.index
        uses[label] = used
        defs[label] = written
    live_in, live_out = solve_backward(cfg, uses, defs)
    return LivenessInfo(live_in=live_in, live_out=live_out, defs=defs)
