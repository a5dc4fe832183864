"""Register-checkpointing store insertion (paper Sections 3.2 and 4.2).

For every region boundary the compiler determines the registers that are
live into the region and makes sure each one's value is in checkpoint
storage before the boundary commits.  Following the paper, the pass looks
at *definition sites*: a register definition whose value reaches a boundary
where the register is live gets a :class:`CheckpointStore` inserted
immediately after it ("the compiler is interested in the last instructions
that update the same registers … it inserts checkpoint stores immediately
following them").

Parameters have no defining instruction; their checkpoint happens on the
caller side — the machine emits argument checkpoints at call/spawn time
(see :mod:`repro.isa.machine`), mirroring how the paper's caller checkpoints
the argument registers before the call boundary.

The pass records each region's live-in set in the region table
(``func.meta["regions"]``); the crash-recovery protocol and the tests use
it to validate restored register files.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.ir.cfg import CFG
from repro.ir.dataflow import iter_bits
from repro.ir.function import Function
from repro.ir.instructions import CheckpointStore
from repro.ir.liveness import compute_liveness
from repro.ir.reaching import DefSite, compute_reaching_defs
from repro.ir.values import Reg


def insert_checkpoints(func: Function) -> int:
    """Insert checkpoint stores after defs that feed region live-ins.

    Must run after :func:`repro.compiler.regions.form_regions`.  Returns the
    number of checkpoint stores inserted.
    """
    regions = func.meta.get("regions")
    if regions is None:
        raise ValueError(f"{func.name}: run form_regions before insert_checkpoints")

    cfg = CFG(func)
    liveness = compute_liveness(func, cfg)
    rdefs = compute_reaching_defs(func, cfg)

    needed = 0
    for region in regions:
        label = region.entry_block
        live_regs = tuple(iter_bits(liveness.live_in[label]))
        region.live_in = frozenset(live_regs)
        live_defs = 0
        for reg in live_regs:
            live_defs |= rdefs.defs_of.get(reg, 0)
        needed |= rdefs.reach_in[label] & live_defs

    # Insert per block in descending index order so indices stay valid.
    by_block: Dict[str, List[DefSite]] = {}
    for site in rdefs.decode(needed):
        by_block.setdefault(site[0], []).append(site)
    inserted = 0
    for label, sites in by_block.items():
        block = func.blocks[label]
        for (_, index, reg) in reversed(sites):
            block.instrs.insert(index + 1, CheckpointStore(Reg(reg)))
            inserted += 1
    func.meta["checkpoints_inserted"] = inserted
    return inserted


def checkpoint_sites(func: Function) -> List[Tuple[str, int]]:
    """All (block label, index) positions of checkpoint stores."""
    out: List[Tuple[str, int]] = []
    for label, block in func.blocks.items():
        for i, instr in enumerate(block.instrs):
            if isinstance(instr, CheckpointStore):
                out.append((label, i))
    return out


def boundaries_served(
    func: Function,
    cfg: CFG,
    liveness,
    rdefs,
    label: str,
    ckpt_index: int,
) -> FrozenSet[str]:
    """Boundary blocks that the checkpoint at (label, ckpt_index) serves.

    A checkpoint of register ``r`` placed after def ``d`` serves boundary
    ``β`` when ``d`` reaches ``β`` and ``r`` is live into ``β``.  Used by
    the pruning and LICM passes to decide whether removal/motion is safe.
    """
    instr = func.blocks[label].instrs[ckpt_index]
    if not isinstance(instr, CheckpointStore):
        raise ValueError(f"{label}[{ckpt_index}] is not a checkpoint store")
    reg = instr.src.index

    # The def guarded by this checkpoint is the nearest preceding def of
    # ``reg`` in the same block (argument checkpoints are machine-emitted
    # and never appear as instructions).
    block = func.blocks[label]
    def_index = None
    for i in range(ckpt_index - 1, -1, -1):
        if any(d.index == reg for d in block.instrs[i].defs()):
            def_index = i
            break

    served: Set[str] = set()
    for region in func.meta.get("regions", []):
        b_label = region.entry_block
        if not liveness.live_in[b_label] >> reg & 1:
            continue
        if def_index is not None:
            if rdefs.reaches(b_label, (label, def_index, reg)):
                served.add(b_label)
        else:
            # Checkpoint with no preceding in-block def (e.g. moved by
            # LICM): conservatively report all boundaries where reg is
            # live and some def in this block's predecessors reaches.
            served.add(b_label)
    return frozenset(served)
