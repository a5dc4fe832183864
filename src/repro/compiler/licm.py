"""Moving checkpoints out of loops (paper Section 4.4.2).

A checkpoint store may be delayed from its original position (immediately
after the defining instruction) to any point before the first region
boundary it serves.  When the definition sits inside a loop but every
boundary served lies *outside* the loop — a value produced per-iteration
but only consumed after the loop — the per-iteration checkpoint is wasted
work: only the final iteration's value matters.  The pass moves such
checkpoints onto the loop's exit edges, executing them once instead of
once per iteration (cf. the paper's Figure 4).

Loop-carried registers (live at the header boundary) are never moved: the
header region needs their value every iteration.

The pass also performs the redundant-duplicate cleanup the paper mentions:
two checkpoints of the same register in one block with no intervening
redefinition — the earlier one can serve no boundary (boundaries sit at
block starts) and is deleted.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import CFG, natural_loops
from repro.ir.function import Function
from repro.ir.instructions import CheckpointStore, Jump
from repro.ir.liveness import compute_liveness
from repro.ir.reaching import compute_reaching_defs
from repro.compiler.checkpoints import boundaries_served, checkpoint_sites


def move_checkpoints_out_of_loops(func: Function) -> int:
    """Apply checkpoint LICM in place; returns checkpoints moved + deduped.

    Must run after checkpoint insertion (and, in the standard pipeline,
    after pruning).
    """
    moved = _dedupe_in_block(func)

    cfg = CFG(func)
    loops = natural_loops(cfg)
    if not loops:
        func.meta["checkpoints_licm"] = moved
        return moved
    liveness = compute_liveness(func, cfg)
    rdefs = compute_reaching_defs(func, cfg)
    region_entries = {
        r.entry_block for r in func.meta.get("regions", [])
    }

    # Innermost-first so a checkpoint can hop out loop by loop.
    loops_by_depth = sorted(loops, key=lambda l: -l.depth)

    removals: Dict[str, List[int]] = {}
    exit_ckpts: Dict[Tuple[str, str], List[int]] = {}  # (from, to) edge -> regs

    claimed: Set[Tuple[str, int]] = set()
    for loop in loops_by_depth:
        for label in sorted(loop.body):
            block = func.blocks[label]
            for index, instr in enumerate(block.instrs):
                if not isinstance(instr, CheckpointStore):
                    continue
                if (label, index) in claimed:
                    continue
                reg = instr.src.index
                served = boundaries_served(
                    func, cfg, liveness, rdefs, label, index
                )
                if not served:
                    continue  # pruning handles dead checkpoints
                # Delaying to the exit edges is safe unless some boundary
                # is reached from the def on a path that stays inside the
                # loop (the back-edge service of a loop-carried value);
                # boundaries served only via exit-and-re-enter paths are
                # still covered by the relocated checkpoint.
                if _serves_boundary_inside_loop(
                    func, cfg, liveness, loop, region_entries, label, index, reg
                ):
                    continue
                claimed.add((label, index))
                removals.setdefault(label, []).append(index)
                for edge in loop.exits(cfg):
                    exit_ckpts.setdefault(edge, []).append(reg)
                moved += 1

    for label, indices in removals.items():
        block = func.blocks[label]
        for index in sorted(indices, reverse=True):
            del block.instrs[index]

    # Split each exit edge with a block holding the relocated checkpoints.
    for (src, dst), regs in sorted(exit_ckpts.items()):
        _insert_on_edge(func, src, dst, regs)

    func.meta["checkpoints_licm"] = moved
    return moved


def _serves_boundary_inside_loop(
    func: Function,
    cfg: CFG,
    liveness,
    loop,
    region_entries: Set[str],
    ckpt_label: str,
    ckpt_index: int,
    reg: int,
) -> bool:
    """True if a boundary needing ``reg`` is reachable from the checkpoint
    along a path that stays inside ``loop`` and never redefines ``reg``."""
    instrs = func.blocks[ckpt_label].instrs
    for i in range(ckpt_index + 1, len(instrs)):
        if any(d.index == reg for d in instrs[i].defs()):
            return False  # value dead before leaving the block
    seen: Set[str] = set()
    work = [s for s in cfg.succs[ckpt_label] if s in loop.body]
    while work:
        label = work.pop()
        if label in seen:
            continue
        seen.add(label)
        if label in region_entries and liveness.live_in[label] >> reg & 1:
            return True
        if liveness.defs[label] >> reg & 1:
            continue  # paths through this block no longer carry our value
        work.extend(s for s in cfg.succs[label] if s in loop.body)
    return False


def _dedupe_in_block(func: Function) -> int:
    """Drop earlier duplicate checkpoints of a register within a block."""
    removed = 0
    for block in func.blocks.values():
        last_ckpt: Dict[int, int] = {}
        dead: List[int] = []
        for i, instr in enumerate(block.instrs):
            if isinstance(instr, CheckpointStore):
                reg = instr.src.index
                if reg in last_ckpt:
                    dead.append(last_ckpt[reg])
                last_ckpt[reg] = i
            else:
                for d in instr.defs():
                    last_ckpt.pop(d.index, None)
        for i in sorted(dead, reverse=True):
            del block.instrs[i]
            removed += 1
    return removed


def _insert_on_edge(func: Function, src: str, dst: str, regs: List[int]) -> None:
    """Split edge src->dst with a block of checkpoint stores for ``regs``."""
    from repro.ir.instructions import Branch
    from repro.ir.values import Reg

    label = func.fresh_label(f"{src}.exit_ckpt")
    seen: Set[int] = set()
    instrs = []
    for reg in regs:
        if reg not in seen:
            seen.add(reg)
            instrs.append(CheckpointStore(Reg(reg)))
    instrs.append(Jump(dst))
    func.add_block(BasicBlock(label, instrs))
    term = func.blocks[src].terminator
    if isinstance(term, Jump):
        if term.target == dst:
            term.target = label
    elif isinstance(term, Branch):
        if term.if_true == dst:
            term.if_true = label
        if term.if_false == dst:
            term.if_false = label
