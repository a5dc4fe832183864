"""Speculative loop unrolling (paper Section 4.3).

Traditional unrolling needs a static trip count; Capri's speculative
unrolling instead duplicates the loop *body together with its exit
condition*, so it applies to any loop.  After unrolling by factor K, only
the original header remains a natural-loop header (all back edges funnel
into it), so region formation places one boundary per K iterations instead
of one per iteration — the region grows ~K× and per-iteration register
checkpoints (e.g. the loop counter) shrink ~K×.

The pass runs *before* region formation.  It targets innermost loops and
picks the largest unroll factor whose worst-case per-region store weight
still fits the threshold.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import CFG, Loop, natural_loops
from repro.ir.function import Function
from repro.ir.instructions import Call, Instr, Store, AtomicRMW, Fence
from repro.ir.liveness import compute_liveness
from repro.compiler.clone import clone_instr


def _loop_store_weight(func: Function, loop: Loop) -> int:
    """Worst-case stores of one iteration (plus call-arg checkpoints)."""
    weight = 0
    for label in loop.body:
        for instr in func.blocks[label].instrs:
            weight += instr.store_count
            if isinstance(instr, Call):
                weight += len(instr.args)
    return weight


def _loop_has_mandatory_points(func: Function, loop: Loop) -> bool:
    """Loops containing calls/fences/atomics keep per-iteration boundaries,
    so unrolling them cannot lengthen regions — skip."""
    for label in loop.body:
        for instr in func.blocks[label].instrs:
            if isinstance(instr, (Call, Fence, AtomicRMW)):
                return True
    return False


def choose_unroll_factor(
    func: Function, loop: Loop, threshold: int, max_unroll: int
) -> int:
    """Largest K <= max_unroll with K * per-iteration store weight fitting.

    The checkpoint estimate per iteration is folded in as the live-out
    defs of the loop body (same heuristic region formation uses).
    """
    stores = _loop_store_weight(func, loop)
    cfg = CFG(func)
    liveness = compute_liveness(func, cfg)
    ckpt_est = 0
    for label in loop.body:
        ckpt_est += (liveness.defs[label] & liveness.live_out[label]).bit_count()
    per_iter = max(1, stores + ckpt_est)
    k = min(max_unroll, max(1, threshold // per_iter))
    # Code-bloat guard: keep the unrolled loop under ~512 instructions.
    body_instrs = sum(len(func.blocks[l].instrs) for l in loop.body)
    if body_instrs * k > 512:
        k = max(1, 512 // max(1, body_instrs))
    return k


def unroll_loop(func: Function, loop: Loop, factor: int) -> bool:
    """Unroll ``loop`` by ``factor`` (>= 2) in place.

    Copies the full loop body (including the header's exit test) K-1 times;
    latch edges of copy *i* retarget the header of copy *i+1*, and the last
    copy's latches go back to the original header.  Exit edges keep their
    original targets in every copy, preserving semantics for any dynamic
    trip count — that is what makes the unrolling "speculative".
    """
    if factor < 2:
        return False
    body = sorted(loop.body)
    # label -> per-copy clone labels
    copy_labels: List[Dict[str, str]] = []
    for k in range(1, factor):
        copy_labels.append({l: func.fresh_label(f"{l}.u{k}") for l in body})

    for k in range(1, factor):
        label_map = dict(copy_labels[k - 1])
        # Any in-body edge to the header is a back edge (the header
        # dominates the loop), so within copy k it must enter the *next*
        # copy's header — or the original header from the last copy.
        next_header = (
            copy_labels[k][loop.header] if k < factor - 1 else loop.header
        )
        label_map[loop.header] = next_header
        for label in body:
            new_label = copy_labels[k - 1][label]
            new_instrs: List[Instr] = [
                clone_instr(instr, label_map)
                for instr in func.blocks[label].instrs
            ]
            func.add_block(BasicBlock(new_label, new_instrs))

    # Original copy's latch edges enter copy 1's header.
    first_copy_header = copy_labels[0][loop.header]
    from repro.ir.instructions import Branch, Jump

    for latch in loop.latches:
        term = func.blocks[latch].terminator
        if isinstance(term, Jump) and term.target == loop.header:
            term.target = first_copy_header
        elif isinstance(term, Branch):
            if term.if_true == loop.header:
                term.if_true = first_copy_header
            if term.if_false == loop.header:
                term.if_false = first_copy_header
    return True


def speculative_unroll(
    func: Function,
    threshold: int = 256,
    max_unroll: int = 8,
) -> int:
    """Unroll all eligible innermost loops; returns the number unrolled.

    Eligibility: innermost, no calls/fences/atomics inside (those force
    per-iteration boundaries anyway), and a chosen factor of at least 2.
    """
    cfg = CFG(func)
    loops = natural_loops(cfg)
    inner = [l for l in loops if not any(o.parent is l for o in loops)]
    unrolled = 0
    for loop in inner:
        if _loop_has_mandatory_points(func, loop):
            continue
        factor = choose_unroll_factor(func, loop, threshold, max_unroll)
        if factor < 2:
            continue
        if unroll_loop(func, loop, factor):
            unrolled += 1
    func.meta["loops_unrolled"] = unrolled
    return unrolled
