"""Iterative dataflow over int bitsets.

Every dataflow fact is a Python ``int`` used as a bitset: bit ``i`` is set
when element ``i`` is in the set.  Liveness numbers its elements by
register index; reaching definitions numbers each function's def sites
once (see :mod:`repro.ir.reaching`).  Union is ``|``, removal is ``& ~``,
membership is a shift and a test, and a fact costs one int however many
elements it holds.

Both analyses are gen/kill problems with a union meet, so one worklist
solver per direction serves both:

* backward: ``IN[b] = gen[b] | (OUT[b] & ~kill[b])``,
  ``OUT[b] = | IN[succ]``;
* forward: ``OUT[b] = gen[b] | (IN[b] & ~kill[b])``,
  ``IN[b] = | OUT[pred]``.

Only blocks reachable from the entry take part; the boundary fact (OUT of
an exit block, IN of the entry) is the empty set.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.ir.cfg import CFG

#: (IN, OUT) facts per reachable block label.
Solution = Tuple[Dict[str, int], Dict[str, int]]


def iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def to_mask(bits: Iterable[int]) -> int:
    """The bitset holding exactly ``bits``."""
    mask = 0
    for bit in bits:
        mask |= 1 << bit
    return mask


def _solve(
    cfg: CFG,
    gen: Dict[str, int],
    kill: Dict[str, int],
    into: Dict[str, List[str]],
    out_of: Dict[str, List[str]],
    order: List[str],
) -> Tuple[List[int], List[int]]:
    """Worklist fixpoint in the direction ``into`` -> block -> ``out_of``.

    ``meet[b]`` is the union of ``result[m]`` over ``m`` in ``into[b]``;
    ``result[b] = gen[b] | (meet[b] & ~kill[b])``.  Returns both lists,
    indexed by reverse-postorder position.
    """
    index = cfg.rpo_index
    sources = [[index[m] for m in into[label] if m in index] for label in cfg.rpo]
    sinks = [[index[m] for m in out_of[label] if m in index] for label in cfg.rpo]
    gens = [gen[label] for label in cfg.rpo]
    keeps = [~kill[label] for label in cfg.rpo]
    meet = [0] * len(cfg.rpo)
    result = [0] * len(cfg.rpo)
    worklist = deque(index[label] for label in order)
    queued = [True] * len(cfg.rpo)
    while worklist:
        b = worklist.popleft()
        queued[b] = False
        fact = 0
        for m in sources[b]:
            fact |= result[m]
        meet[b] = fact
        new = gens[b] | (fact & keeps[b])
        if new != result[b]:
            result[b] = new
            for s in sinks[b]:
                if not queued[s]:
                    queued[s] = True
                    worklist.append(s)
    return meet, result


def solve_backward(cfg: CFG, gen: Dict[str, int], kill: Dict[str, int]) -> Solution:
    """Solve a backward may-analysis; returns ``(IN, OUT)`` per block."""
    outs, ins = _solve(cfg, gen, kill, cfg.succs, cfg.preds, cfg.rpo[::-1])
    return dict(zip(cfg.rpo, ins)), dict(zip(cfg.rpo, outs))


def solve_forward(cfg: CFG, gen: Dict[str, int], kill: Dict[str, int]) -> Solution:
    """Solve a forward may-analysis; returns ``(IN, OUT)`` per block."""
    ins, outs = _solve(cfg, gen, kill, cfg.preds, cfg.succs, cfg.rpo)
    return dict(zip(cfg.rpo, ins)), dict(zip(cfg.rpo, outs))
