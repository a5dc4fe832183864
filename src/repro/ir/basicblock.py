"""Basic blocks: straight-line instruction sequences ending in a terminator."""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.ir.instructions import Instr, terminator_targets


class BasicBlock:
    """A labelled straight-line sequence of instructions.

    The final instruction must be a terminator (``Jump``/``Branch``/``Ret``/
    ``Halt``); the verifier enforces this.  Blocks are mutable — Capri's
    passes split, merge, clone and rewrite them in place.

    ``decoded`` is the interpreter's cache of the block in executable form,
    and ``segments`` the straight-line code compiled from that form for
    unobserved runs (both owned by :mod:`repro.isa.machine`).  They live
    and die with the block.  A machine checks each block against its
    decode the first time it enters the block's function, and decodes it
    afresh when ``instrs`` no longer holds the instructions it was decoded
    from.  So an edit is seen by the next machine, not in the middle of a
    run; and once a block has run, edit it by inserting, deleting or
    replacing instructions, not by mutating one in place.
    """

    __slots__ = ("label", "instrs", "decoded", "segments")

    def __init__(self, label: str, instrs: Optional[List[Instr]] = None) -> None:
        self.label = label
        self.instrs: List[Instr] = instrs if instrs is not None else []
        self.decoded: Optional[tuple] = None
        self.segments: Optional[dict] = None

    @property
    def terminator(self) -> Instr:
        """The block's final (terminator) instruction."""
        if not self.instrs:
            raise ValueError(f"block {self.label!r} is empty")
        return self.instrs[-1]

    def successors(self) -> List[str]:
        """Labels of successor blocks, from the terminator."""
        return list(terminator_targets(self.terminator))

    def append(self, instr: Instr) -> None:
        self.instrs.append(instr)

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label} ({len(self.instrs)} instrs)>"
