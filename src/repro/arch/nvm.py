"""The NVM main memory: durable word image plus a bandwidth-limited write port.

The *image* is the authoritative durable state: what survives a power
failure.  Three producers write it:

* regular-path writebacks (DRAM-cache evictions),
* phase-2 proxy drains (redo data),
* staged register-checkpoint flushes at region commit.

Writes pass through the write-pending queue, which Table 1 places inside
the persistent domain — so a write is durable the moment it is issued,
while the port timestamp models sustained throughput (WPQ + bank-level
parallelism pipeline the 300 ns write latency).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.arch.params import SimParams

#: FNV-1a fold constants of every integrity checksum (see
#: :mod:`repro.arch.proxy` for the injectivity argument).
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
WORD_MASK = (1 << 64) - 1


def word_checksum(addr: int, value: int) -> int:
    """Integrity word for one NVM cell (the per-word ECC/CRC a real part
    stores alongside the data array)."""
    h = ((FNV_OFFSET ^ (addr & WORD_MASK)) * FNV_PRIME) & WORD_MASK
    return ((h ^ (value & WORD_MASK)) * FNV_PRIME) & WORD_MASK


@dataclass(frozen=True)
class WpqRecord:
    """One write-pending-queue slot: the journal of a recently issued write.

    ``prev`` is the word's value before the write (``None`` if the cell
    was never written), so a fault model can *revert* the array — modelling
    a drain the power cut mid-way — while the battery-backed queue record
    itself survives for recovery to replay.  ``checksum`` guards the
    record against torn queue writes.
    """

    addr: int
    value: int
    prev: int | None
    checksum: int

    @staticmethod
    def make(addr: int, value: int, prev: int | None) -> "WpqRecord":
        return WpqRecord(addr, value, prev, word_checksum(addr, value))

    @property
    def intact(self) -> bool:
        return self.checksum == word_checksum(self.addr, self.value)


class NVMain:
    """Durable word-granular memory image with a shared write port."""

    def __init__(self, params: SimParams, initial: Dict[int, int] | None = None) -> None:
        self.params = params
        self.image: Dict[int, int] = dict(initial or {})
        #: Durable per-core PC checkpoint (Section 3.1: boundary checkpoints
        #: contain "the current PC offset"): core -> (continuation,
        #: region_id), written when a region's boundary entry completes its
        #: second phase.  Until then the boundary entry itself (in the
        #: non-volatile proxy buffers) carries the continuation.
        self.pc_checkpoints: Dict[int, tuple] = {}
        #: The write-pending queue's journal: the last ``wpq_entries``
        #: issued writes, oldest first.  Table 1 puts the WPQ inside the
        #: persistent domain, so these records survive a power failure;
        #: recovery replays them to heal a partially-drained array (the
        #: ADR contract — see repro.fault.models).  A write is journaled
        #: as a raw ``(addr, value, prev)`` triple; :meth:`wpq_records`
        #: turns it into its checksummed record the first time a crash
        #: state is captured with it in the queue.
        self.wpq: Deque[Union[WpqRecord, Tuple[int, int, Optional[int]]]] = deque(
            maxlen=params.wpq_entries
        )
        #: Per-slot integrity words for the register-checkpoint array
        #: (the ECC a real part keeps alongside the cells); recovery
        #: verifies a slot's shadow before trusting its value.
        self.ckpt_shadow: Dict[int, int] = {}
        #: Next cycle at which the write port can issue.
        self.write_free_at = 0.0
        # -- counters -----------------------------------------------------
        self.writes_writeback = 0  # regular-path words written
        self.writes_redo = 0  # phase-2 redo words written
        self.writes_ckpt = 0  # checkpoint-array words written
        self.writes_skipped = 0  # redo entries skipped (valid bit unset)
        self.reads = 0

    # -- durable state ------------------------------------------------------

    def read_word(self, addr: int) -> int:
        self.reads += 1
        return self.image.get(addr, 0)

    def peek(self, addr: int) -> int:
        """Read without counting (for invariant checks)."""
        return self.image.get(addr, 0)

    # -- write port timing ------------------------------------------------------

    def issue_write(self, now: float) -> float:
        """Occupy one write-port slot at/after ``now``; return issue time."""
        t = max(now, self.write_free_at)
        self.write_free_at = t + self.params.nvm_write_interval_cycles
        return t

    # -- producers ----------------------------------------------------------------

    def wpq_records(self) -> List[WpqRecord]:
        """The journal as checksummed records, oldest first: the same
        records an eager journal would have built at issue time, since
        ``addr``, ``value`` and ``prev`` are all they depend on.

        Writes only ever join at the newest end, so the raw triples are
        a suffix of the queue; each is built into a record once.
        """
        wpq = self.wpq
        i = len(wpq) - 1
        while i >= 0 and type(wpq[i]) is tuple:
            wpq[i] = WpqRecord.make(*wpq[i])
            i -= 1
        return list(wpq)

    def writeback_words(self, now: float, words: Dict[int, int]) -> float:
        """Apply a regular-path writeback; returns last issue time."""
        t = now
        image = self.image
        for addr, value in words.items():
            t = self.issue_write(now)
            self.wpq.append((addr, value, image.get(addr)))
            image[addr] = value
            self.writes_writeback += 1
        return t

    def redo_write(self, now: float, addr: int, value: int) -> float:
        t = self.issue_write(now)
        self.wpq.append((addr, value, self.image.get(addr)))
        self.image[addr] = value
        self.writes_redo += 1
        return t

    def ckpt_write(self, now: float, addr: int, value: int) -> float:
        t = self.issue_write(now)
        self.wpq.append((addr, value, self.image.get(addr)))
        self.image[addr] = value
        self.ckpt_shadow[addr] = word_checksum(addr, value)
        self.writes_ckpt += 1
        return t

    @property
    def total_writes(self) -> int:
        return self.writes_writeback + self.writes_redo + self.writes_ckpt
