"""Per-core cost-based timing model.

The paper simulates an 8-way out-of-order ARMv8 core in gem5; at our
declared fidelity (trace-driven, band repro=3) each core is a cycle
accumulator: every retired instruction charges an effective CPI, memory
operations add hierarchy latency, and Capri's only *extra* costs are the
instrumentation instructions themselves plus front-end-proxy back-pressure
— matching the paper's claim that loads and the regular data path are
untouched (Section 5.1.1).
"""

from __future__ import annotations

from math import inf, ulp

#: Extra charge for a fence (store-buffer drain) in cycles.
FENCE_CYCLES = 20.0
#: Extra charge for an atomic RMW beyond the store path (L1 round trip).
ATOMIC_EXTRA_CYCLES = 8.0


def retire_charge(cycle: float, cpi: float, n: int) -> float:
    """``cycle`` after ``n`` sequential ``cycle += cpi`` adds, bit for bit.

    One multiply-add when that is provably exact (INTERNALS §1.1): with
    ``u`` the spacing of floats in the binade the sum lands in, if
    ``cycle`` and ``cpi`` are non-negative multiples of ``u`` then every
    partial sum is a multiple of ``u`` below the binade's top, hence
    representable, so no sequential add rounds and neither does the
    batched one.  Otherwise (a crossing into a coarser binade, a
    non-dyadic ``cpi`` such as 0.3) the adds run one by one.
    """
    total = cycle + cpi * n
    u = ulp(total)
    if 0.0 <= cycle <= total < inf and cycle % u == 0.0 and cpi % u == 0.0:
        return total
    for _ in range(n):
        cycle += cpi
    return cycle


class CoreTimer:
    """Cycle accumulator for one core.

    The per-instruction retire charge (one ``cpi_base`` slot) is applied
    by :class:`repro.arch.system.CapriSystem` directly, since it runs
    once per instruction or, batched, once per event.
    """

    __slots__ = ("cycle", "retired", "stall_cycles")

    def __init__(self) -> None:
        self.cycle = 0.0
        self.retired = 0
        self.stall_cycles = 0.0

    def add_latency(self, cycles: float) -> None:
        self.cycle += cycles

    def stall_until(self, t: float) -> None:
        """Block the core until absolute time ``t`` (front-end pressure,
        sync-mode boundary waits)."""
        if t > self.cycle:
            self.stall_cycles += t - self.cycle
            self.cycle = t
