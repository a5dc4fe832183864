"""Batched retire charges are the per-instruction charges, bit for bit.

``CapriSystem`` opts in to ``retire_batching``: the observed loop hands
it a hart's pending retirements as one count instead of one
``on_retire`` per instruction (contract rule 6 in ``repro.isa.trace``).
The cycle a batch adds must equal ``n`` sequential ``cycle += cpi_base``
adds in every bit, or ``SystemMetrics`` would drift in the last place.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.core import retire_charge
from repro.arch.params import SimParams
from repro.arch.system import CapriSystem, build_system
from repro.compiler import CapriCompiler, OptConfig
from repro.workloads import get_workload

CPIS = (0.5, 0.25, 0.3, 1 / 3)


def sequential(cycle: float, cpi: float, n: int) -> float:
    for _ in range(n):
        cycle += cpi
    return cycle


def _below_power_of_two(k: int, steps: int, cpi: float) -> float:
    """A start a few ``cpi`` steps under ``2**k``, so the batch crosses it."""
    return max(0.0, 2.0**k - steps * cpi)


starts = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=2.0**20, allow_nan=False),
    st.floats(min_value=2.0**50, max_value=2.0**60, allow_nan=False),
    st.builds(
        lambda k, ulps: max(0.0, 2.0**k - ulps * 2.0 ** (k - 53)),
        st.integers(1, 60),
        st.integers(1, 64),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    cycle=starts,
    cpi=st.sampled_from(CPIS),
    n=st.integers(1, 10_000),
)
def test_batched_charge_equals_sequential_adds(cycle, cpi, n):
    assert retire_charge(cycle, cpi, n).hex() == sequential(cycle, cpi, n).hex()


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 60),
    steps=st.integers(0, 40),
    cpi=st.sampled_from(CPIS),
    n=st.integers(1, 10_000),
)
def test_batches_that_cross_a_power_of_two(k, steps, cpi, n):
    cycle = _below_power_of_two(k, steps, cpi)
    assert retire_charge(cycle, cpi, n).hex() == sequential(cycle, cpi, n).hex()


@pytest.mark.parametrize("cpi", CPIS)
@pytest.mark.parametrize("start", [0.0, 1.0 - 2.0**-53, 2.0**52 - 3.0, 1e15 + 0.1])
def test_on_retire_batch_matches_on_retire(cpi, start):
    params = SimParams.scaled().with_(cpi_base=cpi)
    batched = CapriSystem(params, num_cores=1, threshold=32)
    single = CapriSystem(params, num_cores=1, threshold=32)
    batched.cores[0].cycle = single.cores[0].cycle = start
    batched.on_retire_batch(0, 37)
    for _ in range(37):
        single.on_retire(0, "BinOp")
    assert batched.cores[0].cycle.hex() == single.cores[0].cycle.hex()
    assert batched.cores[0].retired == single.cores[0].retired == 37


# -- whole runs: the batched observed loop against per-instruction retires ---


class RecordingSystem(CapriSystem):
    """Snapshots every core timer whenever a non-retire event arrives:
    the points where the system reads its timers, and where a crash
    injector may capture state."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.snapshots = []

    def _snap(self) -> None:
        self.snapshots.append(
            tuple((t.cycle.hex(), t.retired, t.stall_cycles.hex()) for t in self.cores)
        )

    def on_load(self, core, addr):
        self._snap()
        super().on_load(core, addr)

    def on_store(self, core, addr, value, old):
        self._snap()
        super().on_store(core, addr, value, old)

    def on_ckpt(self, core, reg, value, addr):
        self._snap()
        super().on_ckpt(core, reg, value, addr)

    def on_boundary(self, core, region_id, continuation):
        self._snap()
        super().on_boundary(core, region_id, continuation)

    def on_fence(self, core):
        self._snap()
        super().on_fence(core)

    def on_atomic(self, core, addr, value, old):
        self._snap()
        super().on_atomic(core, addr, value, old)

    def on_io(self, core, port, value):
        self._snap()
        super().on_io(core, port, value)

    def on_halt(self, core):
        self._snap()
        super().on_halt(core)


class PerInstructionSystem(RecordingSystem):
    retire_batching = False


@lru_cache(maxsize=None)
def _program(workload: str):
    module, spawns = get_workload(workload).build(0.05)
    return CapriCompiler(OptConfig.licm(32)).compile(module).module, spawns


def _run(cls, workload: str, cpi: float):
    module, spawns = _program(workload)
    machine, _ = build_system(module, spawns, threshold=32)
    system = cls(
        SimParams.scaled().with_(cpi_base=cpi), num_cores=len(spawns), threshold=32
    )
    system.attach(machine)
    machine.run(system)
    return system


@pytest.mark.parametrize("cpi", [0.5, 0.3])
@pytest.mark.parametrize("workload,harts", [("genome", 1), ("ocean", 4)])
def test_batched_run_matches_per_instruction_run(workload, harts, cpi):
    batched = _run(RecordingSystem, workload, cpi)
    reference = _run(PerInstructionSystem, workload, cpi)
    assert len(batched.cores) == harts
    assert batched.snapshots == reference.snapshots
    assert len(batched.snapshots) > 100
    assert batched.finish() == reference.finish()


def test_only_the_capri_system_batches():
    from repro.arch.crash import CrashInjector
    from repro.check.checker import PersistencyChecker
    from repro.litmus.oracle import LitmusOracle
    from repro.isa.trace import (
        CollectingObserver,
        Observer,
        TeeObserver,
        TickCountingObserver,
    )
    from repro.trace.record import TraceRecorder

    assert CapriSystem.retire_batching
    for cls in (
        Observer,
        CrashInjector,
        PersistencyChecker,
        LitmusOracle,
        TeeObserver,
        TraceRecorder,
        CollectingObserver,
        TickCountingObserver,
    ):
        assert not cls.retire_batching, cls
