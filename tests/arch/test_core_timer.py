"""Tests for the per-core cycle accumulator and its use by the system."""

import pytest

from repro.arch.core import ATOMIC_EXTRA_CYCLES, FENCE_CYCLES, CoreTimer
from repro.arch.params import SimParams
from repro.arch.system import CapriSystem


class TestCoreTimer:
    def setup_method(self):
        self.timer = CoreTimer()

    def test_retire_charges_cpi(self):
        system = CapriSystem(SimParams.paper(), num_cores=1, threshold=32)
        system.on_retire(0, "BinOp")
        system.on_retire(0, "BinOp")
        assert system.cores[0].cycle == pytest.approx(2 * 0.5)
        assert system.cores[0].retired == 2

    def test_retire_on_an_unknown_core_grows_the_core_list(self):
        system = CapriSystem(SimParams.paper(), num_cores=1, threshold=32)
        system.on_retire(2, "BinOp")
        assert len(system.cores) == 3
        assert system.cores[2].retired == 1
        assert system.cores[0].retired == 0

    def test_add_latency(self):
        self.timer.add_latency(12.5)
        assert self.timer.cycle == pytest.approx(12.5)

    def test_stall_until_future(self):
        self.timer.add_latency(10)
        self.timer.stall_until(25.0)
        assert self.timer.cycle == 25.0
        assert self.timer.stall_cycles == pytest.approx(15.0)

    def test_stall_until_past_is_noop(self):
        self.timer.add_latency(50)
        self.timer.stall_until(10.0)
        assert self.timer.cycle == 50.0
        assert self.timer.stall_cycles == 0.0


class TestSystemEventCosts:
    def _system(self, **param_kw):
        return CapriSystem(
            SimParams.scaled().with_(**param_kw), num_cores=1, threshold=32
        )

    def test_fence_cost(self):
        system = self._system()
        system.on_fence(0)
        assert system.cores[0].cycle == pytest.approx(FENCE_CYCLES)

    def test_boundary_cost(self):
        system = self._system(boundary_cycles=3.0)
        system.on_boundary(0, -1, None)
        assert system.cores[0].cycle >= 3.0

    def test_ckpt_cost(self):
        system = self._system(ckpt_store_cycles=2.0)
        system.on_ckpt(0, 1, 42, 0x4000_0000)
        assert system.cores[0].cycle >= 2.0

    def test_atomic_costs_more_than_store(self):
        s1, s2 = self._system(), self._system()
        s1.on_store(0, 0x1000, 1, 0)
        s2.on_atomic(0, 0x1000, 1, 0)
        assert s2.cores[0].cycle >= s1.cores[0].cycle + ATOMIC_EXTRA_CYCLES - 1e-9

    def test_io_cost_includes_device_latency(self):
        system = self._system(io_latency_ns=100.0)
        system.on_io(0, 1, 42)
        assert system.cores[0].cycle >= system.params.io_latency_cycles

    def test_io_barrier_drains_committed_regions(self):
        system = self._system()
        # Build one committed region with a pending phase 2.
        system.on_store(0, 0x1000, 5, 0)
        system.on_boundary(0, 1, None)
        assert system.nvm.peek(0x1000) == 0  # not yet durable
        system.on_io(0, 1, 42)
        assert system.nvm.peek(0x1000) == 5  # barrier made it durable

    def test_cores_grow_on_demand(self):
        system = self._system()
        system.on_retire(5, "BinOp")
        assert len(system.cores) == 6
