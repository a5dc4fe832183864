"""An unobserved run is the observed machine, minus the callbacks.

``Machine.run()`` with no observer takes a callback-free loop and lets a
lone hart run its whole budget in one turn.  Everything the differential
oracle and the recovery protocol read must come out exactly as an
observed run (``run(Observer())``) leaves it: memory (checkpoint slots
included), the I/O log, and every hart's position, result, halt state,
retired count, registers and suspended caller frames.
"""

import pytest

from repro.arch.recovery import recover, resume_and_finish
from repro.compiler import CapriCompiler, OptConfig
from repro.fault.campaign import CampaignConfig, select_crash_points
from repro.ir import IRBuilder
from repro.isa.machine import Machine, MachineError
from repro.isa.trace import Observer
from repro.trace.record import capture_trace
from repro.trace.replay import TraceCampaignSource
from repro.workloads import get_workload
from repro.workloads.registry import _REGISTRY

SCALE = 0.05
QUANTA = (1, 7, 32)
WORKLOADS = sorted(_REGISTRY)


def test_every_registry_workload_is_covered():
    assert len(WORKLOADS) == 24


def machine_state(machine):
    """What an unobserved run must reproduce."""
    return (
        machine.memory,
        machine.io_log,
        machine.total_retired,
        [
            None
            if h is None
            else (
                h.func.name,
                h.label,
                h.index,
                h.retired,
                h.result,
                h.halted,
                h.regs,
                [
                    (f.func.name, f.label, f.index, f.regs, f.ret_reg)
                    for f in h.callstack
                ],
            )
            for h in machine.harts
        ],
    )


def _spawned(module, spawns, quantum):
    machine = Machine(module, quantum=quantum)
    for func, args in spawns:
        machine.spawn(func, args)
    return machine


def _both_ways(module, spawns, quantum, **run_kwargs):
    """(unobserved, observed) machines after running ``module``."""
    unobserved = _spawned(module, spawns, quantum)
    unobserved.run(**run_kwargs)
    observed = _spawned(module, spawns, quantum)
    observed.run(Observer(), **run_kwargs)
    return unobserved, observed


@pytest.mark.parametrize("name", WORKLOADS)
def test_unobserved_run_matches_observed(name):
    module, spawns = get_workload(name).build(SCALE)
    compiled = CapriCompiler(OptConfig.licm(32)).compile(module).module
    for build, program in (("plain", module), ("licm32", compiled)):
        for quantum in QUANTA:
            unobserved, observed = _both_ways(program, spawns, quantum)
            assert machine_state(unobserved) == machine_state(observed), (
                build,
                quantum,
            )


@pytest.mark.parametrize("name", ["genome", "ocean", "deep-call"])
def test_resumed_recovered_states_match(name):
    """The campaign path: recover at crash points, resume to the end."""
    config = CampaignConfig(threshold=32)
    module, spawns = get_workload(name).build(SCALE)
    module = CapriCompiler(OptConfig.licm(config.threshold)).compile(module).module
    trace = capture_trace(module, spawns, quantum=config.quantum)
    source = TraceCampaignSource(trace, config)
    resumed = 0
    for index in select_crash_points(len(trace), 12, seed=5):
        state, _, _ = source.capture_at(index)
        if state is None:
            continue
        recovered = recover(state, module)
        unobserved = resume_and_finish(recovered, module, spawns)
        observed = resume_and_finish(
            recovered, module, spawns, observer=Observer()
        )
        assert machine_state(unobserved) == machine_state(observed), index
        resumed += 1
    assert resumed >= 10


# -- small programs for interleaving and error paths ---------------------------


def _racers(iterations):
    """``race(k)``: ``iterations`` rounds of a read-modify-write of one
    shared word plus an I/O write, so both the final word and the I/O
    order depend on how the harts interleave."""
    b = IRBuilder("racers")
    shared = b.module.alloc("shared", 1)
    with b.function("race", params=["k"]) as f:
        with f.for_range(iterations):
            x = f.load(shared)
            f.store(f.add(f.mul(x, 31), f.param(0)), shared)
            f.io_write(1, f.param(0))
        f.ret(f.param(0))
    return b.module


def _spinner():
    """``spin(k)``: an endless loop storing a counter to cell ``k``."""
    b = IRBuilder("spin")
    cells = b.module.alloc("cells", 4)
    with b.function("spin", params=["k"]) as f:
        addr = f.add(f.mul(f.param(0), 8), cells)
        i = f.li(0)
        f.start_block("loop")
        f.add(i, 1, dst=i)
        f.store(i, addr)
        f.io_write(2, i)
        f.jump("loop")
    return b.module


@pytest.mark.parametrize("quantum", QUANTA)
def test_two_racing_harts_keep_the_quantum_interleaving(quantum):
    module = _racers(40)
    spawns = [("race", [1]), ("race", [2])]
    unobserved, observed = _both_ways(module, spawns, quantum)
    assert machine_state(unobserved) == machine_state(observed)
    assert [h.result for h in unobserved.harts] == [1, 2]


@pytest.mark.parametrize("harts", [1, 2, 3])
def test_max_steps_overrun(harts):
    spawns = [("spin", [k]) for k in range(harts)]
    for quantum in QUANTA:
        machines = []
        for observer in (None, Observer()):
            machine = _spawned(_spinner(), spawns, quantum)
            with pytest.raises(MachineError, match="max_steps=500"):
                machine.run(observer, max_steps=500)
            machines.append(machine)
        unobserved, observed = machines
        assert unobserved.total_retired == 500
        assert machine_state(unobserved) == machine_state(observed)


class _RetireCounter(Observer):
    def __init__(self):
        self.retired = 0

    def on_retire(self, core, kind):
        self.retired += 1


def _fails_after_work(tail):
    """``main``: 20 rounds of stores and I/O, then ``tail(f)``."""
    b = IRBuilder("fails")
    cells = b.module.alloc("cells", 20)
    with b.function("main") as f:
        with f.for_range(20) as i:
            f.store(i, f.add(f.mul(i, 8), cells))
            f.io_write(3, i)
        tail(f)
    return b.module


def _unknown_callee(f):
    f.call("missing")


def _overflowing(f):
    f.call("dive", [0])


def _add_dive(module):
    b = IRBuilder(module)
    with b.function("dive", params=["d"]) as f:
        f.store(f.param(0), module.symbols["cells"])
        f.call("dive", [f.add(f.param(0), 1)])
    return module


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: _fails_after_work(_unknown_callee), "unknown function"),
        (lambda: _add_dive(_fails_after_work(_overflowing)), "stack overflow"),
    ],
    ids=["unknown-callee", "call-depth-overflow"],
)
def test_raising_instruction(make, message):
    """Same memory, I/O and position; the unobserved counts include every
    instruction before the raising one (the observed counts leave out the
    interrupted quantum)."""
    module = make()
    unobserved = _spawned(module, [("main", [])], 32)
    with pytest.raises(MachineError, match=message):
        unobserved.run()
    observed = _spawned(module, [("main", [])], 32)
    counter = _RetireCounter()
    with pytest.raises(MachineError, match=message):
        observed.run(counter)

    def without_counts(machine):
        memory, io_log, _, harts = machine_state(machine)
        # (func, label, index, result, halted): the retired count dropped
        return memory, io_log, [h[:3] + h[4:] for h in harts]

    assert without_counts(unobserved) == without_counts(observed)
    before_raise = counter.retired - 1  # on_retire precedes execution
    assert unobserved.total_retired == unobserved.harts[0].retired == before_raise
    assert observed.total_retired <= before_raise
