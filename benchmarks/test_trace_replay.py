"""Trace capture/replay benchmarks: the engineering wins of repro.trace.

Three numbers matter and each is asserted, not just recorded:

* **capture overhead** — recording the columnar trace must stay within a
  small factor of the bare functional run (it rides the same interpreter
  loop, adding only column appends);
* **replay vs interpreted events/s** — a crash-free replay must not be
  slower than re-interpreting (it skips instruction decode entirely);
* **campaign speedup** — an exhaustive single-crash campaign (trace
  replay) must beat the same campaign through the reference
  interpreted source by a wide margin (the single-pass cursor turns
  O(events^2) arch work into O(events)).
"""

import time

import pytest

from repro.arch.system import run_workload
from repro.compiler import CapriCompiler, OptConfig
from repro.fault.campaign import CampaignConfig, run_campaign
from repro.fault.oracle import golden_run
from repro.isa import Machine
from repro.trace.record import capture_trace
from repro.trace.replay import InterpretedSource, replay_metrics
from repro.workloads import get_workload

#: Campaigns re-run the system once per crash point; keep the trace a
#: few thousand events so the interpreted side stays in benchmark range.
CAMPAIGN_SCALE = 0.15


@pytest.fixture(scope="module")
def compiled_workload():
    module, spawns = get_workload("genome").build(scale=0.4)
    capri = CapriCompiler(OptConfig.licm(256)).compile(module).module
    return capri, spawns


@pytest.fixture(scope="module")
def trace(compiled_workload):
    capri, spawns = compiled_workload
    return capture_trace(capri, spawns, quantum=32)


def test_capture_overhead(benchmark, compiled_workload):
    """Recording must stay within ~4x of the bare functional run."""
    capri, spawns = compiled_workload

    def functional():
        machine = Machine(capri)
        for fn, args in spawns:
            machine.spawn(fn, args)
        return machine.run()

    start = time.perf_counter()
    functional()
    t_bare = time.perf_counter() - start

    captured = benchmark(lambda: capture_trace(capri, spawns, quantum=32))
    t_capture = benchmark.stats["mean"]
    benchmark.extra_info["events"] = len(captured)
    benchmark.extra_info["bare_functional_s"] = round(t_bare, 4)
    benchmark.extra_info["overhead_x"] = round(t_capture / max(t_bare, 1e-9), 2)
    assert t_capture < 4.0 * t_bare + 0.05


def test_replay_not_slower_than_interpreted(benchmark, compiled_workload, trace):
    """Crash-free replay events/s >= interpreted full-system events/s."""
    capri, spawns = compiled_workload

    start = time.perf_counter()
    run_workload(capri, spawns, threshold=256, quantum=32)
    t_interp = time.perf_counter() - start

    benchmark(lambda: replay_metrics(trace, threshold=256))
    t_replay = benchmark.stats["mean"]
    events = len(trace)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["interpreted_events_per_s"] = int(
        events / max(t_interp, 1e-9)
    )
    benchmark.extra_info["replay_events_per_s"] = int(
        events / max(t_replay, 1e-9)
    )
    # Generous slack: both paths drive the same arch models; replay only
    # removes interpretation, it must never add systematic cost.
    assert t_replay < 1.5 * t_interp + 0.05


def test_exhaustive_campaign_speedup(benchmark):
    """Exhaustive campaign vs the interpreted reference source: >=3x
    here at benchmark scale (measured 7-13x at documentation scale),
    identical verdicts."""
    config = CampaignConfig(threshold=32, minimize=False)
    module, spawns = get_workload("genome").build(scale=CAMPAIGN_SCALE)
    module = CapriCompiler(OptConfig.licm(32)).compile(module).module

    start = time.perf_counter()
    interpreted = run_campaign(
        module,
        spawns,
        config,
        golden=golden_run(module, spawns),
        source=InterpretedSource(module, spawns, config),
    )
    t_interp = time.perf_counter() - start

    replayed = benchmark(lambda: run_campaign(module, spawns, config))
    t_replay = benchmark.stats["mean"]

    def verdicts(result):
        return [(o.event_index, o.status) for o in result.outcomes]

    assert verdicts(interpreted) == verdicts(replayed)
    speedup = t_interp / max(t_replay, 1e-9)
    benchmark.extra_info["crash_points"] = len(interpreted.outcomes)
    benchmark.extra_info["interpreted_s"] = round(t_interp, 3)
    benchmark.extra_info["speedup_x"] = round(speedup, 2)
    assert speedup > 3.0
