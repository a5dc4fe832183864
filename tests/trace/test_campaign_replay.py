"""Campaign ≡ reference.

Every campaign reaches its crash points by replaying a captured trace
(:class:`~repro.trace.replay.TraceCampaignSource`).  Re-interpreting the
IR to every point (:class:`~repro.trace.replay.InterpretedSource`, judged
against :func:`~repro.fault.oracle.golden_run`) is the reference it must
match outcome for outcome: single-crash sweeps, fault models and the
minimizer, checker verdicts, and nested crashes.
"""

import pytest

from repro.compiler import CapriCompiler, OptConfig
from repro.fault.campaign import (
    CampaignConfig,
    run_campaign,
    run_workload_campaign,
)
from repro.fault.oracle import golden_run
from repro.trace.replay import InterpretedSource
from repro.workloads import get_workload


def _verdicts(result):
    return [
        (o.event_index, o.status, o.detail, o.injected, o.findings,
         tuple(o.chain), o.quarantined_entries, tuple(o.fenced_cores),
         o.tainted_addrs)
        for o in result.outcomes
    ]


def _compiled(workload, scale, threshold):
    module, spawns = get_workload(workload).build(scale)
    module = CapriCompiler(OptConfig.licm(threshold)).compile(module).module
    return module, spawns


def _run_both(config_kwargs, workload="genome", scale=0.08):
    config = CampaignConfig(**config_kwargs)
    module, spawns = _compiled(workload, scale, config.threshold)
    reference = run_campaign(
        module,
        spawns,
        config,
        name=workload,
        golden=golden_run(
            module, spawns, quantum=config.quantum, max_steps=config.max_steps
        ),
        source=InterpretedSource(module, spawns, config),
    )
    replayed = run_workload_campaign(workload, config, scale=scale, cache=None)
    assert reference.total_events == replayed.total_events
    assert _verdicts(reference) == _verdicts(replayed)
    assert reference.counts() == replayed.counts()
    assert reference.ok == replayed.ok
    return reference, replayed


def test_clean_sweep_verdicts_identical():
    _run_both(dict(threshold=32, sample=24, minimize=False))


def test_checked_sweep_verdicts_identical():
    _run_both(dict(threshold=32, sample=16, check=True, minimize=False))


def test_fault_model_verdicts_and_minimizer_identical():
    reference, replayed = _run_both(
        dict(
            threshold=32,
            sample=12,
            models=("clean", "torn-boundary"),
            strict=False,
            minimize=True,
        )
    )
    a, b = reference.minimized, replayed.minimized
    assert (a is None) == (b is None)
    if a is not None:
        assert (a.event_index, a.models) == (b.event_index, b.models)


def test_multi_crash_verdicts_identical():
    _run_both(
        dict(
            threshold=32,
            sample=6,
            depth=2,
            secondary_sample=4,
            minimize=False,
            check=True,
        )
    )


def test_exhaustive_sweep_single_pass():
    """Exhaustive ascending sweeps are the point of the cursor: the
    whole campaign must complete on one replay system (zero rebuilds)."""
    from repro.trace.record import capture_trace
    from repro.trace.replay import TraceCampaignSource, golden_from_trace

    config = CampaignConfig(threshold=32, minimize=False)
    module, spawns = _compiled("genome", 0.05, config.threshold)
    trace = capture_trace(
        module, spawns, quantum=config.quantum, max_steps=config.max_steps
    )
    source = TraceCampaignSource(trace, config)
    result = run_campaign(
        module,
        spawns,
        config,
        name="genome",
        golden=golden_from_trace(trace),
        source=source,
    )
    assert result.ok
    assert len(result.outcomes) == len(trace)
    assert source.rebuilds == 0


def test_interpreted_campaign_config_is_gone():
    with pytest.raises(ValueError, match="InterpretedSource"):
        CampaignConfig(replay=False)


@pytest.mark.parametrize(
    "cli, argv",
    [
        ("repro.fault.__main__", ["--workload", "genome", "--replay"]),
        ("repro.check.__main__", ["--mutants", "--replay"]),
    ],
)
def test_replay_flags_are_gone(cli, argv, capsys):
    import importlib

    with pytest.raises(SystemExit) as exc:
        importlib.import_module(cli).main(argv)
    assert exc.value.code == 2
    assert "--replay" in capsys.readouterr().err


def test_harness_fault_campaign_leaves_caller_config_alone(monkeypatch):
    """``EvalHarness.fault_campaign`` folds its own settings into a copy:
    a config reused across harnesses never carries the first harness's
    params, quantum or checker into the second."""
    import repro.fault.campaign as campaign
    from repro.arch.params import SimParams
    from repro.eval.harness import EvalHarness

    seen = []
    original = campaign.run_workload_campaign

    def spy(name, config, **kwargs):
        seen.append(config)
        return original(name, config, **kwargs)

    monkeypatch.setattr(campaign, "run_workload_campaign", spy)
    first = SimParams.scaled()
    second = SimParams.scaled().with_(nvm_write_parallelism=8)
    config = CampaignConfig(threshold=32, sample=6, minimize=False)
    pristine = CampaignConfig(threshold=32, sample=6, minimize=False)

    a = EvalHarness(params=first, scale=0.05, quantum=16, check=True)
    assert a.fault_campaign("genome", config).ok
    assert config == pristine
    b = EvalHarness(params=second, scale=0.05)
    assert b.fault_campaign("genome", config).ok
    assert config == pristine

    settings = [(c.params, c.quantum, c.check) for c in seen]
    assert settings == [(first, 16, True), (second, 32, False)]


#: ``run_mutant_matrix(workloads=["genome"], scale=0.3, threshold=32,
#: mutants=MATRIX_MUTANTS)`` rows as ``(mutant, workload, detected,
#: sorted kinds)``, pinned from the interpreted matrix before the matrix
#: moved onto captured traces.
MATRIX_MUTANTS = ["skip_undo_log", "recovery_skip_redo"]
MATRIX_ROWS = [
    ("skip_undo_log", "genome", True, ("corrupt-undo",)),
    ("recovery_skip_redo", "genome", True, ("lost-redo",)),
]


def test_mutant_matrix_identical_under_replay():
    """One functional capture per workload must reproduce the detection
    matrix the interpreted runs produced: same detected set, same
    taxonomy classes, clean baselines.

    Re-pin only for a deliberate change to the checker, a mutant, or the
    matrix parameters: run the call in ``MATRIX_ROWS``' comment, check
    every planted mutant is still detected with the class
    ``MUTANT_EXPECTATIONS`` warrants (``python -m repro check --mutants``
    exits 0), and paste the new rows with the reason in the commit
    message.
    """
    from repro.check.mutants import run_mutant_matrix

    result = run_mutant_matrix(
        workloads=["genome"], scale=0.3, threshold=32, mutants=MATRIX_MUTANTS
    )
    assert result.ok
    assert result.baseline_ok
    rows = [
        (o.mutant, o.workload, o.detected, tuple(sorted(o.kinds)))
        for o in result.outcomes
    ]
    assert rows == MATRIX_ROWS
