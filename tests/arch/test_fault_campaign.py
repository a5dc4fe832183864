"""Exhaustive crash sweeps under the differential oracle.

The campaign's contract: with a clean power-loss model, crashing at
*every* observer event index and recovering must be observationally
equivalent to never crashing — for every index, over workloads with
non-idempotent updates, calls, branches, and I/O.
"""

from __future__ import annotations

import pytest

from repro.fault.campaign import (
    CampaignConfig,
    run_campaign,
    select_crash_points,
)
from repro.fault.oracle import golden_run

from tests.arch.conftest import (
    build_pointer_chase,
    build_update_loop,
    compile_capri,
)


def _sweep(module, spawns, **overrides):
    cfg = CampaignConfig(
        models=("clean",), strict=True, minimize=False, **overrides
    )
    return run_campaign(module, spawns, cfg, name="test")


class TestExhaustiveCleanSweep:
    def test_update_loop_every_index(self):
        """Read-modify-write loop: every crash index must recover exactly
        (lost or double-applied regions diverge immediately)."""
        module = compile_capri(build_update_loop(n_iters=8, arr_words=8))
        result = _sweep(module, [("main", [])])
        assert result.total_events > 50
        assert len(result.outcomes) == result.total_events
        assert result.ok, result.failures[0]
        assert all(o.status == "ok" for o in result.outcomes)

    def test_pointer_chase_every_index(self):
        """Linked-structure updates with calls and branches."""
        module = compile_capri(build_pointer_chase(depth=5))
        result = _sweep(module, [("main", [])])
        assert result.total_events > 50
        assert result.ok, result.failures[0]
        assert all(o.status == "ok" for o in result.outcomes)

    def test_multicore_every_index(self):
        from repro.ir import IRBuilder, verify_module

        b = IRBuilder("mc")
        arr = b.module.alloc("arr", 32)
        with b.function("worker", params=["base", "n"]) as f:
            with f.for_range(f.param(1)) as i:
                idx = f.and_(i, 15)
                addr = f.add(f.param(0), f.shl(idx, 3))
                f.store(f.add(f.load(addr), 1), addr)
            f.ret()
        verify_module(b.module)
        module = compile_capri(b.module)
        spawns = [("worker", [arr, 6]), ("worker", [arr + 16 * 8, 6])]
        result = _sweep(module, spawns)
        assert result.ok, result.failures[0]


class TestDeterminism:
    def test_same_seed_same_outcomes(self):
        module = compile_capri(build_update_loop(n_iters=6, arr_words=8))
        cfg = dict(models=("all",), strict=False, sample=20, minimize=False)
        a = run_campaign(module, [("main", [])], CampaignConfig(seed=7, **cfg))
        b = run_campaign(module, [("main", [])], CampaignConfig(seed=7, **cfg))
        assert [(o.event_index, o.status, o.detail) for o in a.outcomes] == [
            (o.event_index, o.status, o.detail) for o in b.outcomes
        ]

    def test_different_seed_different_points(self):
        module = compile_capri(build_update_loop(n_iters=8, arr_words=8))
        golden = golden_run(module, [("main", [])])
        pts_a = select_crash_points(golden.total_events, 15, seed=1)
        pts_b = select_crash_points(golden.total_events, 15, seed=2)
        assert pts_a != pts_b
        # Edge cases are always swept.
        for pts in (pts_a, pts_b):
            assert 0 in pts and golden.total_events - 1 in pts

    def test_exhaustive_when_sample_exceeds_events(self):
        assert select_crash_points(10, 100, seed=3) == list(range(10))
        assert select_crash_points(10, None, seed=3) == list(range(10))


class TestAdversarialSweep:
    def test_all_models_lenient_never_silent(self):
        """The headline guarantee: every injected corruption is either
        healed, detected, or quarantined — never a silent divergence."""
        module = compile_capri(build_update_loop(n_iters=8, arr_words=8))
        cfg = CampaignConfig(
            models=("all",), strict=False, sample=25, minimize=False
        )
        result = run_campaign(module, [("main", [])], cfg, name="test")
        assert result.ok, result.failures[0]
        assert all(
            o.status in ("ok", "quarantined", "finished")
            for o in result.outcomes
        )

    def test_all_models_strict_detects(self):
        module = compile_capri(build_update_loop(n_iters=8, arr_words=8))
        cfg = CampaignConfig(
            models=("torn-entry",), strict=True, sample=25, minimize=False
        )
        result = run_campaign(module, [("main", [])], cfg, name="test")
        assert result.ok, result.failures[0]
        # Wherever a data entry survived to be torn, strict mode raised.
        assert any(o.status == "detected" for o in result.outcomes)
        assert all(
            o.status == "detected"
            for o in result.outcomes
            if o.injected
        )


class TestHarnessWiring:
    def test_eval_harness_campaign(self):
        from repro.eval.harness import EvalHarness

        harness = EvalHarness(scale=0.05)
        result = harness.fault_campaign(
            "genome",
            CampaignConfig(sample=5, minimize=False),
        )
        assert result.workload == "genome"
        assert result.ok, result.failures[0]


class TestResumedInstructions:
    """``resumed_instructions`` counts what perfbench's
    ``arch.resumed_instructions`` counts: the sum of
    ``resume_and_finish(...).total_retired`` over the campaign."""

    @pytest.mark.parametrize("depth", [1, 2])
    def test_equals_the_resume_sum(self, depth, monkeypatch):
        from repro.fault import campaign

        resumed = []
        original = campaign.resume_and_finish

        def counting(*args, **kwargs):
            machine = original(*args, **kwargs)
            resumed.append(machine.total_retired)
            return machine

        monkeypatch.setattr(campaign, "resume_and_finish", counting)
        result = campaign.run_workload_campaign(
            "genome",
            CampaignConfig(
                sample=6, secondary_sample=3, depth=depth, minimize=False
            ),
            scale=0.05,
            cache=None,
        )
        assert result.ok, result.failures[0]
        stats = result.to_stats()
        assert stats["resumed_instructions"] == sum(resumed) > 0
        judged = [o for o in result.outcomes if o.resumed_instructions]
        assert len(judged) == len(resumed)
        if depth == 2:
            assert any(o.chain for o in result.outcomes)


class TestCli:
    def test_main_clean_sweep_exits_zero(self, capsys):
        from repro.fault.__main__ import main

        rc = main(
            [
                "--workload",
                "genome",
                "--scale",
                "0.05",
                "--sample",
                "8",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_main_adversarial_lenient(self, capsys):
        from repro.fault.__main__ import main

        rc = main(
            [
                "--workload",
                "genome",
                "--scale",
                "0.05",
                "--sample",
                "6",
                "--models",
                "all",
                "--lenient",
            ]
        )
        assert rc == 0
        assert "quarantined" in capsys.readouterr().out

    def test_unknown_model_rejected(self):
        from repro.fault.models import get_models

        with pytest.raises(KeyError):
            get_models(["no-such-model"])
