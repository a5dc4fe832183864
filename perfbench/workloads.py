"""The four benchmark workloads.

Each workload builds its inputs from ``(seed, rep)``, calls only
``repro``'s public functions, checks what the program returned, and
reports one repetition as a :class:`Rep`.  Why each workload exists is
written down in ``NOTES.md``.

A repetition has a set-up phase (everything before the first timed
operation) and a measured phase.  Per-operation latencies come from
the benchmark's own clock: around ``execute_spec`` for the sweep,
around ``run_sweep_point`` / ``run_multi_crash_point`` for the
campaigns, and around ``Service.submit`` for the service.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from tracer import Patcher

HERE = Path(__file__).resolve().parent

#: Figure 8 thresholds run by the sweep, one cold sweep per repetition.
FIG8_LADDER = (32, 256, 1024)
FIG8_SCALE = 1.0
FIG8_REFERENCE = HERE / "reference" / "fig8_metrics.json"

EXHAUSTIVE_WORKLOAD = "genome"
EXHAUSTIVE_SCALE = 0.2

NESTED_WORKLOAD = "ocean"
NESTED_SCALE = 0.3
#: Primary crash points per repetition, one drawn from each of this many
#: equal slices of the event stream, plus the first and last event.
NESTED_PRIMARIES = 32
NESTED_THRESHOLD = 32  # the campaign default; see NOTES.md

SERVICE_TENANTS = 4
SERVICE_REQUESTS_PER_TENANT = 1000
SERVICE_CRASHES = 12
SERVICE_KEY_SPACE = 40
SERVICE_MIX = (("put", "get", "delete"), (5, 3, 2))


@dataclass
class Rep:
    """What one repetition measured and found."""

    # ``time.perf_counter()`` marks; the harness turns them into durations
    #: end of set-up (set-up starts at process start, so it has the imports)
    setup_end: float = 0.0
    work_start: float = 0.0
    work_end: float = 0.0
    #: (start, end) of every operation
    op_spans: List[Tuple[float, float]] = field(default_factory=list)
    #: completed units per repetition: specs, campaign outcomes, acked requests
    units: int = 0
    attempted: int = 0
    failed: int = 0
    #: output checks that did not hold; ``correct`` means none
    problems: List[str] = field(default_factory=list)
    instructions: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    #: per-layer counts only the workload knows
    extras: Dict[str, float] = field(default_factory=dict)
    #: request id -> index into ``op_spans`` (service only)
    request_ops: Dict[int, int] = field(default_factory=dict)
    summary: str = ""


class Workload:
    """One named workload; subclasses fill in :meth:`run`."""

    name = ""
    #: (module, attribute) whose calls are this workload's operations
    op_target: Tuple[str, str] = ("", "")
    #: nominal seconds of one repetition's measured phase at reference speed
    nominal_s = 1.0
    #: the repetition count is a multiple of this
    rep_multiple = 1

    def op_id(self):
        """How the traced run numbers operations (``True``: per call)."""
        return True

    def run(self, seed: int, rep: int, tmp: Path, patcher: Patcher,
            instructions: List[int]) -> Rep:
        raise NotImplementedError


def timed_calls(
    spans: List[Tuple[float, float]],
    instructions: List[int],
    first: Optional[List[Tuple[float, int]]] = None,
) -> Callable:
    """A :class:`Patcher` factory timing every call of a function the
    program calls internally (one spec of a sweep, one crash point of a
    campaign); ``first`` receives the first call's start time and the
    instruction count at that moment."""

    def make(original: Callable) -> Callable:
        def timed(*args, **kwargs):
            start = time.perf_counter()
            if first is not None and not first:
                first.append((start, instructions[0]))
            try:
                return original(*args, **kwargs)
            finally:
                spans.append((start, time.perf_counter()))

        return timed

    return make


def _rng(workload: str, seed: int, rep: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rep}")


def metrics_digest(metrics_dict: Dict[str, Any]) -> str:
    blob = json.dumps(metrics_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# fig8_sweep
# ---------------------------------------------------------------------------

def fig8_specs(threshold: int) -> List[Any]:
    """One cold Figure 8 sweep: every figure stand-in at ``threshold``
    plus its volatile baseline, listed explicitly so the sweep returns
    the baselines' metrics too."""
    from repro.api import RunSpec
    from repro.compiler import OptConfig
    from repro.eval.figures import ALL_BENCHMARKS

    specs = [
        RunSpec(name, scale=FIG8_SCALE, config=OptConfig.licm(threshold))
        for name in ALL_BENCHMARKS
    ]
    return specs + [spec.baseline() for spec in specs]


def fig8_key(spec) -> str:
    if not spec.effective_persistence:
        return f"{spec.workload}@volatile"
    return f"{spec.workload}@t{spec.effective_threshold}"


class Fig8Sweep(Workload):
    name = "fig8_sweep"
    op_target = ("repro.sweep.engine", "execute_spec")
    nominal_s = 6.5
    rep_multiple = len(FIG8_LADDER)

    def run(self, seed, rep, tmp, patcher, instructions):
        from repro.api import ResultCache, metrics_to_dict
        from repro.sweep import engine, run_specs

        out = Rep()
        # The ladder is the whole input, so the seed picks nothing here.
        # Spec order is fixed too: it moves the sweep's peak memory.
        threshold = FIG8_LADDER[rep % len(FIG8_LADDER)]
        specs = fig8_specs(threshold)
        store = ResultCache(tmp / "cache")
        reference = json.loads(FIG8_REFERENCE.read_text())
        patcher.patch_function(
            engine, "execute_spec", timed_calls(out.op_spans, instructions)
        )
        out.setup_end = out.work_start = time.perf_counter()
        before = instructions[0]
        report = run_specs(specs, workers=0, cache=store)
        out.work_end = time.perf_counter()
        out.instructions = instructions[0] - before

        out.attempted = len(specs)
        out.units = report.simulations
        retired = 0
        wrong = 0
        for spec, result in zip(specs, report.results):
            if result is None:
                out.failed += 1
                continue
            retired += result.metrics.retired
            digest = metrics_digest(metrics_to_dict(result.metrics))
            if reference.get(fig8_key(spec)) != digest:
                wrong += 1
        out.failed += wrong
        if report.failures:
            out.problems.append(f"{report.failures} specs failed")
        if wrong:
            out.problems.append(f"{wrong} specs differ from the pinned SystemMetrics")
        if report.simulations != len(specs):
            out.problems.append(
                f"cold sweep simulated {report.simulations} of {len(specs)} specs"
            )
        if retired != out.instructions:
            out.problems.append(
                f"SystemMetrics.retired sums to {retired}, interpreter ran "
                f"{out.instructions}"
            )
        out.summary = (
            f"t{threshold}: {len(specs)} specs, {report.simulations} simulated, "
            f"{out.failed} failed, {retired} instructions"
        )
        return out


# ---------------------------------------------------------------------------
# crash campaigns
# ---------------------------------------------------------------------------

def _count_outcomes(outcomes) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for outcome in outcomes:
        counts[outcome.status] = counts.get(outcome.status, 0) + 1
    return counts


class CrashExhaustive(Workload):
    name = "crash_exhaustive"
    op_target = ("repro.fault.campaign", "run_sweep_point")
    nominal_s = 7.0

    def run(self, seed, rep, tmp, patcher, instructions):
        # Exhaustive: every event is a crash point, so the seed has no
        # input to pick here.
        from repro.fault import campaign
        from repro.fault.campaign import (
            FAILURE_STATUSES,
            CampaignConfig,
            run_workload_campaign,
        )
        from repro.sweep import ResultCache

        out = Rep()
        first: List[Tuple[float, int]] = []
        patcher.patch_function(
            campaign,
            "run_sweep_point",
            timed_calls(out.op_spans, instructions, first),
        )
        result = run_workload_campaign(
            EXHAUSTIVE_WORKLOAD,
            CampaignConfig(replay=True),
            scale=EXHAUSTIVE_SCALE,
            cache=ResultCache(tmp / "cache"),
        )
        out.work_end = time.perf_counter()
        # Set-up (build, compile, trace capture and store) ends where the
        # first crash point starts.
        out.setup_end, first_instructions = first[0]
        out.work_start = out.setup_end
        out.instructions = instructions[0] - first_instructions

        out.outcomes = _count_outcomes(result.outcomes)
        out.units = out.attempted = len(result.outcomes)
        out.failed = sum(out.outcomes.get(s, 0) for s in FAILURE_STATUSES)
        out.extras["fault.points"] = len(out.op_spans)
        out.extras["fault.truncated_chains"] = result.truncated_chains
        if len(result.outcomes) != result.total_events:
            out.problems.append(
                f"{len(result.outcomes)} outcomes for {result.total_events} events"
            )
        if out.failed:
            # Single-core genome under the clean model is pinned clean.
            out.problems.append(f"{out.failed} failing outcomes {out.outcomes}")
        out.summary = (
            f"{result.total_events} events, outcomes {out.outcomes}, "
            f"fail_ratio {out.failed}/{out.attempted}"
        )
        return out


def stratified_points(rng: random.Random, total: int, k: int) -> List[int]:
    """Ascending crash points: one drawn from each of ``k`` equal slices
    of ``range(total)``, plus the first and last event, which the
    campaign's own sampler always includes as the classic edge cases."""
    points = {0, total - 1} if total else set()
    for i in range(k):
        lo, hi = i * total // k, (i + 1) * total // k
        if hi > lo:
            points.add(rng.randrange(lo, hi))
    return sorted(points)


class CrashNestedMt(Workload):
    name = "crash_nested_mt"
    op_target = ("repro.fault.multicrash", "run_multi_crash_point")
    nominal_s = 6.5

    def run(self, seed, rep, tmp, patcher, instructions):
        from repro.api import RunSpec, ResultCache, store_trace, trace_fingerprint
        from repro.compiler import CapriCompiler, OptConfig
        from repro.fault import multicrash
        from repro.fault.campaign import FAILURE_STATUSES, CampaignConfig
        from repro.fault.models import get_models
        from repro.trace.record import capture_trace
        from repro.trace.replay import TraceCampaignSource, golden_from_trace
        from repro.workloads import get_workload

        out = Rep()
        config = CampaignConfig(
            threshold=NESTED_THRESHOLD,
            depth=2,
            check=True,
            replay=True,
            minimize=False,
        )
        module, spawns = get_workload(NESTED_WORKLOAD).build(NESTED_SCALE)
        compiled = CapriCompiler(OptConfig.licm(config.threshold)).compile(module).module
        trace = capture_trace(
            compiled, spawns, quantum=config.quantum, max_steps=config.max_steps
        )
        spec = RunSpec(
            NESTED_WORKLOAD,
            scale=NESTED_SCALE,
            config=OptConfig.licm(config.threshold),
            quantum=config.quantum,
            max_steps=config.max_steps,
        )
        store_trace(ResultCache(tmp / "cache"), trace_fingerprint(spec), trace)
        golden = golden_from_trace(trace)
        source = TraceCampaignSource(trace, config)
        models = get_models(config.models)
        points = stratified_points(
            _rng(self.name, seed, rep), golden.total_events, NESTED_PRIMARIES
        )
        out.setup_end = out.work_start = time.perf_counter()
        before = instructions[0]
        outcomes = []
        truncated = 0
        for at in points:
            t0 = time.perf_counter()
            found, cut = multicrash.run_multi_crash_point(
                compiled, spawns, golden, at, models, config, source=source
            )
            out.op_spans.append((t0, time.perf_counter()))
            outcomes.extend(found)
            truncated += cut
        out.work_end = time.perf_counter()
        out.instructions = instructions[0] - before

        out.outcomes = _count_outcomes(outcomes)
        out.units = out.attempted = len(outcomes)
        out.failed = sum(out.outcomes.get(s, 0) for s in FAILURE_STATUSES)
        out.extras["fault.points"] = len(points)
        out.extras["fault.truncated_chains"] = truncated
        # The documented multi-hart baseline: clean crash points whose
        # recovery ends in ``mismatch`` while the checker stays silent.
        # Any other failure kind is new and makes the run incorrect.
        other = {
            s: n for s, n in out.outcomes.items()
            if s in FAILURE_STATUSES and s != "mismatch"
        }
        if other:
            out.problems.append(f"failures beyond the documented baseline: {other}")
        out.summary = (
            f"{len(points)} primaries of {golden.total_events} events, "
            f"outcomes {out.outcomes}, truncated {truncated}, "
            f"fail_ratio {out.failed}/{out.attempted}"
        )
        return out


# ---------------------------------------------------------------------------
# service_chaos
# ---------------------------------------------------------------------------

def service_inputs(seed: int, rep: int):
    """Per-tenant request scripts and the power-failure plan.

    The plan maps (tenant, apply-attempt ordinal) to the observer event
    at which power fails inside that request, like the loadgen's own
    schedules do.
    """
    from repro.service.tenant import Request

    rng = _rng("service_chaos", seed, rep)
    tenants = [f"t{i}" for i in range(SERVICE_TENANTS)]
    scripts = {}
    kinds, weights = SERVICE_MIX
    for tid in tenants:
        ops = []
        for _ in range(SERVICE_REQUESTS_PER_TENANT):
            key = rng.randrange(1, SERVICE_KEY_SPACE + 1)
            kind = rng.choices(kinds, weights=weights)[0]
            value = rng.randrange(1, 1 << 30) if kind == "put" else 0
            ops.append(Request(kind, key=key, value=value))
        scripts[tid] = ops
    universe = [
        (tid, ordinal)
        for tid in tenants
        for ordinal in range(SERVICE_REQUESTS_PER_TENANT)
    ]
    plans = {
        pick: rng.randint(1, 35)
        for pick in rng.sample(universe, SERVICE_CRASHES)
    }
    return tenants, scripts, plans


def expected_table(acked) -> Dict[int, int]:
    """The table the acked mutations describe, in tenant apply order."""
    model: Dict[int, int] = {}
    for _seq, request in sorted(
        (reply.applied_seq, request)
        for request, reply in acked
        if request.op in ("put", "delete")
    ):
        if request.op == "put":
            model[request.key] = request.value
        else:
            model.pop(request.key, None)
    return model


class ServiceChaos(Workload):
    name = "service_chaos"
    op_target = ("repro.service.tenant", "Tenant.apply")
    nominal_s = 5.0

    def __init__(self) -> None:
        self._request_ids: Dict[int, int] = {}

    def op_id(self):
        ids = self._request_ids
        return lambda args, kwargs: ids.get(id(args[1]), -1)

    def run(self, seed, rep, tmp, patcher, instructions):
        return asyncio.run(self._run(seed, rep, instructions))

    async def _run(self, seed, rep, instructions):
        from repro.service.chaos import CrashSchedule
        from repro.service.service import Service, ServiceConfig
        from repro.service.tenant import TenantConfig

        out = Rep()
        tenants, scripts, plans = service_inputs(seed, rep)
        for tid in tenants:
            for request in scripts[tid]:
                self._request_ids[id(request)] = len(self._request_ids)
        service = Service(
            ServiceConfig(
                tenant_ids=tenants,
                backend="memory",
                tenant=TenantConfig(threshold=64, slots=128, snapshot_every=4),
            ),
            chaos=CrashSchedule(plans),
        )
        await service.start()

        acked: Dict[str, list] = {tid: [] for tid in tenants}
        replies = []

        async def client(tid: str) -> None:
            for request in scripts[tid]:
                t0 = time.perf_counter()
                reply = await service.submit(tid, request)
                out.request_ops[self._request_ids[id(request)]] = len(out.op_spans)
                out.op_spans.append((t0, time.perf_counter()))
                replies.append(reply)
                if reply.ok:
                    acked[tid].append((request, reply))

        out.setup_end = out.work_start = time.perf_counter()
        before = instructions[0]
        await asyncio.gather(*(client(tid) for tid in tenants))
        out.work_end = time.perf_counter()
        out.instructions = instructions[0] - before

        counts = service.dead_letters.counts()
        recovered = service.verify_recovered()
        stats = service.stats()
        await service.stop()

        losses = 0
        for tid in tenants:
            dead_keys = {
                letter.request.key
                for letter in service.dead_letters.dead(tid)
                if letter.request.op in ("put", "delete")
            }
            model = expected_table(acked[tid])
            got = recovered[tid]
            losses += sum(
                1 for key in set(model) | set(got)
                if key not in dead_keys and model.get(key) != got.get(key)
            )
        rejected = sum(1 for reply in replies if reply.rejected)
        out.attempted = sum(len(ops) for ops in scripts.values())
        out.units = sum(len(a) for a in acked.values())
        out.failed = rejected + counts["dead"] + losses + counts["captured"]
        if losses or counts["captured"]:
            out.problems.append(
                f"{losses} acked-write losses, {counts['captured']} silent drops"
            )
        if len(replies) != out.attempted:
            out.problems.append(f"{len(replies)} replies to {out.attempted} requests")
        out.extras["service.replayed"] = sum(
            1 for a in acked.values() for _req, reply in a if reply.replayed
        )
        out.summary = (
            f"{out.attempted} requests, {out.units} acked, {rejected} rejected, "
            f"{stats['crashes']} power failures, {counts['replayed']} replayed, "
            f"{counts['dead']} dead, {losses} acked-write losses, "
            f"{counts['captured']} silent drops"
        )
        return out


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (Fig8Sweep(), CrashExhaustive(), CrashNestedMt(), ServiceChaos())
}
