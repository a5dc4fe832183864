"""Which program functions the traced run wraps, and the per-layer
metrics derived from the spans they produce.

Every wrapped function becomes a span named after it; each span name
belongs to at most one per-layer metric (``*_s`` metrics are the summed
*self* time of their spans).  Spans of no metric (the per-operation
entry points, ``CapriSystem.finish``) count towards ``other_s``, so the
named self times plus ``other_s`` add up to ``traced_wall_s``.
"""

from __future__ import annotations

import importlib
import statistics
from typing import Callable, Dict, List, Optional, Tuple

from tracer import Patcher, Tracer

#: Campaign outcome statuses, in the order ``repro.fault.campaign``
#: documents them.
OUTCOME_STATUSES = (
    "ok",
    "finished",
    "detected",
    "quarantined",
    "mismatch",
    "silent-mismatch",
    "model-violation",
    "divergent-recovery",
    "error",
)

_OBSERVER_EVENTS = (
    "on_retire", "on_load", "on_store", "on_ckpt", "on_boundary",
    "on_fence", "on_atomic", "on_io", "on_halt",
)
_WATCHER_EVENTS = (
    "on_entry", "on_merge", "on_redo_drained", "on_redo_skipped",
    "on_boundary_drained", "on_writeback",
)

#: (metric or None, module, function or Class.method, hot)
TARGETS: List[Tuple[Optional[str], str, str, bool]] = [
    ("workloads.build_s", "repro.workloads.registry", "Workload.build", False),
    ("compiler.compile_s", "repro.compiler.pipeline", "CapriCompiler.compile", False),
    ("compiler.clone_s", "repro.compiler.clone", "clone_module", False),
    ("compiler.unroll_s", "repro.compiler.unrolling", "speculative_unroll", False),
    ("compiler.regions_s", "repro.compiler.regions", "form_regions", False),
    ("compiler.checkpoints_s", "repro.compiler.checkpoints", "insert_checkpoints", False),
    ("compiler.prune_s", "repro.compiler.pruning", "prune_checkpoints", False),
    ("compiler.licm_s", "repro.compiler.licm", "move_checkpoints_out_of_loops", False),
    ("ir.verify_s", "repro.ir.verifier", "verify_module", False),
    ("ir.liveness_s", "repro.ir.liveness", "compute_liveness", False),
    ("ir.reaching_s", "repro.ir.reaching", "compute_reaching_defs", False),
    ("isa.interp_s", "repro.isa.machine", "Machine.run", False),
    *[("arch.observer_s", "repro.arch.system", f"CapriSystem.{ev}", True)
      for ev in _OBSERVER_EVENTS],
    (None, "repro.arch.system", "CapriSystem.finish", False),
    ("arch.build_system_s", "repro.arch.system", "build_system", False),
    ("arch.checksum_s", "repro.arch.proxy", "entry_checksum", True),
    ("arch.checksum_s", "repro.arch.proxy", "word_checksum", True),
    ("arch.recover_s", "repro.arch.recovery", "recover", False),
    ("arch.run_recovery_s", "repro.arch.recovery", "run_recovery", False),
    ("arch.resume_s", "repro.arch.recovery", "resume_and_finish", False),
    ("trace.capture_s", "repro.trace.record", "capture_trace", False),
    ("trace.store_s", "repro.trace.codec", "store_trace", False),
    ("trace.cursor_s", "repro.trace.replay", "TraceCampaignSource.capture_at", False),
    ("fault.apply_faults_s", "repro.fault.models", "apply_faults", False),
    ("fault.judge_s", "repro.fault.campaign", "judge_recovered", False),
    ("fault.diff_check_s", "repro.fault.oracle", "differential_check", False),
    *[("check.observer_s", "repro.check.checker", f"PersistencyChecker.{ev}", True)
      for ev in _OBSERVER_EVENTS + _WATCHER_EVENTS],
    ("check.crash_state_s", "repro.check.checker", "PersistencyChecker.check_crash_state", False),
    ("check.recovered_s", "repro.check.checker", "PersistencyChecker.check_recovered", False),
    ("sweep.cache_get_s", "repro.sweep.cache", "ResultCache.get", False),
    ("sweep.cache_put_s", "repro.sweep.cache", "ResultCache.put", False),
    ("deps.hash_s", "repro.deps.fingerprint", "subsystem_hashes", False),
    ("deps.hash_s", "repro.deps.fingerprint", "code_version", False),
    ("service.apply_s", "repro.service.tenant", "Tenant.apply", False),
    ("service.recover_s", "repro.service.tenant", "Tenant.recover", False),
    ("service.snapshot_s", "repro.service.tenant", "Tenant.save_snapshot", False),
]

#: Summed ``SystemMetrics`` fields reported under ``arch.``.
SUMMED_SYSTEM_METRICS = ("proxy_entries", "nvm_writes_total", "stale_reads")

#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER: Dict[str, str] = {}
for _metric, _module, _attr, _hot in TARGETS:
    if _metric is not None:
        PER_LAYER[_metric] = "s"
PER_LAYER.update({
    "compiler.compiles": "count",
    "ir.liveness_calls": "count",
    "ir.reaching_calls": "count",
    "isa.instructions": "count",
    "isa.ns_per_instr": "ns",
    "arch.checksums": "count",
    "arch.recoveries": "count",
    "arch.resumed_instructions": "count",
    **{f"arch.{field}": "count" for field in SUMMED_SYSTEM_METRICS},
    "fault.points": "count",
    **{f"fault.outcomes.{status}": "count" for status in OUTCOME_STATUSES},
    "fault.truncated_chains": "count",
    "sweep.cache_puts": "count",
    "service.queue_wait_ms": "ms",
    "service.snapshots": "count",
    "service.replayed": "count",
    "service.recovery_p50_ms": "ms",
    "traced_wall_s": "s",
    "other_s": "s",
    "tracing_overhead_pct": "%",
})


def _resolve(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".", 1)
        return getattr(module, cls_name), method
    return module, attr


def _post_finish(tracer: Tracer, args, kwargs, result) -> None:
    if result is not None:
        for field in SUMMED_SYSTEM_METRICS:
            tracer.count(f"arch.{field}", getattr(result, field))


def _post_resume(tracer: Tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.count("arch.resumed_instructions", result.total_retired)


_POST: Dict[str, Callable] = {
    "CapriSystem.finish": _post_finish,
    "resume_and_finish": _post_resume,
}


def _patch(patcher: Patcher, module_name: str, attr: str, make: Callable) -> None:
    owner, name = _resolve(module_name, attr)
    if isinstance(owner, type):
        patcher.patch_method(owner, name, make)
    else:
        patcher.patch_function(owner, name, make)


def install(
    tracer: Tracer, patcher: Patcher, op_target: Tuple[str, str], op_id=True
) -> None:
    """Wrap every target, plus the workload's per-operation entry point
    ``op_target`` (module, attribute), whose spans start a new op id."""
    for _metric, module_name, attr, hot in TARGETS:
        _patch(patcher, module_name, attr,
               tracer.wrapper(attr, hot=hot, post=_POST.get(attr)))
    _patch(patcher, *op_target, tracer.wrapper("op:" + op_target[1], op=op_id))


def _spans_of(tracer: Tracer, names) -> List[list]:
    wanted = set(names)
    return [span for span in tracer.spans if span[0] in wanted]


def per_layer_metrics(
    tracer: Tracer,
    wall_ns: int,
    instructions: int,
    outcomes: Dict[str, int],
    extras: Dict[str, float],
    request_latency_s: Optional[Dict[int, float]] = None,
) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (before aggregation)."""
    out: Dict[str, float] = {name: 0 for name in PER_LAYER}
    for metric, _module, attr, _hot in TARGETS:
        if metric is not None:
            out[metric] += tracer.self_ns(attr) / 1e9
    out["compiler.compiles"] = tracer.calls("CapriCompiler.compile")
    out["ir.liveness_calls"] = tracer.calls("compute_liveness")
    out["ir.reaching_calls"] = tracer.calls("compute_reaching_defs")
    out["isa.instructions"] = instructions
    out["arch.checksums"] = tracer.calls("entry_checksum") + tracer.calls("word_checksum")
    out["arch.recoveries"] = tracer.calls("run_recovery")
    out["sweep.cache_puts"] = tracer.calls("ResultCache.put")
    out["service.snapshots"] = tracer.calls("Tenant.save_snapshot")
    for name, value in tracer.counts.items():
        out[name] = value
    for status in OUTCOME_STATUSES:
        out[f"fault.outcomes.{status}"] = outcomes.get(status, 0)
    for name, value in extras.items():
        out[name] = value
    recoveries = _spans_of(tracer, ["Tenant.recover"])
    if recoveries:
        out["service.recovery_p50_ms"] = statistics.median(
            (end - start) / 1e6 for _n, start, end, _p, _op in recoveries
        )
    if request_latency_s:
        executing: Dict[int, int] = {}
        for _n, start, end, _p, op in _spans_of(
            tracer, ["Tenant.apply", "Tenant.recover"]
        ):
            executing[op] = executing.get(op, 0) + (end - start)
        out["service.queue_wait_ms"] = statistics.median(
            latency * 1e3 - executing.get(rid, 0) / 1e6
            for rid, latency in request_latency_s.items()
        )
    out["traced_wall_s"] = wall_ns / 1e9
    named = sum(
        out[name] for name, unit in PER_LAYER.items()
        if unit == "s" and name not in ("traced_wall_s", "other_s")
    )
    out["other_s"] = out["traced_wall_s"] - named
    return out


def combine(reps: List[Dict[str, float]], overhead_pct: float) -> Dict[str, float]:
    """Sum per-repetition metrics; ratios and medians are re-derived."""
    out: Dict[str, float] = {name: 0 for name in PER_LAYER}
    for rep in reps:
        for name in PER_LAYER:
            out[name] += rep.get(name, 0)
    for name in ("service.queue_wait_ms", "service.recovery_p50_ms"):
        out[name] = statistics.median(rep.get(name, 0) for rep in reps)
    instructions = out["isa.instructions"]
    out["isa.ns_per_instr"] = (
        out["isa.interp_s"] * 1e9 / instructions if instructions else 0.0
    )
    out["tracing_overhead_pct"] = overhead_pct
    return out
