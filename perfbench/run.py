"""The repository's benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload fig8_sweep --seed 1 --seconds 18 --trace 0

Runs the workload's repetitions one after another, each in a fresh
process (``rep.py``), and prints one JSON object as the last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from wrapped runs, plus the tracing overhead measured
against one unwrapped repetition of the same inputs.  Workloads,
metrics and layers are described in ``NOTES.md``.

Everything the run writes goes under ``.perfbench/`` in the checkout.
The checkout's ``src/`` must hold the program; without it the command
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
#: A repetition that runs longer than this is killed and the run fails.
REP_TIMEOUT_S = 150
MIN_REPS = 3
#: Tail percentiles tried, highest first; the first with at least ten
#: samples beyond it is reported.  It stops at p90: on a shared host the
#: p99 of a run tracks host stalls rather than the program (see NOTES.md).
TAIL_LADDER = (90.0, 75.0, 50.0)

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def repetitions(workload, seconds: int) -> int:
    """How many repetitions fill ``seconds`` at the workload's nominal
    speed: fixed by the arguments, so two runs with the same arguments
    do exactly the same work."""
    step = workload.rep_multiple
    return step * max(
        math.ceil(MIN_REPS / step), round(seconds / (workload.nominal_s * step))
    )


def rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples (the
    epsilon absorbs float error in ``q * n / 100``)."""
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def tail(values: List[float]) -> Tuple[float, float]:
    """(percentile, value) of the highest ladder percentile with at
    least ten samples above its rank."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        if n - rank(q, n) >= 10:
            return q, ordered[rank(q, n) - 1]
    return 50.0, ordered[rank(50.0, n) - 1]


def run_rep(workload: str, seed: int, rep: int, trace: int, tag: str) -> Dict:
    out = OUT_DIR / f"{workload}-seed{seed}-{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--rep", str(rep),
        "--trace", str(trace),
        "--tmp", str(OUT_DIR / "tmp" / f"{workload}-seed{seed}"),
        "--out", str(out),
    ]
    # subprocess.run kills and reaps the child if it overruns.
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S
    )
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"repetition {tag} of {workload} failed ({proc.returncode})")
    return json.loads(out.read_text())


def end_to_end(reps: List[Dict]) -> Tuple[Dict[str, float], str]:
    """Rates over the whole run (fig8's repetitions differ in threshold,
    so a median of their rates would jump between thresholds); set-up
    and p50 are medians over repetitions; the tail pools every
    repetition's operations, since it needs ten samples beyond it."""
    latencies = [x for r in reps for x in r["op_latency_s"]]
    q, tail_value = tail(latencies)
    work = sum(r["work_s"] for r in reps)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": max(r["rss_kb"] for r in reps) / 1024.0,
        "sim_minstr_per_s": sum(r["instructions"] for r in reps) / work / 1e6,
        "ops_per_s": sum(r["units"] for r in reps) / work,
        "op_p50_ms": statistics.median(
            statistics.median(r["op_latency_s"]) * 1e3 for r in reps
        ),
        "op_tail_ms": tail_value * 1e3,
    }
    note = f"op_tail_ms is p{q:g} of n={len(latencies)} operations"
    return metrics, note


UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_minstr_per_s": "Minstr/s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reps = repetitions(workload, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)

    overhead_pct = 0.0
    if args.trace:
        plain = run_rep(args.workload, args.seed, 0, 0, "untraced0")
    results = [
        run_rep(args.workload, args.seed, rep, args.trace, f"rep{rep}")
        for rep in range(reps)
    ]
    shutil.rmtree(OUT_DIR / "tmp", ignore_errors=True)
    if args.trace:
        overhead_pct = (results[0]["active_s"] / plain["active_s"] - 1.0) * 100.0

    for i, r in enumerate(results):
        print(f"{args.workload} rep {i}: {r['summary']}; setup {r['setup_s']:.3f} s, "
              f"measured {r['work_s']:.3f} s, scaled from a host at "
              f"{r['speed']:.2f} of reference speed")
    problems = [p for r in results for p in r["problems"]]
    for problem in problems:
        print(f"{args.workload}: CHECK FAILED: {problem}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"{args.workload}: fail_ratio {failed}/{attempted}")

    if args.trace:
        combined = layers.combine([r["layer"] for r in results], overhead_pct)
        print(f"{args.workload}: tracing overhead {overhead_pct:.1f}% "
              f"(traced vs untraced repetition 0)")
        metrics = {
            name: {"value": combined[name], "unit": unit}
            for name, unit in layers.PER_LAYER.items()
        }
    else:
        values, note = end_to_end(results)
        print(f"{args.workload}: {note}")
        metrics = {
            name: {"value": values[name], "unit": UNITS[name]} for name in UNITS
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
