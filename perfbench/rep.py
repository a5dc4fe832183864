"""One repetition of one workload, in a fresh process.

``run.py`` starts one of these per repetition, one at a time, so every
repetition pays the program's real start-up (imports, compile, trace
capture, service start) and its peak memory is its own.  The result
goes to ``--out`` as JSON; with ``--trace 1`` the span record goes next
to it.

    python3 perfbench/rep.py --workload crash_exhaustive --seed 1 --rep 0 \
        --trace 0 --tmp .perfbench/tmp --out .perfbench/rep.json

Every repetition samples the host's speed (``hostspeed``) and reports
its durations scaled to the reference speed.  The per-layer times of a
traced repetition stay plain host time: its shares need no scaling, and
the sampling chunks (about 1%) fall inside whichever span they interrupt.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hostspeed import HostSpeed  # noqa: E402

import layers  # noqa: E402
from tracer import Patcher, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def count_instructions(patcher: Patcher, box: list) -> None:
    """Count instructions the interpreter retires, in ``box[0]``."""
    from repro.isa.machine import Machine

    def make(original):
        def run(self, *args, **kwargs):
            before = self.total_retired
            try:
                return original(self, *args, **kwargs)
            finally:
                box[0] += self.total_retired - before

        return run

    patcher.patch_method(Machine, "run", make)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    shutil.rmtree(args.tmp, ignore_errors=True)
    args.tmp.mkdir(parents=True)
    speed = HostSpeed()
    patcher = Patcher()
    instructions = [0]
    tracer = None
    try:
        speed.start()
        if args.trace:
            tracer = Tracer()
        count_instructions(patcher, instructions)
        if tracer is not None:
            layers.install(tracer, patcher, workload.op_target, workload.op_id())
            root = tracer.enter("rep")
        rep = workload.run(args.seed, args.rep, args.tmp, patcher, instructions)
        if tracer is not None:
            tracer.exit(root)
    finally:
        speed.stop()
        patcher.restore()
        shutil.rmtree(args.tmp, ignore_errors=True)

    setup_factor = speed.factor(T0, rep.setup_end)
    work_factor = speed.factor(rep.work_start, rep.work_end)
    latencies = speed.scaled_spans(rep.op_spans)
    result = {
        "setup_s": speed.scaled(T0, rep.setup_end, setup_factor),
        "work_s": speed.scaled(rep.work_start, rep.work_end, work_factor),
        # the whole repetition, for the tracing-overhead comparison
        "active_s": speed.scaled(T0, rep.work_end, speed.factor(T0, rep.work_end)),
        "speed": work_factor,
        "op_latency_s": latencies,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "units": rep.units,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "problems": rep.problems,
        "instructions": rep.instructions,
        "outcomes": rep.outcomes,
        "summary": rep.summary,
    }
    if tracer is not None:
        result["layer"] = layers.per_layer_metrics(
            tracer,
            wall_ns=tracer.totals["rep"][1],
            instructions=instructions[0],
            outcomes=rep.outcomes,
            extras=rep.extras,
            # plain host time, like the spans it is compared with
            request_latency_s={
                rid: speed.scaled(*rep.op_spans[index], 1.0)
                for rid, index in rep.request_ops.items()
            },
        )
        spans_path = args.out.with_suffix(".spans.json")
        spans_path.write_text(json.dumps(tracer.to_json()))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
