"""Re-pin the SystemMetrics digests the fig8_sweep workload checks.

    python3 perfbench/pin_reference.py

A change that only makes the program faster must leave every simulated
statistic identical, so re-pin only for a change that is meant to alter
simulated behaviour, and say so in that change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    FIG8_LADDER,
    FIG8_REFERENCE,
    fig8_key,
    fig8_specs,
    metrics_digest,
)


def main() -> int:
    from repro.api import metrics_to_dict
    from repro.sweep import run_specs

    pins = {}
    for threshold in FIG8_LADDER:
        specs = fig8_specs(threshold)
        report = run_specs(specs, workers=0, cache=None)
        if not report.ok:
            print(report.summary(), file=sys.stderr)
            return 1
        for spec, result in zip(specs, report.results):
            pins[fig8_key(spec)] = metrics_digest(metrics_to_dict(result.metrics))
    FIG8_REFERENCE.parent.mkdir(exist_ok=True)
    FIG8_REFERENCE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} specs in {FIG8_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
