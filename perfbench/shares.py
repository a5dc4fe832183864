"""Time shares of a traced run, from its span files alone.

    python3 perfbench/run.py --workload crash_exhaustive --seed 1 --seconds 18 --trace 1
    python3 perfbench/shares.py .perfbench/crash_exhaustive-seed1-rep*.spans.json

For each span file (one traced repetition) prints the share of the
traced wall spent inside each group below, counting a span only where
no span of the same group encloses it.  These are the shares the
ROADMAP's re-anchor quotes: the compile share of a run, and the
resume / recovery share of a crash campaign.
"""

import json
import sys
from typing import Dict, List, Sequence

#: group -> span names (inclusive time: children count towards the group)
GROUPS: Dict[str, Sequence[str]] = {
    "compile": ("CapriCompiler.compile",),
    "interpret": ("Machine.run",),
    "resume": ("resume_and_finish",),
    "recover": ("recover", "run_recovery", "Tenant.recover"),
    "trace capture": ("capture_trace",),
    "replay cursor": ("TraceCampaignSource.capture_at",),
    "checker sweeps": (
        "PersistencyChecker.check_crash_state",
        "PersistencyChecker.check_recovered",
    ),
    "snapshots": ("Tenant.save_snapshot",),
}

#: Hot spans are not stored one by one; their totals are exact as long
#: as they never nest inside themselves, which holds for these.
HOT_GROUPS: Dict[str, Sequence[str]] = {
    "checksums": ("entry_checksum", "word_checksum"),
}


def outermost_ns(spans: List[list], names: Sequence[str]) -> int:
    """Summed duration of the spans named ``names`` that have no
    ancestor in the same group."""
    wanted = set(names)
    total = 0
    for span in spans:
        if span[0] not in wanted:
            continue
        parent = span[3]
        nested = False
        while parent >= 0:
            if spans[parent][0] in wanted:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            total += span[2] - span[1]
    return total


def shares(record: Dict) -> Dict[str, float]:
    wall = record["totals"]["rep"][1]
    out = {
        group: outermost_ns(record["spans"], names) / wall
        for group, names in GROUPS.items()
    }
    for group, names in HOT_GROUPS.items():
        out[group] = sum(
            record["totals"].get(name, [0, 0, 0])[1] for name in names
        ) / wall
    out["wall_s"] = wall / 1e9
    return out


def main(paths: List[str]) -> int:
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    for path in paths:
        with open(path) as fh:
            result = shares(json.load(fh))
        wall = result.pop("wall_s")
        parts = ", ".join(
            f"{group} {100 * share:.1f}%" for group, share in result.items() if share
        )
        print(f"{path}: traced wall {wall:.2f} s; {parts}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
