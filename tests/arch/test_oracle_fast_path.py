"""The differential oracle's fast path gives the verdicts it always gave.

``differential_check`` compares the two images with one dict equality and
builds the sorted mismatch list only when they differ; ``data_image``
masks the log area with one inline range test.  The reference below is
the straightforward implementation they replaced, kept here verbatim so
every field of every verdict (the address order included) can be held
against it.
"""

import pytest

from repro.arch.recovery import RecoveryReport
from repro.fault.oracle import (
    GoldenResult,
    OracleVerdict,
    _is_subsequence,
    data_image,
    differential_check,
)
from repro.ir.module import (
    CKPT_BASE,
    CKPT_CORE_STRIDE,
    DATA_BASE,
    Module,
    ckpt_slot_addr,
    is_ckpt_addr,
)
from repro.isa.machine import Machine


def reference_data_image(machine):
    return {
        addr: value
        for addr, value in machine.memory.items()
        if not is_ckpt_addr(addr)
    }


def reference_differential_check(golden, finished, pre_crash_io=(), report=None):
    final = reference_data_image(finished)
    addrs = set(golden.data) | set(final)
    mismatched = sorted(
        addr
        for addr in addrs
        if golden.data.get(addr, 0) != final.get(addr, 0)
    )

    observed = list(pre_crash_io) + list(finished.io_log)
    fenced = set(report.quarantined_cores) if report is not None else set()
    io_ok = True
    cores = {c for (c, _, _) in golden.io_log}
    for core in cores:
        if core in fenced:
            continue
        want = [(p, v) for (c, p, v) in golden.io_log if c == core]
        got = [(p, v) for (c, p, v) in observed if c == core]
        if not _is_subsequence(want, got):
            io_ok = False
            break

    return OracleVerdict(
        equivalent=not mismatched and io_ok,
        mismatched_addrs=mismatched,
        io_ok=io_ok,
    )


DATA = {DATA_BASE + 8 * i: (i * 7919) % 113 for i in range(40)}
GOLDEN_IO = [(0, 1, 5), (1, 1, 6), (0, 2, 7)]
SLOTS = [
    ckpt_slot_addr(core, reg, depth)
    for core, reg, depth in [(0, 0, 0), (0, 5, 3), (1, 2, 0), (3, 511, 63)]
]
#: Words just outside the log area: data as far as the mask is concerned.
EDGES = [CKPT_BASE - 8, CKPT_BASE + 64 * CKPT_CORE_STRIDE]


def _finished(memory, io_log=()):
    machine = Machine(Module())
    machine.memory = dict(memory)
    machine.io_log = list(io_log)
    return machine


def _with(base, **changes):
    image = dict(base)
    image.update(changes.get("set", {}))
    for addr in changes.get("drop", ()):
        del image[addr]
    return image


GOLDEN_WITH_EDGES = {**DATA, EDGES[0]: 1, EDGES[1]: 2}

CASES = {
    "equal": (DATA, DATA),
    "equal-with-edges": (GOLDEN_WITH_EDGES, GOLDEN_WITH_EDGES),
    "slots-only": (DATA, _with(DATA, set={a: 99 for a in SLOTS})),
    "slots-on-both-sides": (
        _with(DATA, set={SLOTS[0]: 1, SLOTS[1]: 2}),
        _with(DATA, set={SLOTS[1]: 3, SLOTS[3]: 4}),
    ),
    "one-word": (DATA, _with(DATA, set={DATA_BASE + 8 * 17: -1})),
    "words-and-slots": (
        DATA,
        _with(DATA, set={DATA_BASE + 24: 1, DATA_BASE + 240: 2, SLOTS[2]: 5}),
    ),
    "missing-word": (DATA, _with(DATA, drop=[DATA_BASE + 72, DATA_BASE + 16])),
    "extra-word": (DATA, _with(DATA, set={DATA_BASE + 8 * 500: 3})),
    "explicit-zero-vs-absent": (
        _with(DATA, set={DATA_BASE + 8 * 600: 0}),
        _with(DATA, set={DATA_BASE + 8 * 601: 0}),
    ),
    "edge-words-differ": (
        GOLDEN_WITH_EDGES,
        _with(GOLDEN_WITH_EDGES, set={EDGES[0]: 5, EDGES[1]: 6}),
    ),
}

IO_CASES = {
    "io-same": ([], GOLDEN_IO),
    "io-replayed": ([(0, 1, 5)], GOLDEN_IO),
    "io-lost": ([], GOLDEN_IO[:2]),
}


def _report(quarantined=()):
    report = RecoveryReport()
    report.quarantined_cores = list(quarantined)
    return report


@pytest.mark.parametrize("io_case", sorted(IO_CASES))
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize(
    "report", [None, _report(), _report([0])], ids=["none", "clean", "fenced"]
)
def test_verdict_matches_reference(case, io_case, report):
    golden_memory, finished_memory = CASES[case]
    pre_crash_io, io_log = IO_CASES[io_case]
    golden = GoldenResult(
        data=reference_data_image(_finished(golden_memory)),
        io_log=list(GOLDEN_IO),
        total_events=0,
    )
    finished = _finished(finished_memory, io_log)
    assert data_image(finished) == reference_data_image(finished)
    got = differential_check(golden, finished, pre_crash_io, report)
    want = reference_differential_check(golden, finished, pre_crash_io, report)
    assert got == want
    assert got.mismatched_addrs == sorted(got.mismatched_addrs)


def test_cases_cover_both_paths():
    equal = [
        name
        for name, (golden, finished) in CASES.items()
        if reference_data_image(_finished(golden))
        == reference_data_image(_finished(finished))
    ]
    assert set(equal) == {
        "equal",
        "equal-with-edges",
        "slots-only",
        "slots-on-both-sides",
    }
    # The zero-vs-absent images differ as dicts yet match word for word.
    golden_memory, finished_memory = CASES["explicit-zero-vs-absent"]
    golden = GoldenResult(reference_data_image(_finished(golden_memory)), [], 0)
    verdict = differential_check(golden, _finished(finished_memory))
    assert verdict == OracleVerdict(equivalent=True, mismatched_addrs=[], io_ok=True)
