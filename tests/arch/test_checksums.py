"""Integrity checksums catch every single-field fault, deterministically.

``entry_checksum`` and ``word_checksum`` fold one 64-bit word per durable
field, a bijection of that word when the other fields are fixed (see
``repro.arch.proxy``).  So flipping any bit of any one durable field must
make ``intact`` false — with certainty, not with high probability.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.arch.nvm import WpqRecord
from repro.arch.proxy import KIND_BOUNDARY, KIND_DATA, ProxyEntry, word_checksum
from repro.isa.machine import Continuation

words = st.integers(min_value=-(2**63), max_value=2**63 - 1)
bits = st.integers(min_value=0, max_value=63)
names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=12,
)
frame = ("caller", "bb", 3, (1, 2), 0)
continuations = st.builds(
    Continuation,
    func_name=names,
    label=names,
    index=st.integers(min_value=0, max_value=4096),
    callstack=st.integers(min_value=0, max_value=4).map(lambda d: (frame,) * d),
)
ckpt_maps = st.dictionaries(
    st.integers(min_value=0, max_value=2**40), words, max_size=6
)


@st.composite
def entries(draw):
    entry = ProxyEntry(
        kind=draw(st.sampled_from([KIND_DATA, KIND_BOUNDARY])),
        region_seq=draw(st.integers(min_value=0, max_value=2**32)),
        create_time=0.0,
        addr=draw(st.integers(min_value=0, max_value=2**48)),
        undo=draw(words),
        redo=draw(words),
        region_id=draw(st.integers(min_value=-1, max_value=10_000)),
        continuation=draw(st.none() | continuations),
        ckpts=draw(ckpt_maps),
    )
    entry.redo_valid = draw(st.booleans())
    entry.refresh_checksum()
    return entry


def _flip_char(text, data):
    i = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=6))
    return text[:i] + chr(ord(text[i]) ^ (1 << bit)) + text[i + 1:]


INT_FIELDS = ("kind", "addr", "undo", "redo", "region_seq", "region_id")


@given(entries(), st.sampled_from(INT_FIELDS), bits)
def test_int_field_bit_flip_is_caught(entry, field, bit):
    assert entry.intact
    setattr(entry, field, getattr(entry, field) ^ (1 << bit))
    assert not entry.intact


@given(entries())
def test_valid_bit_flip_is_caught(entry):
    entry.redo_valid = not entry.redo_valid
    assert not entry.intact


@given(entries(), st.data())
def test_continuation_key_part_flip_is_caught(entry, data):
    cont = entry.continuation
    assume(cont is not None)
    part = data.draw(st.sampled_from(["func_name", "label", "index", "depth"]))
    if part in ("func_name", "label"):
        changed = {part: _flip_char(getattr(cont, part), data)}
    elif part == "index":
        changed = {"index": cont.index ^ (1 << data.draw(bits))}
    else:
        depth = cont.depth ^ (1 << data.draw(st.integers(min_value=0, max_value=3)))
        changed = {"callstack": (frame,) * depth}
    entry.continuation = dataclasses.replace(cont, **changed)
    assert not entry.intact


@given(entries(), st.data())
def test_staged_checkpoint_flip_is_caught(entry, data):
    assume(entry.ckpts)
    slot = data.draw(st.sampled_from(sorted(entry.ckpts)))
    bit = data.draw(bits)
    if data.draw(st.booleans()):
        entry.ckpts[slot] ^= 1 << bit
    else:
        flipped = slot ^ (1 << bit)
        assume(flipped not in entry.ckpts)
        entry.ckpts[flipped] = entry.ckpts.pop(slot)
    assert not entry.intact


@given(entries())
def test_staged_checkpoint_order_is_not_payload(entry):
    entry.ckpts = dict(reversed(list(entry.ckpts.items())))
    assert entry.intact


@given(st.integers(min_value=0, max_value=2**48), words, bits, st.booleans())
def test_wpq_record_flip_is_caught(addr, value, bit, flip_addr):
    rec = WpqRecord.make(addr, value, None)
    assert rec.intact
    if flip_addr:
        torn = WpqRecord(addr ^ (1 << bit), value, None, rec.checksum)
    else:
        torn = WpqRecord(addr, value ^ (1 << bit), None, rec.checksum)
    assert not torn.intact


@given(st.integers(min_value=0, max_value=2**48), words, bits)
def test_word_checksum_is_injective_in_each_argument(addr, value, bit):
    base = word_checksum(addr, value)
    assert word_checksum(addr ^ (1 << bit), value) != base
    assert word_checksum(addr, value ^ (1 << bit)) != base


# -- determinism across processes ---------------------------------------------

_PINNED_SCRIPT = """
from repro.arch.proxy import KIND_BOUNDARY, ProxyEntry, word_checksum
from repro.isa.machine import Continuation
cont = Continuation("worker", "loop.body", 7, (("main", "entry", 3, (1, 2), 0),))
entry = ProxyEntry(KIND_BOUNDARY, 12, 0.0, addr=0x1000, undo=-5, redo=2**62,
                   region_id=3, continuation=cont, ckpts={0x4000_0000: -1, 0x4000_0008: 9})
print(entry.checksum, word_checksum(0x1000, -5))
"""

#: The values ``_PINNED_SCRIPT`` prints, in every process.
PINNED = "6545415088599636633 13937931627836605740"


def test_checksums_are_reproducible_across_hash_seeds():
    src = str(Path(__file__).resolve().parents[2] / "src")
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", _PINNED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == PINNED
