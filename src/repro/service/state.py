"""Durable-snapshot codec: :class:`~repro.arch.crash.CrashState` <-> JSON.

A tenant's persistent domain is exactly what a power failure preserves
(Sections 5.2/6.1): the NVM image, both proxy buffers' surviving entries
with their undo/redo words and valid bits, the staged register
checkpoints, the WPQ journal, and the durable PC checkpoints.  The
on-disk backends store that — nothing more, nothing less — so restoring
a tenant *is* crash recovery: load the snapshot, run
:func:`repro.arch.recovery.recover` over it, resume.

Checksums are serialised verbatim, never recomputed: a snapshot of a
torn entry must stay torn, so integrity verification still happens at
recovery time, not at codec time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.arch.crash import CrashState
from repro.arch.nvm import WpqRecord
from repro.arch.proxy import ProxyEntry
from repro.isa.machine import Continuation

#: Bump when the payload schema changes shape or meaning.  Schema 2:
#: proxy-entry and WPQ checksums use the word-granular fold
#: (``repro.arch.proxy``), so a schema-1 checksum no longer verifies.
SNAPSHOT_SCHEMA = 2


class SnapshotError(Exception):
    """A snapshot payload is structurally unusable."""


class StaleSnapshot(SnapshotError):
    """A snapshot written under an older schema: not corrupt, just no
    longer readable.  Backends treat it as a clean cold start, never as
    a quarantine (and never as a recovery over checksums that would all
    read as torn)."""


# ---------------------------------------------------------------------------
# continuations
# ---------------------------------------------------------------------------

def continuation_to_json(cont: Optional[Continuation]) -> Optional[Dict[str, Any]]:
    if cont is None:
        return None
    return {
        "func": cont.func_name,
        "label": cont.label,
        "index": cont.index,
        "callstack": [
            [name, label, index, list(regs), ret_reg]
            for (name, label, index, regs, ret_reg) in cont.callstack
        ],
    }


def continuation_from_json(payload: Optional[Dict[str, Any]]) -> Optional[Continuation]:
    if payload is None:
        return None
    return Continuation(
        func_name=payload["func"],
        label=payload["label"],
        index=int(payload["index"]),
        callstack=tuple(
            (name, label, int(index), tuple(int(r) for r in regs),
             None if ret_reg is None else int(ret_reg))
            for (name, label, index, regs, ret_reg) in payload["callstack"]
        ),
    )


# ---------------------------------------------------------------------------
# proxy entries
# ---------------------------------------------------------------------------

def entry_to_json(entry: ProxyEntry) -> Dict[str, Any]:
    return {
        "kind": entry.kind,
        "addr": entry.addr,
        "undo": entry.undo,
        "redo": entry.redo,
        "redo_valid": entry.redo_valid,
        "region_seq": entry.region_seq,
        "create_time": entry.create_time,
        "arrive_time": entry.arrive_time,
        "region_id": entry.region_id,
        "continuation": continuation_to_json(entry.continuation),
        "ckpts": {str(a): v for a, v in entry.ckpts.items()},
        "checksum": entry.checksum,
    }


def entry_from_json(payload: Dict[str, Any]) -> ProxyEntry:
    entry = ProxyEntry.__new__(ProxyEntry)
    entry.kind = int(payload["kind"])
    entry.addr = int(payload["addr"])
    entry.undo = int(payload["undo"])
    entry.redo = int(payload["redo"])
    entry.redo_valid = bool(payload["redo_valid"])
    entry.region_seq = int(payload["region_seq"])
    entry.create_time = float(payload["create_time"])
    entry.arrive_time = float(payload["arrive_time"])
    entry.region_id = int(payload["region_id"])
    entry.continuation = continuation_from_json(payload["continuation"])
    entry.ckpts = {int(a): int(v) for a, v in payload["ckpts"].items()}
    entry.checksum = int(payload["checksum"])
    return entry


# ---------------------------------------------------------------------------
# whole snapshots
# ---------------------------------------------------------------------------

def snapshot_to_payload(state: CrashState) -> Dict[str, Any]:
    """JSON-able image of one persistent domain."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "num_cores": state.num_cores,
        "nvm_image": {str(a): v for a, v in state.nvm_image.items()},
        "core_entries": [
            [entry_to_json(e) for e in entries] for entries in state.core_entries
        ],
        "pc_checkpoints": {
            str(core): [continuation_to_json(cont), region_id]
            for core, (cont, region_id) in state.pc_checkpoints.items()
        },
        "wpq": [[r.addr, r.value, r.prev, r.checksum] for r in state.wpq],
        "ckpt_shadow": {str(a): v for a, v in state.ckpt_shadow.items()},
    }


def payload_to_snapshot(payload: Dict[str, Any]) -> CrashState:
    """Rebuild a :class:`CrashState` from :func:`snapshot_to_payload` output."""
    if not isinstance(payload, dict):
        raise SnapshotError("snapshot payload is not a JSON object")
    schema = payload.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        if type(schema) is int and 1 <= schema < SNAPSHOT_SCHEMA:
            raise StaleSnapshot(f"snapshot schema {schema} is superseded")
        raise SnapshotError(f"unsupported snapshot schema {schema!r}")
    try:
        wpq: List[WpqRecord] = [
            WpqRecord(
                addr=int(addr),
                value=int(value),
                prev=None if prev is None else int(prev),
                checksum=int(checksum),
            )
            for (addr, value, prev, checksum) in payload["wpq"]
        ]
        return CrashState(
            nvm_image={int(a): int(v) for a, v in payload["nvm_image"].items()},
            core_entries=[
                [entry_from_json(e) for e in entries]
                for entries in payload["core_entries"]
            ],
            num_cores=int(payload["num_cores"]),
            pc_checkpoints={
                int(core): (continuation_from_json(cont), region_id)
                for core, (cont, region_id) in payload["pc_checkpoints"].items()
            },
            wpq=wpq,
            ckpt_shadow={int(a): int(v) for a, v in payload["ckpt_shadow"].items()},
        )
    except (KeyError, TypeError, ValueError) as err:
        raise SnapshotError(f"malformed snapshot payload: {err}") from err
