"""Pluggable tenant-state backends: where a persistence domain lives.

Three implementations behind one abstraction (mirroring the pluggable
persistence layers of actor runtimes):

* :class:`MemoryBackend` — snapshots held in process memory.  Survives
  tenant restarts within one service lifetime; the fastest option and
  the loadgen default.
* :class:`DiskBackend` — one atomically-replaced JSON file per tenant.
  Torn or unreadable snapshots are quarantined (renamed ``*.corrupt``)
  and treated as a cold start, never a crash — the same contract as
  :class:`repro.sweep.cache.ResultCache`.  A snapshot of an older schema
  is a plain cold start: it is not corrupt, so it is not quarantined.
* :class:`ShardedBackend` — the NVM image split across N shard files,
  written (optionally) by a pool of worker processes, with a
  generation-directory scheme: a snapshot becomes current only when the
  small ``CURRENT`` pointer file is atomically replaced, so a crash
  mid-store leaves the previous generation intact.  Per-shard digests
  recorded in the generation's meta file catch cross-file tears.

All backends speak :class:`~repro.arch.crash.CrashState` — the exact
persistent domain a power failure preserves — so *restoring* a tenant is
literally crash recovery over the loaded snapshot.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import tempfile
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.arch.crash import CrashState
from repro.service.state import (
    SnapshotError,
    StaleSnapshot,
    payload_to_snapshot,
    snapshot_to_payload,
)

_SAFE_ID = re.compile(r"[^A-Za-z0-9._-]")


def _fs_name(tenant_id: str) -> str:
    """Filesystem-safe name for a tenant id (collisions are the caller's
    problem — service tenant ids are already ``t0``-style slugs)."""
    return _SAFE_ID.sub("_", tenant_id) or "_"


def _atomic_write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".snap-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _image_digest(image: Dict[int, int]) -> str:
    blob = json.dumps(
        sorted(image.items()), separators=(",", ":")
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class StateBackend(ABC):
    """Durable home of tenant persistence domains."""

    name = "abstract"

    @abstractmethod
    def load(self, tenant_id: str) -> Optional[CrashState]:
        """The tenant's last stored snapshot, or ``None`` (cold start)."""

    @abstractmethod
    def store(self, tenant_id: str, state: CrashState) -> None:
        """Durably record ``state`` as the tenant's current snapshot."""

    @abstractmethod
    def delete(self, tenant_id: str) -> None:
        """Forget the tenant's snapshot (missing is not an error)."""

    def close(self) -> None:
        """Release pools/handles; further use is undefined."""


# ---------------------------------------------------------------------------
# in-memory
# ---------------------------------------------------------------------------

class MemoryBackend(StateBackend):
    """Snapshots in process memory (cloned on both sides: the backend
    must never alias a live pipeline)."""

    name = "memory"

    def __init__(self) -> None:
        self._snapshots: Dict[str, CrashState] = {}
        self.stores = 0
        self.loads = 0

    def load(self, tenant_id: str) -> Optional[CrashState]:
        state = self._snapshots.get(tenant_id)
        if state is None:
            return None
        self.loads += 1
        return state.clone()

    def store(self, tenant_id: str, state: CrashState) -> None:
        self._snapshots[tenant_id] = state.clone()
        self.stores += 1

    def delete(self, tenant_id: str) -> None:
        self._snapshots.pop(tenant_id, None)


# ---------------------------------------------------------------------------
# one JSON file per tenant
# ---------------------------------------------------------------------------

class DiskBackend(StateBackend):
    """One atomically-replaced snapshot file per tenant."""

    name = "disk"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.stores = 0
        self.loads = 0
        self.quarantined = 0

    def _path(self, tenant_id: str) -> Path:
        return self.root / f"{_fs_name(tenant_id)}.json"

    def load(self, tenant_id: str) -> Optional[CrashState]:
        path = self._path(tenant_id)
        try:
            with open(path, "r") as fh:
                payload = json.load(fh)
            state = payload_to_snapshot(payload)
        except (FileNotFoundError, StaleSnapshot):
            return None
        except (ValueError, OSError, SnapshotError):
            self._quarantine(path)
            return None
        self.loads += 1
        return state

    def store(self, tenant_id: str, state: CrashState) -> None:
        _atomic_write_json(self._path(tenant_id), snapshot_to_payload(state))
        self.stores += 1

    def delete(self, tenant_id: str) -> None:
        try:
            self._path(tenant_id).unlink()
        except OSError:
            pass

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            pass
        self.quarantined += 1


# ---------------------------------------------------------------------------
# sharded, multi-process
# ---------------------------------------------------------------------------

def _write_shard(path_str: str, payload: dict) -> None:
    """Worker-side shard write (module-level: must be picklable)."""
    _atomic_write_json(Path(path_str), payload)


class ShardedBackend(StateBackend):
    """NVM image sharded across files; generation flip makes it atomic.

    Layout per tenant::

        <root>/<tenant>/
          CURRENT            -> "gen-000042"   (atomically replaced)
          gen-000042/
            meta.json        everything but the image + shard digests
            shard-0.json     {"image": {...}, "digest": ...}
            ...

    ``workers > 0`` writes the shard files through a shared
    :class:`concurrent.futures.ProcessPoolExecutor`; the pool is created
    lazily and the backend falls back to in-process writes if process
    spawning is unavailable.
    """

    name = "sharded"

    def __init__(
        self, root: Union[str, Path], shards: int = 4, workers: int = 0
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.root = Path(root)
        self.shards = shards
        self.workers = workers
        self.stores = 0
        self.loads = 0
        self.quarantined = 0
        self._pool = None
        self._pool_broken = False

    # -- paths ---------------------------------------------------------------

    def _dir(self, tenant_id: str) -> Path:
        return self.root / _fs_name(tenant_id)

    # -- pool ----------------------------------------------------------------

    def _get_pool(self):
        if self.workers <= 0 or self._pool_broken:
            return None
        if self._pool is None:
            try:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            except (OSError, ImportError):
                self._pool_broken = True
                return None
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- store ---------------------------------------------------------------

    def store(self, tenant_id: str, state: CrashState) -> None:
        base = self._dir(tenant_id)
        base.mkdir(parents=True, exist_ok=True)
        gen = f"gen-{self.stores:06d}-{os.getpid()}"
        gen_dir = base / gen

        payload = snapshot_to_payload(state)
        image = payload.pop("nvm_image")
        buckets: List[Dict[str, int]] = [{} for _ in range(self.shards)]
        for addr_str, value in image.items():
            buckets[int(addr_str) % self.shards][addr_str] = value

        shard_jobs: List[Tuple[Path, dict]] = []
        digests = []
        for k, bucket in enumerate(buckets):
            digest = _image_digest({int(a): v for a, v in bucket.items()})
            digests.append(digest)
            shard_jobs.append(
                (gen_dir / f"shard-{k}.json",
                 {"shard": k, "digest": digest, "image": bucket})
            )

        pool = self._get_pool()
        if pool is not None:
            try:
                futures = [
                    pool.submit(_write_shard, str(path), data)
                    for path, data in shard_jobs
                ]
                for fut in futures:
                    fut.result()
            except (OSError, RuntimeError):
                # Pool died (e.g. forbidden process spawn): degrade to
                # serial writes for the rest of this backend's life.
                self._pool_broken = True
                for path, data in shard_jobs:
                    _write_shard(str(path), data)
        else:
            for path, data in shard_jobs:
                _write_shard(str(path), data)

        payload["shards"] = self.shards
        payload["shard_digests"] = digests
        _atomic_write_json(gen_dir / "meta.json", payload)
        # The commit point: CURRENT flips to the new generation only
        # after every shard and the meta file are fully on disk.
        _atomic_write_json(base / "CURRENT", {"generation": gen})
        self.stores += 1
        self._prune(base, keep=gen)

    def _prune(self, base: Path, keep: str) -> None:
        for child in base.glob("gen-*"):
            if child.name != keep and child.is_dir():
                shutil.rmtree(child, ignore_errors=True)

    # -- load ----------------------------------------------------------------

    def load(self, tenant_id: str) -> Optional[CrashState]:
        base = self._dir(tenant_id)
        current = base / "CURRENT"
        try:
            with open(current, "r") as fh:
                gen = json.load(fh)["generation"]
            gen_dir = base / gen
            with open(gen_dir / "meta.json", "r") as fh:
                payload = json.load(fh)
            shards = int(payload.pop("shards"))
            digests = payload.pop("shard_digests")
            image: Dict[str, int] = {}
            for k in range(shards):
                with open(gen_dir / f"shard-{k}.json", "r") as fh:
                    shard = json.load(fh)
                bucket = shard["image"]
                if _image_digest({int(a): v for a, v in bucket.items()}) != digests[k]:
                    raise SnapshotError(f"shard {k} digest mismatch")
                image.update(bucket)
            payload["nvm_image"] = image
            state = payload_to_snapshot(payload)
        except (FileNotFoundError, StaleSnapshot):
            return None
        except (ValueError, KeyError, TypeError, OSError, SnapshotError):
            self._quarantine(current)
            return None
        self.loads += 1
        return state

    def delete(self, tenant_id: str) -> None:
        shutil.rmtree(self._dir(tenant_id), ignore_errors=True)

    def _quarantine(self, current: Path) -> None:
        try:
            os.replace(current, current.with_suffix(".corrupt"))
        except OSError:
            pass
        self.quarantined += 1


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------

def make_backend(
    kind: str,
    state_dir: Union[str, Path, None] = None,
    shards: int = 4,
    workers: int = 0,
) -> StateBackend:
    """Build a backend from CLI-ish parameters."""
    if kind == "memory":
        return MemoryBackend()
    if state_dir is None:
        raise ValueError(f"backend {kind!r} needs a state directory")
    if kind == "disk":
        return DiskBackend(state_dir)
    if kind == "sharded":
        return ShardedBackend(state_dir, shards=shards, workers=workers)
    raise ValueError(
        f"unknown backend {kind!r}; known: memory, disk, sharded"
    )
