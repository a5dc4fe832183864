"""Backend contract tests: load/store/delete, corruption, atomicity."""

import json

import pytest

from repro.arch.crash import PowerFailure
from repro.service.backends import (
    DiskBackend,
    MemoryBackend,
    ShardedBackend,
    make_backend,
)
from repro.service.tenant import Request, Tenant, TenantConfig


def _snapshot_with_data():
    """A real CrashState carrying a couple of committed puts."""
    tenant = Tenant("seed", MemoryBackend(), config=TenantConfig(snapshot_every=0))
    tenant.boot()
    tenant.apply(Request("put", key=3, value=30))
    tenant.apply(Request("put", key=7, value=70))
    return tenant.capture()


@pytest.fixture(scope="module")
def snapshot():
    return _snapshot_with_data()


def _restore_table(backend, tenant_id):
    tenant = Tenant(tenant_id, backend, config=TenantConfig(snapshot_every=0))
    assert tenant.boot() is True
    return tenant.table()


@pytest.mark.parametrize("kind", ["memory", "disk", "sharded"])
def test_roundtrip(kind, snapshot, tmp_path):
    backend = make_backend(kind, state_dir=tmp_path)
    backend.store("t0", snapshot)
    assert _restore_table(backend, "t0") == {3: 30, 7: 70}
    backend.close()


@pytest.mark.parametrize("kind", ["memory", "disk", "sharded"])
def test_missing_is_cold_start(kind, tmp_path):
    backend = make_backend(kind, state_dir=tmp_path)
    assert backend.load("never-stored") is None
    backend.delete("never-stored")  # missing delete is not an error
    backend.close()


@pytest.mark.parametrize("kind", ["memory", "disk", "sharded"])
def test_delete_forgets(kind, snapshot, tmp_path):
    backend = make_backend(kind, state_dir=tmp_path)
    backend.store("t0", snapshot)
    backend.delete("t0")
    assert backend.load("t0") is None
    backend.close()


def test_memory_backend_clones(snapshot):
    backend = MemoryBackend()
    backend.store("t0", snapshot)
    loaded = backend.load("t0")
    loaded.nvm_image[999999] = 42  # mutating a load must not leak back
    assert 999999 not in backend.load("t0").nvm_image


def test_disk_corrupt_snapshot_quarantined(snapshot, tmp_path):
    backend = DiskBackend(tmp_path)
    backend.store("t0", snapshot)
    path = tmp_path / "t0.json"
    path.write_text('{"torn": ')
    assert backend.load("t0") is None  # cold start, not a crash
    assert backend.quarantined == 1
    assert path.with_suffix(".json.corrupt").exists()
    # The slot is reusable after quarantine.
    backend.store("t0", snapshot)
    assert backend.load("t0") is not None


def test_disk_unparseable_payload_quarantined(tmp_path):
    backend = DiskBackend(tmp_path)
    (tmp_path / "t0.json").write_text(json.dumps({"schema": 999}))
    assert backend.load("t0") is None
    assert backend.quarantined == 1


def _rewrite_schema(path, schema):
    payload = json.loads(path.read_text())
    payload["schema"] = schema
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("kind", ["disk", "sharded"])
def test_older_schema_is_a_clean_cold_start(kind, snapshot, tmp_path):
    """A schema-1 snapshot (checksums of the byte-wise fold) loads as a
    cold start: no quarantine, and no recovery over entries whose
    checksums would all read as torn."""
    backend = make_backend(kind, state_dir=tmp_path)
    backend.store("t0", snapshot)
    if kind == "disk":
        meta = tmp_path / "t0.json"
    else:
        gen = json.loads((tmp_path / "t0" / "CURRENT").read_text())["generation"]
        meta = tmp_path / "t0" / gen / "meta.json"
    _rewrite_schema(meta, 1)
    assert backend.load("t0") is None
    assert backend.quarantined == 0
    assert not list(tmp_path.rglob("*.corrupt"))
    tenant = Tenant("t0", backend, config=TenantConfig(snapshot_every=0))
    assert tenant.boot() is False
    assert tenant.table() == {}
    backend.close()


def test_sharded_layout_and_commit_point(snapshot, tmp_path):
    backend = ShardedBackend(tmp_path, shards=3)
    backend.store("t0", snapshot)
    base = tmp_path / "t0"
    current = json.loads((base / "CURRENT").read_text())["generation"]
    gen_dir = base / current
    assert (gen_dir / "meta.json").is_file()
    for k in range(3):
        assert (gen_dir / f"shard-{k}.json").is_file()
    # A second store flips CURRENT and prunes the old generation.
    backend.store("t0", snapshot)
    current2 = json.loads((base / "CURRENT").read_text())["generation"]
    assert current2 != current
    assert not (base / current).exists()


def test_sharded_digest_mismatch_quarantined(snapshot, tmp_path):
    backend = ShardedBackend(tmp_path, shards=2)
    backend.store("t0", snapshot)
    base = tmp_path / "t0"
    gen = json.loads((base / "CURRENT").read_text())["generation"]
    shard_path = base / gen / "shard-0.json"
    shard = json.loads(shard_path.read_text())
    key = next(iter(shard["image"]))
    shard["image"][key] = shard["image"][key] + 1  # flip one word
    shard_path.write_text(json.dumps(shard))
    assert backend.load("t0") is None
    assert backend.quarantined == 1


def test_sharded_torn_store_keeps_previous_generation(snapshot, tmp_path):
    """Shards on disk but CURRENT not flipped == the store never happened."""
    backend = ShardedBackend(tmp_path, shards=2)
    backend.store("t0", snapshot)
    base = tmp_path / "t0"
    before = (base / "CURRENT").read_text()
    # Simulate a crash mid-second-store: new generation dir written,
    # CURRENT untouched.
    (base / "gen-999999-0").mkdir()
    (base / "gen-999999-0" / "shard-0.json").write_text("{}")
    assert (base / "CURRENT").read_text() == before
    assert _restore_table(backend, "t0") == {3: 30, 7: 70}


def test_sharded_worker_pool_roundtrip(snapshot, tmp_path):
    backend = ShardedBackend(tmp_path, shards=4, workers=2)
    backend.store("t0", snapshot)
    assert _restore_table(backend, "t0") == {3: 30, 7: 70}
    backend.close()


def test_sharded_image_partition_is_complete(snapshot, tmp_path):
    backend = ShardedBackend(tmp_path, shards=5)
    backend.store("t0", snapshot)
    base = tmp_path / "t0"
    gen = json.loads((base / "CURRENT").read_text())["generation"]
    merged = {}
    for k in range(5):
        shard = json.loads((base / gen / f"shard-{k}.json").read_text())
        for addr in shard["image"]:
            assert addr not in merged  # shards are disjoint
        merged.update(shard["image"])
    assert {int(a): v for a, v in merged.items()} == dict(snapshot.nvm_image)


def test_make_backend_rejects_unknown_and_missing_dir(tmp_path):
    with pytest.raises(ValueError):
        make_backend("tape", state_dir=tmp_path)
    with pytest.raises(ValueError):
        make_backend("disk")


def test_snapshot_survives_midcrash_capture(tmp_path):
    """A snapshot taken from a crashed-then-recovered tenant restores."""
    backend = DiskBackend(tmp_path)
    tenant = Tenant("t0", backend, config=TenantConfig(snapshot_every=0))
    tenant.boot()
    tenant.apply(Request("put", key=1, value=11))
    with pytest.raises(PowerFailure):
        tenant.apply(Request("put", key=2, value=22), crash_at=20)
    tenant.recover()
    tenant.apply(Request("put", key=2, value=22))
    tenant.save_snapshot()
    assert _restore_table(backend, "t0") == {1: 11, 2: 22}
