"""The shared persistence contract, run against every on-disk store.

Each tier adapter drives one store through its own public API: the
record-log tiers (farm results, job journal, run manifests) and the
blob tier (compiled streams).  Every tier must:

- quarantine and count a torn tail, a flipped byte and a garbage line,
  and never serve them;
- refuse to clear through a symlinked or escaping path;
- keep pinned entries through ``clear`` and GC (tiers that take pins);
- rotate its quarantine under its size cap (record logs);
- read a directory written in the previous on-disk format with full
  hits and no corruption.
"""

from __future__ import annotations

import io
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro.store
from repro.cli import main
from repro.errors import ReproError
from repro.farm import CacheGC, Job, JobJournal
from repro.farm.cache import QUARANTINE_FILE, RESULTS_FILE, ResultCache
from repro.farm.journal import JOURNAL_FILE, JOURNAL_QUARANTINE_FILE
from repro.streams.store import StreamStore
from repro.telemetry.manifest import (
    RunManifest,
    read_manifests,
    validate_record,
    write_manifest,
)


def _legacy_crc(record: dict) -> str:
    """The CRC32 stores have always stamped: canonical JSON, no crc."""
    body = {name: value for name, value in record.items() if name != "crc"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(blob.encode('utf-8')) & 0xFFFFFFFF:08x}"


def _legacy_line(record: dict, crc: bool = True) -> str:
    if crc:
        record = dict(record, crc=_legacy_crc(record))
    return json.dumps(record, sort_keys=True)


# ---------------------------------------------------------------------------
# tier adapters
# ---------------------------------------------------------------------------

class _LogTier:
    """A record-log store: one JSONL file plus a quarantine sidecar."""

    log_name: str
    quarantine_name: str

    def log(self, d: Path) -> Path:
        return d / self.log_name

    def quarantine(self, d: Path) -> Path:
        return d / self.quarantine_name

    def damage(self, d: Path, kind: str, keys: list[str]) -> str:
        """Damage the store one way; returns the key that must vanish."""
        path = self.log(d)
        lines = path.read_text().splitlines()
        if kind == "torn_tail":
            path.write_text(path.read_text() + '{"key": "torn", "val')
            return ""
        if kind == "garbage_line":
            with path.open("a") as handle:
                handle.write("\x00\x7f garbage \x01\n")
            return ""
        # flipped byte: one character of record 1 changes, so its CRC
        # (or its JSON) no longer holds
        line = lines[1]
        at = len(line) - 2
        flipped = "1" if line[at] != "1" else "2"
        lines[1] = line[:at] + flipped + line[at + 1:]
        path.write_text("\n".join(lines) + "\n")
        return keys[1]


class ResultsTier(_LogTier):
    name = "results"
    log_name = RESULTS_FILE
    quarantine_name = QUARANTINE_FILE

    def seed(self, d: Path, n: int = 3) -> list[str]:
        cache = ResultCache(d)
        for i in range(n):
            cache.put(f"key-{i}", float(i), measure="m", seed=i)
        return [f"key-{i}" for i in range(n)]

    def served(self, d: Path) -> tuple[set[str], int]:
        cache = ResultCache(d)
        return {r["key"] for r in cache.entries()}, cache.corrupt

    def clear(self, d: Path) -> None:
        ResultCache(d).clear()

    def write_legacy(self, d: Path) -> list[str]:
        lines = [
            _legacy_line({"key": f"key-{i}", "measure": "m", "seed": i,
                          "value": i * 1.5, "elapsed": 0.25})
            for i in range(3)
        ]
        # a record from before CRCs were stamped
        lines.append(_legacy_line(
            {"key": "old", "measure": "m", "seed": 9, "value": 42}, crc=False
        ))
        (d / RESULTS_FILE).write_text("\n".join(lines) + "\n")
        return ["key-0", "key-1", "key-2", "old"]


class JournalTier(_LogTier):
    name = "journal"
    log_name = JOURNAL_FILE
    quarantine_name = JOURNAL_QUARANTINE_FILE

    def seed(self, d: Path, n: int = 3) -> list[str]:
        jobs = [Job("test.double", {}, seed=i) for i in range(n)]
        keys = [job.key() for job in jobs]
        JobJournal(d).queue(zip(jobs, keys), batch="b", client="c")
        return keys

    def served(self, d: Path) -> tuple[set[str], int]:
        journal = JobJournal(d)
        return {e.key for e in journal.entries()}, journal.corrupt

    def clear(self, d: Path) -> None:
        JobJournal(d).clear()

    def write_legacy(self, d: Path) -> list[str]:
        keys = [f"{i:064x}" for i in range(3)]
        lines = []
        for i, key in enumerate(keys):
            lines.append(_legacy_line({
                "op": "queue", "key": key, "measure": "test.double",
                "params": {}, "seed": i, "batch": "b", "client": "c",
                "replayable": True, "v": 1, "ts": 1.5,
            }))
        lines.append(_legacy_line(
            {"op": "lease", "key": keys[0], "epoch": 1, "v": 1, "ts": 2.0}
        ))
        (d / JOURNAL_FILE).write_text("\n".join(lines) + "\n")
        return keys


def _manifest(seed: int) -> RunManifest:
    return RunManifest(
        kind="run", name=f"run-{seed}", configuration="16K",
        config_hash="0" * 16, seed=seed,
    )


class ManifestTier(_LogTier):
    name = "manifests"
    log_name = "manifests.jsonl"
    quarantine_name = "manifests.quarantine.jsonl"

    def seed(self, d: Path, n: int = 3) -> list[str]:
        for i in range(n):
            write_manifest(_manifest(i), self.log(d))
        return [f"run-{i}" for i in range(n)]

    def served(self, d: Path) -> tuple[set[str], None]:
        # read_manifests keeps no counter: only the quarantine shows damage
        return {r["name"] for r in read_manifests(self.log(d))}, None

    def clear(self, d: Path) -> None:
        code = main(
            ["telemetry", "clear", "--manifest-path", str(self.log(d))]
        )
        if code != 0:
            raise ReproError(f"refusing to clear: the CLI exited {code}")

    def write_legacy(self, d: Path) -> list[str]:
        lines = []
        for i in range(3):
            record = _manifest(i).record()
            assert validate_record(record) == []
            lines.append(_legacy_line(record, crc=False))
        self.log(d).write_text("\n".join(lines) + "\n")
        return ["run-0", "run-1", "run-2"]


def _blob_key(i: int) -> str:
    return f"{i:02x}" + "cd" * 31  # 64 hex chars, distinct shard prefix


class StreamTier:
    name = "streams"

    def seed(self, d: Path, n: int = 3) -> list[str]:
        store = StreamStore(d)
        keys = [_blob_key(i) for i in range(n)]
        for i, key in enumerate(keys):
            store.put(key, np.arange(64, dtype=np.int64) + i)
        return keys

    def served(self, d: Path, keys: list[str]) -> tuple[set[str], int]:
        store = StreamStore(d)
        return {k for k in keys if store.get(k) is not None}, store.corrupt

    def damage(self, d: Path, kind: str, keys: list[str]) -> str:
        key = keys[1]
        blob = d / f"{key}.npy"
        data = bytearray(blob.read_bytes())
        if kind == "torn_tail":
            blob.write_bytes(bytes(data[: len(data) // 2]))
        elif kind == "flipped_byte":
            data[len(data) // 2] ^= 0xFF
            blob.write_bytes(bytes(data))
        else:
            (d / f"{key}.json").write_text("\x00\x7f garbage \x01\n")
        return key

    def clear(self, d: Path) -> None:
        StreamStore(d).clear()

    def write_legacy(self, d: Path) -> list[str]:
        keys = [_blob_key(i) for i in range(3)]
        for i, key in enumerate(keys):
            buffer = io.BytesIO()
            np.save(buffer, np.arange(100, dtype=np.int64) * (i + 1))
            data = buffer.getvalue()
            # the last entry sits in the two-level shard layout
            where = d / key[:2] / key[2:4] if i == 2 else d
            where.mkdir(parents=True, exist_ok=True)
            (where / f"{key}.npy").write_bytes(data)
            sidecar = {"key": key, "refs": 100, "blob_bytes": len(data),
                       "crc": f"{zlib.crc32(data) & 0xFFFFFFFF:08x}",
                       "descriptor": {"workload": "w"}}
            (where / f"{key}.json").write_text(
                json.dumps(sidecar, sort_keys=True) + "\n"
            )
        return keys


LOG_TIERS = [ResultsTier(), JournalTier(), ManifestTier()]
ALL_TIERS = LOG_TIERS + [StreamTier()]


def _served(tier, d: Path, keys: list[str]) -> tuple[set[str], int]:
    if isinstance(tier, StreamTier):
        return tier.served(d, keys)
    return tier.served(d)


# ---------------------------------------------------------------------------
# the contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["torn_tail", "flipped_byte", "garbage_line"])
@pytest.mark.parametrize("tier", ALL_TIERS, ids=lambda t: t.name)
def test_damage_is_quarantined_counted_and_never_served(tmp_path, tier, kind):
    keys = tier.seed(tmp_path)
    lost = tier.damage(tmp_path, kind, keys)
    served, corrupt = _served(tier, tmp_path, keys)
    assert served == set(keys) - {lost}
    assert corrupt in (1, None)
    if isinstance(tier, StreamTier):
        assert (tmp_path / "quarantine" / f"{lost}.npy").exists()
    else:
        assert len(tier.quarantine(tmp_path).read_text().splitlines()) == 1


@pytest.mark.parametrize("tier", LOG_TIERS, ids=lambda t: t.name)
@pytest.mark.parametrize("planted", ["log", "quarantine"])
def test_log_clear_refuses_symlinked_paths(tmp_path, tier, planted):
    store = tmp_path / "store"
    store.mkdir()
    tier.seed(store)
    victim = tmp_path / "precious.txt"
    victim.write_text("do not delete\n")
    link = tier.log(store) if planted == "log" else tier.quarantine(store)
    link.unlink(missing_ok=True)
    link.symlink_to(victim)
    with pytest.raises(ReproError, match="refusing to clear"):
        tier.clear(store)
    assert victim.read_text() == "do not delete\n"


@pytest.mark.parametrize("planted", ["blob", "shard_dir"])
def test_blob_clear_refuses_symlinked_and_escaping_paths(tmp_path, planted):
    store = tmp_path / "store"
    StreamTier().seed(store)
    outside = tmp_path / "outside"
    outside.mkdir()
    victim = outside / f"{'ee' * 32}.npy"
    victim.write_bytes(b"do not delete")
    if planted == "blob":
        (store / "planted.npy").symlink_to(victim)
    else:
        # ee/ is a real-looking shard dir whose files resolve outside
        (outside / "ee").mkdir()
        victim = outside / "ee" / victim.name
        victim.write_bytes(b"do not delete")
        (store / "ee").symlink_to(outside)
    with pytest.raises(ReproError, match="refusing to clear"):
        StreamTier().clear(store)
    assert victim.read_bytes() == b"do not delete"


class _Pinned:
    """The tiers whose stores take journal pins."""

    @staticmethod
    def results(d: Path, pinned: frozenset[str]) -> int:
        cache = ResultCache(d)
        cache.clear(pinned)
        return cache.pinned_skips

    @staticmethod
    def streams(d: Path, pinned: frozenset[str]) -> int:
        store = StreamStore(d)
        store.clear(pinned)
        return store.pinned_skips


PIN_TIERS = [
    (ResultsTier(), _Pinned.results, CacheGC.collect_farm_tier),
    (StreamTier(), _Pinned.streams, CacheGC.collect_stream_tier),
]


@pytest.mark.parametrize(
    "tier,clear,collect", PIN_TIERS, ids=["results", "streams"]
)
def test_pins_survive_clear_and_gc(tmp_path, tier, clear, collect):
    keys = tier.seed(tmp_path)
    pinned = frozenset({keys[0]})
    assert clear(tmp_path, pinned) == 1
    assert _served(tier, tmp_path, keys) == ({keys[0]}, 0)

    tier.seed(tmp_path)  # the others come back; GC must spare the pin
    report = collect(CacheGC(budget_bytes=0, pins=pinned), tmp_path)
    assert report.evicted == len(keys) - 1
    assert report.pinned_skips == 1
    assert _served(tier, tmp_path, keys) == ({keys[0]}, 0)


@pytest.mark.parametrize("tier", LOG_TIERS, ids=lambda t: t.name)
def test_quarantine_rotates_under_its_cap(tmp_path, tier, monkeypatch):
    monkeypatch.setattr(repro.store, "QUARANTINE_BUDGET_BYTES", 300)
    keys = tier.seed(tmp_path)
    with tier.log(tmp_path).open("a") as handle:
        for i in range(12):
            handle.write(f"{{garbage line {i:02d} {'x' * 60}\n")
    served, corrupt = _served(tier, tmp_path, keys)
    assert served == set(keys)
    assert corrupt in (12, None)
    quarantine = tier.quarantine(tmp_path)
    rotated = quarantine.with_name(quarantine.name + ".1")
    assert rotated.exists()
    assert quarantine.stat().st_size <= 300
    assert rotated.stat().st_size <= 300


@pytest.mark.parametrize("tier", ALL_TIERS, ids=lambda t: t.name)
def test_previous_format_reads_with_full_hits(tmp_path, tier):
    keys = tier.write_legacy(tmp_path)
    served, corrupt = _served(tier, tmp_path, keys)
    assert served == set(keys)
    assert corrupt in (0, None)
    if isinstance(tier, _LogTier):
        assert not tier.quarantine(tmp_path).exists()
