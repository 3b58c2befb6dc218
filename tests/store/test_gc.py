"""GC over damaged stores, and what ``pinned_skips`` counts."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.farm import CacheGC
from repro.farm.cache import QUARANTINE_FILE, RESULTS_FILE, ResultCache
from repro.streams.store import StreamStore


def test_gc_budgets_verified_records_and_quarantines_the_rest(tmp_path):
    """A CRC-damaged newest record and a torn tail must not take budget
    from intact records, and both end up in quarantine."""
    cache = ResultCache(tmp_path)
    for i in range(4):
        cache.put(f"key-{i}", float(i), measure="m", seed=i)
    path = tmp_path / RESULTS_FILE
    lines = path.read_text().splitlines()
    damaged = lines[3].replace('"value": 3.0', '"value": 4.0')
    assert damaged != lines[3]
    torn = '{"key": "torn", "val'
    path.write_text("\n".join(lines[:3] + [damaged, torn]) + "\n")
    budget = sum(len(line) + 1 for line in lines[:3])

    report = CacheGC(budget_bytes=budget).collect_farm_tier(tmp_path)

    assert report.evicted == 0
    fresh = ResultCache(tmp_path)
    assert [fresh.get(f"key-{i}") for i in range(3)] == [
        (True, 0.0), (True, 1.0), (True, 2.0)
    ]
    assert len(fresh) == 3
    quarantined = (tmp_path / QUARANTINE_FILE).read_text()
    assert damaged in quarantined and torn in quarantined


def _results(directory, n):
    cache = ResultCache(directory)
    keys = [f"{i:064x}" for i in range(n)]
    for i, key in enumerate(keys):
        cache.put(key, float(i), measure="m", seed=i)
    lines = (directory / RESULTS_FILE).read_text().splitlines()
    return keys, len(lines[0]) + 1  # newest last: append order


def _streams(directory, n):
    store = StreamStore(directory)
    keys = [f"{i:02x}" + "ab" * 31 for i in range(n)]
    for i, key in enumerate(keys):
        store.put(key, np.arange(64, dtype=np.int64) + i)
        blob = directory / f"{key}.npy"
        stat = blob.stat()
        # oldest first: key i was last used (n - i) thousand seconds ago
        os.utime(blob, (stat.st_atime - (n - i) * 1000, stat.st_mtime))
    entry = (directory / f"{keys[0]}.npy").stat().st_size + (
        directory / f"{keys[0]}.json"
    ).stat().st_size
    return keys, entry


TIERS = {
    "farm": (_results, CacheGC.collect_farm_tier),
    "stream": (_streams, CacheGC.collect_stream_tier),
}


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize(
    "pin,skips", [("newest", 0), ("oldest", 1)], ids=["newest", "oldest"]
)
def test_pinned_skips_counts_only_entries_eviction_would_remove(
    tmp_path, tier, pin, skips
):
    """Over budget, a pinned entry the budget keeps anyway is not a
    skip; a pinned entry the budget would evict is exactly one."""
    fill, collect = TIERS[tier]
    keys, entry_bytes = fill(tmp_path, 3)
    pinned = keys[-1] if pin == "newest" else keys[0]
    budget = entry_bytes * 3 // 2  # room for one entry, not two
    report = collect(CacheGC(budget, pins=frozenset({pinned})), tmp_path)
    assert report.pinned_skips == skips
    assert report.evicted >= 1
