"""Size-budgeted GC over the two cache tiers.

A service that runs for days accretes two on-disk caches: the farm
result store (``.farm-cache/results.jsonl``) and the compiled-stream
store (``.stream-cache/*.npy`` + sidecars).  Both are content-addressed
and append-only, so left alone they only grow.  :class:`CacheGC` brings
each tier under a byte budget by calling the tier's own eviction — a
:class:`~repro.store.RecordLog` keeps its newest verified records, a
:class:`~repro.store.BlobTier` drops least-recently-used blobs,
sidecar first — and reports what each pass did.

Keys named by a live journal lease (queued or leased jobs in the
write-ahead journal) are *pinned*: never evicted, because evicting a
result out from under an in-flight resume would turn exactly-once
replay into re-execution mid-recovery.  ``cache.gc.pinned_skips``
counts the pinned entries the budget would otherwise have evicted.

The ordering rules, and why GC racing a reader is benign, are under
"Persistence" in ``docs/INTERNALS.md``; the chaos suite pins the race.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.store import TierReport, shard_dir

__all__ = ["CacheGC", "TierReport", "journal_pins", "shard_dir"]


class CacheGC:
    """One GC pass over the cache tiers, budgeted per tier."""

    def __init__(
        self,
        budget_bytes: int | None,
        pins: frozenset[str] | set[str] = frozenset(),
    ) -> None:
        #: per-tier byte budget; None means sweep orphans/migrate only
        self.budget_bytes = budget_bytes
        #: keys a live journal lease protects from eviction
        self.pins = frozenset(pins)
        self.reports: list[TierReport] = []

    def _collect(
        self, tier: str, directory: str | Path, store, pins, **options
    ) -> TierReport:
        """Run one tier's own eviction under the budget, and report it."""
        report = TierReport(tier=tier, directory=str(directory))
        self.reports.append(report)
        store.evict(self.budget_bytes, pins, report, **options)
        return report

    def collect_stream_tier(
        self, directory: str | Path, shard: bool = False
    ) -> TierReport:
        """Sweep orphans, optionally shard-migrate, then evict LRU
        until the tier fits the budget (pinned keys excepted)."""
        from repro.streams.store import StreamStore

        store = StreamStore(directory).blobs
        return self._collect(
            "stream", directory, store, self.pins, shard=shard
        )

    def collect_farm_tier(self, directory: str | Path) -> TierReport:
        """Budget the farm result store, honoring journal pins."""
        from repro.farm.cache import ResultCache

        store = ResultCache(directory).log
        return self._collect("farm", directory, store, self.pins)

    # -- the all-tiers entry point

    def collect(
        self,
        farm_dir: str | Path | None = None,
        stream_dir: str | Path | None = None,
        shard: bool = False,
    ) -> list[TierReport]:
        """One pass over every named tier; returns the tier reports."""
        if farm_dir is not None:
            self.collect_farm_tier(farm_dir)
        if stream_dir is not None:
            self.collect_stream_tier(stream_dir, shard=shard)
        return self.reports

    def summary(self) -> dict[str, Any]:
        return {
            "budget_bytes": self.budget_bytes,
            "pins": len(self.pins),
            "tiers": [report.to_dict() for report in self.reports],
            "evicted": sum(r.evicted for r in self.reports),
            "pinned_skips": sum(r.pinned_skips for r in self.reports),
            "bytes_freed": sum(r.bytes_freed for r in self.reports),
        }

    def publish(self, metrics) -> None:
        """Copy GC totals under ``cache.gc.*``."""
        for report in self.reports:
            if report.evicted:
                metrics.counter(
                    "cache.gc.evicted", tier=report.tier
                ).inc(report.evicted)
            if report.bytes_freed:
                metrics.counter(
                    "cache.gc.bytes_freed", tier=report.tier
                ).inc(report.bytes_freed)
            if report.pinned_skips:
                metrics.counter("cache.gc.pinned_skips").inc(
                    report.pinned_skips
                )
            if report.migrated:
                metrics.counter("cache.gc.migrated").inc(report.migrated)
            if report.orphans_swept:
                metrics.counter("cache.gc.orphans_swept").inc(
                    report.orphans_swept
                )


def journal_pins(cache_dir: str | Path) -> frozenset[str]:
    """The pin set a journal in ``cache_dir`` imposes (empty if none)."""
    from repro.farm.journal import JobJournal

    journal = JobJournal(cache_dir)
    if not journal.path.exists():
        return frozenset()
    return journal.live_keys()
