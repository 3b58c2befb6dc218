"""On-disk result store, keyed by job fingerprints.

Layout under the cache directory (default ``.farm-cache/``):

``results.jsonl``
    A :class:`~repro.store.RecordLog` of ``{"key", "measure", "seed",
    "value", "elapsed", "crc"}`` records; on a duplicate key the latest
    line wins (results are deterministic, so duplicates agree anyway).
    Records from before CRCs were stamped still load.  A damaged record
    is quarantined and the job simply recomputes.
``stats.json``
    Cumulative farm counters across runs, maintained by
    :meth:`ResultCache.record_run` and read by ``repro farm stats``.
``quarantine.jsonl``
    Raw corrupt lines, kept for post-mortems.

The commit, CRC, quarantine and pin rules are the shared ones described
under "Persistence" in ``docs/INTERNALS.md``.  Only the scheduler
process reads or writes the store — workers return results to the
master — so no file locking is needed.  Values must be JSON-encodable
(floats round-trip exactly through ``json``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.atomicio import atomic_write_text
from repro.errors import FarmError
from repro.store import RecordLog, record_crc  # noqa: F401 (re-exported)

RESULTS_FILE = "results.jsonl"
STATS_FILE = "stats.json"
QUARANTINE_FILE = "quarantine.jsonl"


class ResultCache:
    """Get/put store with hit/miss counters and a disable switch.

    With ``enabled=False`` (the ``--no-cache`` bypass) every lookup
    misses and puts are dropped, but counters still advance so metrics
    stay meaningful.
    """

    def __init__(
        self,
        directory: str | Path = ".farm-cache",
        enabled: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        #: the results log; records without a CRC (pre-CRC stores) load
        self.log = RecordLog(
            self.directory / RESULTS_FILE,
            required=("key", "value"),
            quarantine=QUARANTINE_FILE,
            error=FarmError,
        )
        self._corrupt_recorded = 0
        self._index: dict[str, Any] | None = None
        #: entries a clear left in place because a journal lease
        #: still references them
        self.pinned_skips = 0

    @property
    def corrupt(self) -> int:
        """Corrupt records quarantined since this instance first read
        the store."""
        return self.log.corrupt

    @property
    def _stats_path(self) -> Path:
        return self.directory / STATS_FILE

    def _load(self) -> dict[str, Any]:
        if self._index is None:
            self._index = {
                record["key"]: record["value"] for record in self.log.records()
            }
        return self._index

    # -- the get/put surface

    def get(self, key: str) -> tuple[bool, Any]:
        """Return ``(hit, value)``; a miss returns ``(False, None)``."""
        if self.enabled and key in self._load():
            self.hits += 1
            return True, self._load()[key]
        self.misses += 1
        return False, None

    def put(
        self,
        key: str,
        value: Any,
        *,
        measure: str = "",
        seed: int = 0,
        elapsed: float = 0.0,
    ) -> None:
        if not self.enabled:
            return
        self.log.append(
            [
                {
                    "key": key,
                    "measure": measure,
                    "seed": seed,
                    "value": value,
                    "elapsed": round(elapsed, 6),
                }
            ]
        )
        self._load()[key] = value

    def __len__(self) -> int:
        return len(self._load())

    def __contains__(self, key: str) -> bool:
        return self.enabled and key in self._load()

    def entries(self) -> Iterator[dict[str, Any]]:
        """Yield the stored verified records (latest per key)."""
        latest = {record["key"]: record for record in self.log.records()}
        yield from latest.values()

    def clear(self, pinned: frozenset[str] | set[str] = frozenset()) -> int:
        """Drop every stored result, the stats and the quarantine;
        returns how many results were dropped.

        Refuses (raising :class:`FarmError`) to unlink a symlink or
        anything outside the cache directory.  Entries named in
        ``pinned`` — keys a live journal lease still references —
        survive (counted in :attr:`pinned_skips`): deleting a result out
        from under an in-flight resume would turn exactly-once replay
        into silent re-execution.
        """
        count = len(self._load())
        kept = self.log.clear(pinned, extra=(self._stats_path,))
        self.pinned_skips += kept
        self._index = None
        return count - kept

    # -- cumulative run statistics (the ``repro farm stats`` view)

    def read_stats(self) -> dict[str, Any]:
        stats = {
            "runs": 0,
            "jobs": 0,
            "cache_hits": 0,
            "executed": 0,
            "retries": 0,
            "cache_corrupt": 0,
            "wall_clock_secs": 0.0,
        }
        if self._stats_path.exists():
            try:
                stats.update(json.loads(self._stats_path.read_text()))
            except json.JSONDecodeError:
                pass
        return stats

    def record_run(self, summary: Mapping[str, Any]) -> None:
        """Fold one farm run's summary into the cumulative counters."""
        if not self.enabled:
            return
        stats = self.read_stats()
        stats["runs"] += 1
        stats["jobs"] += summary.get("jobs", 0)
        stats["cache_hits"] += summary.get("cache_hits", 0)
        stats["executed"] += summary.get("executed", 0)
        stats["retries"] += summary.get("retries", 0)
        stats["cache_corrupt"] += self.corrupt - self._corrupt_recorded
        self._corrupt_recorded = self.corrupt
        stats["wall_clock_secs"] = round(
            stats["wall_clock_secs"] + summary.get("wall_clock_secs", 0.0), 6
        )
        atomic_write_text(
            self._stats_path, json.dumps(stats, indent=2) + "\n"
        )
