"""The write-ahead job journal: crash-recoverable batch state.

A batch that matters is *journaled before it runs*.  Every job passes
through the state machine::

    queued ──> leased ──> done
                  │  └──> failed
                  └─────> poisoned

Each transition is one CRC-guarded record appended to ``journal.jsonl``
in the farm cache directory, a :class:`~repro.store.RecordLog` under
the shared rules in "Persistence" (``docs/INTERNALS.md``), so a master
SIGKILLed at any instant leaves either the previous complete journal or
the new complete journal on disk — never a torn record.  On restart,
:meth:`JobJournal.incomplete` names exactly the jobs whose value was
never durably committed, and carries enough of each job (measure,
params, seed) to rebuild and re-run it.

Lease epochs and fencing
------------------------

Every lease increments the job's *epoch*.  A commit must present the
epoch it was leased under; a commit carrying a stale epoch is refused
with :class:`StaleLeaseError` and counted, never applied.  This is the
fencing token pattern: if a job times out, is re-leased to a second
worker, and the first (presumed-dead) worker's result then surfaces, it
cannot double-commit — exactly one lease per epoch can retire a job.

Exactly-once contract
---------------------

The commit ordering is: execute, then write the result cache record,
then journal ``done``.  A crash between cache write and ``done`` leaves
a leased job whose value *is* in the cache — resume reconciles it (the
``reconcile`` op) without re-executing.  A crash before the cache write
re-executes the job, which is observationally identical because every
job is deterministic in its seed.  Hence journal replay composed with
cache reconciliation is the identity on batch results.

The journal is owned by one master process at a time; it is not a
multi-writer lock file.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import FarmError
from repro.store import RecordLog

JOURNAL_FILE = "journal.jsonl"
JOURNAL_QUARANTINE_FILE = "journal.quarantine.jsonl"

#: journal record schema version
JOURNAL_VERSION = 1

#: job states, in lifecycle order
QUEUED = "queued"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
POISONED = "poisoned"

#: states with a live claim on cache entries (GC/clear must not evict)
LIVE_STATES = frozenset({QUEUED, LEASED})
#: states a resume must pick up and drive to completion
INCOMPLETE_STATES = frozenset({QUEUED, LEASED})
#: states that never run again without an explicit requeue
TERMINAL_STATES = frozenset({DONE, FAILED, POISONED})


class StaleLeaseError(FarmError):
    """A commit presented an epoch older than the job's current lease.

    The fencing failure mode: a resurrected worker trying to retire a
    job that has since been re-leased.  The commit is refused; the
    caller's value must be discarded.
    """


@dataclass
class JournalEntry:
    """The reconstructed latest state of one journaled job."""

    key: str
    state: str = QUEUED
    measure: str = ""
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    batch: str = ""
    client: str = ""
    epoch: int = 0
    reason: dict[str, Any] = field(default_factory=dict)
    #: whether the stored params survive a JSON round trip (replayable)
    replayable: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "state": self.state,
            "measure": self.measure,
            "seed": self.seed,
            "batch": self.batch,
            "client": self.client,
            "epoch": self.epoch,
            "reason": self.reason,
            "replayable": self.replayable,
        }


def _encode_params(params: Mapping[str, Any]) -> tuple[dict[str, Any], bool]:
    """Params as stored in the journal, plus whether they round-trip.

    Farmed experiment params are plain JSON scalars today; anything
    fancier is stored best-effort (``repr``) and marked non-replayable —
    resume can still reconcile such a job from the cache, it just cannot
    re-execute it.
    """
    try:
        encoded = json.loads(json.dumps(dict(params)))
        return encoded, True
    except (TypeError, ValueError):
        return {name: repr(value) for name, value in params.items()}, False


def _fold(entries: dict[str, JournalEntry], record: Mapping[str, Any]) -> None:
    """Apply one journal op to the per-job state.  Replay and live
    writes both go through here, so the in-memory state is always the
    fold of the log."""
    op = record["op"]
    key = record["key"]
    if op == "queue":
        entry = entries.get(key) or JournalEntry(key=key)
        entry.state = QUEUED
        entry.measure = str(record.get("measure", entry.measure))
        entry.seed = int(record.get("seed", entry.seed))
        entry.batch = str(record.get("batch", entry.batch))
        entry.client = str(record.get("client", entry.client))
        entry.reason = {}
        params = record.get("params")
        if isinstance(params, dict):
            entry.params = params
        entry.replayable = bool(record.get("replayable", True))
        entries[key] = entry
        return
    entry = entries.get(key)
    if entry is None:
        # a transition without its queue record (pre-compaction
        # tail or cross-directory copy): synthesize a shell so
        # state still resolves
        entry = JournalEntry(key=key, replayable=False)
        entries[key] = entry
    if op == "lease":
        entry.state = LEASED
        entry.epoch = int(record.get("epoch", entry.epoch + 1))
    elif op in (DONE, "reconcile"):
        entry.state = DONE
    elif op in ("fail", "poison"):
        entry.state = FAILED if op == "fail" else POISONED
        reason = record.get("reason")
        entry.reason = reason if isinstance(reason, dict) else {}
    elif op == "requeue":
        entry.state = QUEUED
        entry.reason = {}


class JobJournal:
    """Append-only journal over one farm cache directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        #: commits refused by lease fencing since this instance loaded
        self.fenced_commits = 0
        #: the op log; every record must carry a CRC
        self.log = RecordLog(
            self.directory / JOURNAL_FILE,
            required=("op", "key", "crc"),
            quarantine=JOURNAL_QUARANTINE_FILE,
            error=FarmError,
        )
        self._entries: dict[str, JournalEntry] | None = None

    @property
    def path(self) -> Path:
        return self.log.path

    @property
    def corrupt(self) -> int:
        """Corrupt journal lines quarantined since this instance loaded."""
        return self.log.corrupt

    def _replay(self) -> dict[str, JournalEntry]:
        """Fold the op log into the latest per-job state."""
        entries: dict[str, JournalEntry] = {}
        for record in self.log.records():
            _fold(entries, record)
        return entries

    def _load(self) -> dict[str, JournalEntry]:
        if self._entries is None:
            self._entries = self._replay()
        return self._entries

    def _append(self, records: list[dict[str, Any]]) -> None:
        """Apply ``records`` to the state, then log them (one append)."""
        entries = self._load()
        for record in records:
            record.setdefault("v", JOURNAL_VERSION)
            record.setdefault("ts", round(time.time(), 3))
            _fold(entries, record)
        self.log.append(records)

    # -- the write-ahead surface

    def queue(
        self,
        jobs_with_keys: Iterable[tuple[Any, str]],
        batch: str = "",
        client: str = "",
    ) -> None:
        """Journal a batch *before* any job runs (one atomic append)."""
        records = []
        entries = self._load()
        seen: set[str] = set()
        for job, key in jobs_with_keys:
            current = entries.get(key)
            if key in seen or (
                current is not None and current.state in LIVE_STATES
            ):
                continue  # already journaled and incomplete: keep its epoch
            seen.add(key)
            params, replayable = _encode_params(job.params)
            records.append(
                {
                    "op": "queue",
                    "key": key,
                    "measure": job.measure,
                    "params": params,
                    "seed": job.seed,
                    "batch": batch,
                    "client": client,
                    "replayable": replayable,
                }
            )
        self._append(records)

    def lease(self, key: str) -> int:
        """Claim a job for execution; returns the fencing epoch."""
        epoch = self._require(key).epoch + 1
        self._append([{"op": "lease", "key": key, "epoch": epoch}])
        return epoch

    def commit(self, key: str, epoch: int) -> None:
        """Retire a leased job as done; refused under a stale epoch."""
        entry = self._require(key)
        if epoch != entry.epoch:
            self.fenced_commits += 1
            raise StaleLeaseError(
                f"commit for job {key[:12]} fenced: presented epoch {epoch}, "
                f"current lease epoch is {entry.epoch}"
            )
        self._append([{"op": "done", "key": key, "epoch": epoch}])

    def reconcile(self, key: str) -> None:
        """Retire a job whose value was found already durable in the
        result cache (a cache hit, or a resume after a crash that landed
        between cache write and ``done``)."""
        entry = self._require(key)
        self._append([{"op": "reconcile", "key": key, "epoch": entry.epoch}])

    def fail(self, key: str, epoch: int, reason: Mapping[str, Any]) -> None:
        self._require(key)
        self._append(
            [{"op": "fail", "key": key, "epoch": epoch, "reason": dict(reason)}]
        )

    def poison(self, key: str, epoch: int, reason: Mapping[str, Any]) -> None:
        """Quarantine a job that keeps destroying its workers."""
        self._require(key)
        self._append(
            [{"op": "poison", "key": key, "epoch": epoch,
              "reason": dict(reason)}]
        )

    def requeue(self, key: str) -> None:
        """Put a failed/poisoned job back in play (``repro jobs retry``)."""
        if self._require(key).state not in LIVE_STATES:
            self._append([{"op": "requeue", "key": key}])

    def _require(self, key: str) -> JournalEntry:
        entry = self._load().get(key)
        if entry is None:
            raise FarmError(
                f"job {key[:12]} was never journaled; queue it first"
            )
        return entry

    # -- the recovery / inspection surface

    def entries(self) -> list[JournalEntry]:
        """Latest state of every journaled job, stable order."""
        return sorted(
            self._load().values(), key=lambda e: (e.batch, e.seed, e.key)
        )

    def get(self, key: str) -> JournalEntry | None:
        return self._load().get(key)

    def incomplete(self) -> list[JournalEntry]:
        """Jobs a resume must drive to completion (queued or leased)."""
        return [e for e in self.entries() if e.state in INCOMPLETE_STATES]

    def poisoned(self) -> list[JournalEntry]:
        return [e for e in self.entries() if e.state == POISONED]

    def live_keys(self) -> frozenset[str]:
        """Keys with a live claim on cache entries — the GC pin set."""
        return frozenset(
            e.key for e in self._load().values() if e.state in LIVE_STATES
        )

    def counts(self) -> dict[str, int]:
        counts = {QUEUED: 0, LEASED: 0, DONE: 0, FAILED: 0, POISONED: 0}
        for entry in self._load().values():
            counts[entry.state] = counts.get(entry.state, 0) + 1
        return counts

    def compact(self) -> int:
        """Drop retired (``done``) jobs; returns how many were dropped.

        Failed and poisoned jobs survive compaction with all their ops —
        they are the operator's worklist (``repro jobs list|retry``).
        The rewrite is atomic, so a crash mid-compaction loses nothing.
        """
        entries = self._load()
        keep = {key: e for key, e in entries.items() if e.state != DONE}
        dropped = len(entries) - len(keep)
        if dropped:
            self.log.rewrite(
                line
                for record, line in self.log.scan()
                if record["key"] in keep
            )
            self._entries = keep
        return dropped

    def clear(self) -> int:
        """Drop the whole journal (every state); returns entry count."""
        count = len(self._load())
        self.log.clear()
        self._entries = {}
        return count

    def publish(self, metrics) -> None:
        """Snapshot journal health under ``farm.service.journal.*``."""
        for state, count in self.counts().items():
            metrics.gauge(f"farm.service.journal.{state}").set(count)
        if self.fenced_commits:
            metrics.counter("farm.service.fenced_commits").inc(
                self.fenced_commits
            )
        if self.corrupt:
            metrics.counter("farm.service.journal.corrupt").inc(self.corrupt)
