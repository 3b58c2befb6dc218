"""Worker health supervision: strikes, poison quarantine, cool-down.

The PR 4 retry loop treats every pool failure the same way: back off,
rebuild the pool, resubmit everything pending.  That is correct for
*transient* faults — a worker OOM-killed once, a scheduler hiccup — but
a service that runs for days also meets the other kind: the job that
deterministically kills or hangs every worker it touches.  Retrying
that job forever converts one bad input into a denial of service.

:class:`WorkerSupervisor` sits beside the pool loop and keeps the
distinction:

*strikes*
    Every pool-level failure is attributed to the job the master was
    waiting on and recorded as a strike — ``worker_crash`` (the pool
    broke under it) or ``deadline`` (it outlived its per-job deadline).
    Each retry round runs on a freshly built pool, i.e. a distinct
    worker generation, so strikes carry their generation number.

*poison quarantine*
    A job whose strikes span :attr:`SupervisorConfig.poison_strikes`
    distinct generations has now killed that many *different* workers —
    it is the job, not the worker.  The supervisor declares it poisoned
    with a machine-readable reason, ledgers it to ``poisoned.jsonl``
    (a size-capped :class:`~repro.store.RecordLog`), and the pool loop drops
    it from the batch so the rest of the work completes.

*flap detection and cool-down*
    Consecutive no-progress round failures mean the pool itself is
    flapping — crashing faster than it does work.  The supervisor
    recommends degrading to in-process serial execution (the PR 4
    breaker's move, which is bit-identical by the farm determinism
    contract), and meters every worker-pool restart with an
    exponential cool-down so a crash loop cannot spin the CPU.

*heartbeats*
    Worker results already carry the PR 7 telemetry envelope
    (``worker_pid``, spans, metrics); the supervisor piggybacks on it
    as a liveness signal, tracking per-worker last-seen ages so a
    wedged worker is visible in ``farm.supervisor.*`` metrics before
    its deadline fires.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigError
from repro.store import RecordLog

POISON_FILE = "poisoned.jsonl"

#: strike kinds, attributed from the pool-level exception
STRIKE_WORKER_CRASH = "worker_crash"
STRIKE_DEADLINE = "deadline"

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision knobs, all deterministic."""

    #: distinct worker generations a job must strike before quarantine
    poison_strikes: int = 2
    #: consecutive no-progress pool failures before the supervisor
    #: recommends degrading the batch to serial execution
    flap_threshold: int = 3
    #: first worker-restart cool-down in seconds; doubles per restart
    cooldown_base: float = 0.0
    #: ceiling on any single restart cool-down
    cooldown_max: float = 2.0
    #: per-job deadline applied when the farm has no ``job_timeout``
    deadline_secs: float | None = None
    #: a worker unheard-from for this long is counted stale
    heartbeat_stale_secs: float = 30.0
    #: size budget of the poisoned-job ledger before rotation
    poison_ledger_bytes: int = 1_000_000

    def __post_init__(self) -> None:
        if self.poison_strikes < 1:
            raise ConfigError(
                f"poison_strikes must be at least 1, got {self.poison_strikes}"
            )
        if self.flap_threshold < 1:
            raise ConfigError(
                f"flap_threshold must be at least 1, got {self.flap_threshold}"
            )
        if self.cooldown_base < 0 or self.cooldown_max < self.cooldown_base:
            raise ConfigError(
                f"cool-down range [{self.cooldown_base}, {self.cooldown_max}] "
                "is invalid"
            )
        if self.deadline_secs is not None and self.deadline_secs <= 0:
            raise ConfigError(
                f"deadline_secs must be positive, got {self.deadline_secs}"
            )

    def cooldown(self, restart: int) -> float:
        """Seconds to pause before worker restart ``restart`` (1-based)."""
        if self.cooldown_base == 0:
            return 0.0
        return round(
            min(self.cooldown_max, self.cooldown_base * 2 ** (restart - 1)), 6
        )


@dataclass
class Strike:
    """One attributed pool-level failure."""

    kind: str
    generation: int
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "generation": self.generation,
            "detail": self.detail,
        }


class WorkerSupervisor:
    """Tracks worker/job health across one farm's pool rounds."""

    def __init__(
        self,
        config: SupervisorConfig | None = None,
        poison_dir: str | Path | None = None,
    ) -> None:
        self.config = config or SupervisorConfig()
        self._strikes: dict[str, list[Strike]] = {}
        #: job key -> machine-readable poison reason
        self.poisoned: dict[str, dict[str, Any]] = {}
        self.restarts = 0
        self.consecutive_failures = 0
        self.cooldown_secs_total = 0.0
        self.heartbeats = 0
        #: worker pid -> monotonic last-seen instant
        self._last_seen: dict[int, float] = {}
        self._ledger = (
            RecordLog(
                Path(poison_dir) / POISON_FILE,
                quarantine=None,
                max_bytes=self.config.poison_ledger_bytes,
            )
            if poison_dir is not None
            else None
        )

    # -- strikes and poisoning

    def record_strike(
        self, key: str, kind: str, detail: str, generation: int
    ) -> dict[str, Any] | None:
        """Attribute one pool failure to the job under ``key``.

        Returns the machine-readable poison reason once the job's
        strikes span ``poison_strikes`` distinct worker generations
        (each retry round is a fresh pool, so distinct generations mean
        distinct workers killed), else None — keep retrying.
        """
        strikes = self._strikes.setdefault(key, [])
        strikes.append(Strike(kind=kind, generation=generation, detail=detail))
        generations = {strike.generation for strike in strikes}
        if len(generations) < self.config.poison_strikes:
            return None
        reason = {
            "code": "poisoned",
            "job_key": key,
            "workers_killed": len(generations),
            "strikes": [strike.to_dict() for strike in strikes],
            "verdict": (
                f"job struck {len(generations)} distinct worker "
                f"generations ({', '.join(sorted({s.kind for s in strikes}))})"
            ),
        }
        self.poisoned[key] = reason
        if self._ledger is not None:
            entry = dict(reason)
            entry["ts"] = round(time.time(), 3)
            try:
                self._ledger.append([entry])
            except OSError:
                pass  # ledgers are best-effort; never crash the caller
        logger.warning(
            "job %s poisoned after striking %d distinct workers; "
            "quarantined, batch continues without it",
            key[:12], len(generations),
        )
        return reason

    def strikes_for(self, key: str) -> list[Strike]:
        return list(self._strikes.get(key, []))

    # -- flap detection and restart cool-down

    def record_round(self, progressed: bool) -> float:
        """Account one failed pool round; returns the restart cool-down.

        ``progressed`` mirrors the breaker's notion: a round that
        retired at least one job before failing resets the flap count.
        """
        self.restarts += 1
        self.consecutive_failures = (
            1 if progressed else self.consecutive_failures + 1
        )
        delay = self.config.cooldown(self.restarts)
        self.cooldown_secs_total += delay
        return delay

    def record_progress(self) -> None:
        """A round completed cleanly: the pool is healthy again."""
        self.consecutive_failures = 0

    @property
    def flapping(self) -> bool:
        """Whether the pool is crashing faster than it does work."""
        return self.consecutive_failures >= self.config.flap_threshold

    # -- heartbeats (piggybacked on the telemetry envelope)

    def observe_heartbeat(self, envelope: Mapping[str, Any] | None) -> None:
        """Record worker liveness from one result's telemetry envelope."""
        if not isinstance(envelope, Mapping):
            return
        pid = envelope.get("worker_pid")
        if isinstance(pid, int):
            self.heartbeats += 1
            self._last_seen[pid] = time.monotonic()

    def stale_workers(self, now: float | None = None) -> list[int]:
        """Workers unheard-from past the staleness threshold."""
        now = time.monotonic() if now is None else now
        limit = self.config.heartbeat_stale_secs
        return sorted(
            pid
            for pid, seen in self._last_seen.items()
            if now - seen > limit
        )

    @property
    def workers_seen(self) -> int:
        return len(self._last_seen)

    # -- reporting

    def effective_deadline(self, job_timeout: float | None) -> float | None:
        """The per-job deadline the pool loop should enforce."""
        if job_timeout is not None:
            return job_timeout
        return self.config.deadline_secs

    def summary(self) -> dict[str, Any]:
        return {
            "poisoned": len(self.poisoned),
            "strikes": sum(len(s) for s in self._strikes.values()),
            "restarts": self.restarts,
            "consecutive_failures": self.consecutive_failures,
            "flapping": self.flapping,
            "cooldown_secs_total": round(self.cooldown_secs_total, 6),
            "heartbeats": self.heartbeats,
            "workers_seen": self.workers_seen,
        }

    def publish(self, metrics) -> None:
        """Copy supervision totals under ``farm.supervisor.*``."""
        if self.poisoned:
            metrics.counter("farm.supervisor.poisoned").inc(
                len(self.poisoned)
            )
        strikes = sum(len(s) for s in self._strikes.values())
        if strikes:
            metrics.counter("farm.supervisor.strikes").inc(strikes)
        if self.restarts:
            metrics.counter("farm.supervisor.restarts").inc(self.restarts)
        if self.heartbeats:
            metrics.counter("farm.supervisor.heartbeats").inc(
                self.heartbeats
            )
        metrics.gauge("farm.supervisor.workers_seen").set(self.workers_seen)
        metrics.gauge("farm.supervisor.flapping").set(
            1 if self.flapping else 0
        )
