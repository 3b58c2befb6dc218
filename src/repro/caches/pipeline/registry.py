"""The keyed kernel registry: compile once, hand out forever.

``KernelRegistry.get`` is the only entry point the simulators use: it
keys an in-memory program cache directly on the (hashable)
:class:`~repro.caches.pipeline.request.KernelRequest`, so the hot
construction path of a cache-hit is one dict probe — no fingerprint
hashing, no pass execution.  A miss runs the full pass pipeline under a
``kernels.pipeline.compose`` phase timer, fingerprints the request
(config + :data:`~repro.caches.pipeline.request.KERNEL_CODE_VERSION`
salt) and optionally appends one record to the compile ledger (default
``.kernel-cache/compiles.jsonl``, a :class:`~repro.store.RecordLog`;
see "Persistence" in ``docs/INTERNALS.md``) that the ``repro kernels
stats|clear`` CLI reads across processes.

Telemetry: :meth:`KernelRegistry.publish_metrics` copies the registry's
activity *since the last publish* into a metrics registry —
``kernels.pipeline.compiles``, ``kernels.pipeline.lookups{hit=...}``
and a per-pass ``kernels.pipeline.compose_secs{pass_name=...}``
histogram — so per-run reports stay per-run even though the program
cache outlives any single run.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.caches.pipeline.passes import KernelProgram, run_pipeline
from repro.caches.pipeline.request import KernelRequest
from repro.store import RecordLog
from repro.telemetry.profile import PROFILE_BUCKET_SECS, phase

#: where compile-ledger records land unless a caller overrides it
DEFAULT_LEDGER_DIR = Path(".kernel-cache")

#: the ledger file inside the ledger directory
LEDGER_NAME = "compiles.jsonl"


class KernelRegistry:
    """Per-process program cache plus optional on-disk compile ledger."""

    def __init__(self) -> None:
        self._programs: dict[KernelRequest, KernelProgram] = {}
        self.compiles = 0
        self.hits = 0
        self.misses = 0
        self.compile_secs = 0.0
        #: per-pass compose durations, one entry per compile
        self._pass_secs: dict[str, list[float]] = {}
        self._published = {"compiles": 0, "hits": 0, "misses": 0}
        self._published_pass_counts: dict[str, int] = {}
        #: set by :meth:`attach_ledger`; None keeps compiles off disk
        self.ledger_dir: Path | None = None

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._programs)

    def get(self, request: KernelRequest) -> KernelProgram:
        """The compiled program for ``request`` (compile on first use)."""
        program = self._programs.get(request)
        if program is not None:
            self.hits += 1
            return program
        self.misses += 1
        start = time.perf_counter()
        with phase("kernels.pipeline.compose", kind=request.kind):
            program = run_pipeline(request)
        elapsed = time.perf_counter() - start
        self.compiles += 1
        self.compile_secs += elapsed
        for name, secs in program.pass_secs.items():
            self._pass_secs.setdefault(name, []).append(secs)
        self._programs[request] = program
        if self.ledger_dir is not None:
            self._ledger_append(program, elapsed)
        return program

    def clear(self) -> int:
        """Drop every cached program; returns how many were dropped."""
        dropped = len(self._programs)
        self._programs.clear()
        return dropped

    # ------------------------------------------------------------------
    # the on-disk compile ledger

    @property
    def ledger_path(self) -> Path | None:
        if self.ledger_dir is None:
            return None
        return self.ledger_dir / LEDGER_NAME

    def attach_ledger(self, ledger_dir: str | Path) -> None:
        """Start persisting compile records under ``ledger_dir``."""
        self.ledger_dir = Path(ledger_dir)

    def _ledger_append(self, program: KernelProgram, secs: float) -> None:
        record = {
            "fingerprint": program.fingerprint,
            "kind": program.request.kind,
            "selected": program.capabilities.selected,
            "reasons": list(program.capabilities.reasons),
            "policy": program.request.policy,
            "profile": program.request.profile,
            "compile_secs": round(secs, 6),
            "created_unix": time.time(),
        }
        compile_ledger(self.ledger_dir).append([record])

    # ------------------------------------------------------------------

    def counters(self) -> dict:
        """The registry's lifetime totals, for stats displays."""
        return {
            "programs": len(self._programs),
            "compiles": self.compiles,
            "lookup_hits": self.hits,
            "lookup_misses": self.misses,
            "compile_secs": round(self.compile_secs, 6),
        }

    def publish_metrics(self, metrics) -> None:
        """Copy activity since the last publish into ``metrics``.

        Deltas, not lifetime totals: the program cache outlives any
        single run, and each telemetry session should see only the
        compiles/lookups its own run caused.
        """
        compiles = self.compiles - self._published["compiles"]
        hits = self.hits - self._published["hits"]
        misses = self.misses - self._published["misses"]
        if compiles:
            metrics.counter("kernels.pipeline.compiles").inc(compiles)
        if hits:
            metrics.counter(
                "kernels.pipeline.lookups", hit="true"
            ).inc(hits)
        if misses:
            metrics.counter(
                "kernels.pipeline.lookups", hit="false"
            ).inc(misses)
        self._published = {
            "compiles": self.compiles,
            "hits": self.hits,
            "misses": self.misses,
        }
        for name, values in self._pass_secs.items():
            seen = self._published_pass_counts.get(name, 0)
            fresh = values[seen:]
            if not fresh:
                continue
            histogram = metrics.histogram(
                "kernels.pipeline.compose_secs",
                bounds=PROFILE_BUCKET_SECS,
                pass_name=name,
            )
            for secs in fresh:
                histogram.observe(secs)
            self._published_pass_counts[name] = len(values)


# ---------------------------------------------------------------------------
# the process-wide default registry
# ---------------------------------------------------------------------------

_default: KernelRegistry | None = None


def default_registry() -> KernelRegistry:
    """The shared per-process registry every simulator compiles through."""
    global _default
    if _default is None:
        _default = KernelRegistry()
    return _default


def reset_default_registry() -> None:
    """Drop the shared registry (tests and long-lived services)."""
    global _default
    _default = None


def compile_kernel(
    request: KernelRequest, registry: KernelRegistry | None = None
) -> KernelProgram:
    """Compile (or fetch) one kernel through a registry."""
    return (registry or default_registry()).get(request)


# ---------------------------------------------------------------------------
# ledger reading (the ``repro kernels`` CLI, any process)
# ---------------------------------------------------------------------------

def compile_ledger(ledger_dir: str | Path | None = None) -> RecordLog:
    """The compile ledger under ``ledger_dir`` (default ``.kernel-cache``)."""
    return RecordLog(
        Path(ledger_dir or DEFAULT_LEDGER_DIR) / LEDGER_NAME,
        key_field="fingerprint",
    )


def read_ledger(ledger_dir: str | Path | None = None) -> list[dict]:
    """Every verified compile record in the ledger, oldest first."""
    return list(compile_ledger(ledger_dir).records())


def clear_ledger(ledger_dir: str | Path | None = None) -> int:
    """Delete the compile ledger; returns how many records it held."""
    ledger = compile_ledger(ledger_dir)
    dropped = len(list(ledger.records()))
    ledger.clear()
    return dropped
