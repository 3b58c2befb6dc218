"""Compiled reference streams: content-addressed store, zero-copy farm
transport, and warm-state snapshots.

The trap-driven harness spends much of a trial regenerating reference
streams that are *identical across trials* — stream content depends
only on ``(workload, task)``, never the trial seed.  This package
materializes each stream once as an ``int64`` ``.npy`` blob under
``.stream-cache/``, keyed by a SHA-256 of its generating spec, and
replays it via read-only memory maps everywhere else: later runs, farm
workers (which receive store keys, not pickled arrays), and warm-state
snapshot forks that skip a declared warmup prefix entirely.  The store
is a :class:`repro.store.BlobTier`; its commit, CRC, quarantine and GC
rules are under "Persistence" in ``docs/INTERNALS.md``.

Everything is gated on a process-wide session
(:func:`repro.streams.session.active`); with no session the simulator
behaves exactly as before, and with one the results are bit-identical —
only faster.
"""

from repro.streams.compile import (
    CompiledStream,
    build_live_stream,
    compile_stream,
)
from repro.streams.keys import (
    MIX_GEOMETRY,
    STREAM_CODE_VERSION,
    STREAM_MARGIN,
    compile_refs_for,
    stream_descriptor,
    stream_fingerprint,
)
from repro.streams.session import (
    StreamSession,
    activate,
    active,
    deactivate,
    enabled,
)
from repro.streams.snapshots import SnapshotStore, WarmupPlan
from repro.streams.store import StreamStore
from repro.streams.transport import (
    ShmArena,
    ShmSegment,
    StreamTransport,
    transported_execute,
)

__all__ = [
    "CompiledStream",
    "MIX_GEOMETRY",
    "STREAM_CODE_VERSION",
    "STREAM_MARGIN",
    "ShmArena",
    "ShmSegment",
    "SnapshotStore",
    "StreamSession",
    "StreamStore",
    "StreamTransport",
    "WarmupPlan",
    "activate",
    "active",
    "build_live_stream",
    "compile_refs_for",
    "compile_stream",
    "deactivate",
    "enabled",
    "stream_descriptor",
    "stream_fingerprint",
    "transported_execute",
]
