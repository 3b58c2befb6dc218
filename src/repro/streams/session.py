"""The process-wide stream session — compiled-stream reuse as a gate.

Mirrors :mod:`repro.telemetry.session` and :mod:`repro.faults.session`:
one module-level slot, read with a ``None`` check at every integration
point (the harness's stream construction, the Pixie tracer, the farm
worker entry).  With no session active, every consumer builds its
streams live exactly as before — the store cannot change results when
it is off, and ``tests/streams/test_bit_equality.py`` pins that it does
not change them when it is *on* either.

Resolution order for a requested stream:

1. the in-process memo (this session already compiled or mapped it);
2. a shared memory attachment (farm worker, store disabled on master);
3. the on-disk store (memory-mapped, verified once);
4. compile it live — and persist it, so the next process maps instead.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.errors import StreamStoreError
from repro.streams.compile import (
    CompiledStream,
    build_live_stream,
    compile_stream,
)
from repro.streams.keys import (
    STREAM_CODE_VERSION,
    compile_refs_for,
    stream_descriptor,
    stream_fingerprint,
)
from repro.streams.snapshots import SnapshotStore
from repro.streams.store import StreamStore
from repro.streams.transport import ShmArena, ShmSegment, StreamTransport
from repro.workloads.base import WorkloadSpec


class StreamSession:
    """One process's compiled-stream state: store, memo, snapshots."""

    def __init__(
        self,
        store: StreamStore | None = None,
        attachments: dict[str, np.ndarray] | None = None,
        salt: str = STREAM_CODE_VERSION,
    ) -> None:
        self.store = store if store is not None else StreamStore()
        self.salt = salt
        #: arrays attached from the farm master's shared memory segments
        self.attachments: dict[str, np.ndarray] = dict(attachments or {})
        #: arrays this process already holds (compiled or mapped)
        self._memo: dict[str, np.ndarray] = {}
        #: stream keys already computed, per (workload name, task name,
        #: task spec, refs, data refs?, salt) — every input of
        #: :func:`stream_fingerprint`, so a task fork looks its key up
        #: instead of re-hashing the spec (``WorkloadSpec`` holds a dict
        #: and is unhashable; its name and the task spec stand in for it)
        self._keys: dict[tuple, str] = {}
        self.snapshots = SnapshotStore()
        self.memo_hits = 0
        self.shm_hits = 0
        self.compiles = 0
        self.compiled_refs = 0
        self._arena: ShmArena | None = None
        self._published: dict[tuple[str, ...], int] = {}

    # -- the lookup path

    def stream_for(
        self,
        spec: WorkloadSpec,
        task_name: str,
        total_refs: int,
        include_data_refs: bool = False,
    ) -> CompiledStream:
        """A replay cursor over the compiled stream for one task.

        ``total_refs`` is the run's budget; the compiled blob carries a
        safety margin beyond it (see :func:`compile_refs_for`), and the
        returned :class:`CompiledStream` falls back to live generation
        in the (never expected) case the margin is exceeded.
        """
        refs = compile_refs_for(total_refs)
        task = spec.task(task_name)
        memo_key = (
            spec.name, task_name, task, refs, include_data_refs, self.salt
        )
        key = self._keys.get(memo_key)
        if key is None:
            key = self._keys[memo_key] = stream_fingerprint(
                spec, task_name, refs, include_data_refs, salt=self.salt
            )

        def fallback():
            return build_live_stream(spec.name, task, include_data_refs)

        array = self._memo.get(key)
        if array is not None:
            self.memo_hits += 1
            return CompiledStream(array, fallback)
        array = self.attachments.get(key)
        if array is not None:
            self.shm_hits += 1
            self._memo[key] = array
            return CompiledStream(array, fallback)
        array = self.store.get(key)
        if array is not None:
            self._memo[key] = array
            return CompiledStream(array, fallback)
        compiled = compile_stream(fallback(), refs)
        compiled.setflags(write=False)
        self.compiles += 1
        self.compiled_refs += refs
        mapped = self.store.put(
            key, compiled,
            descriptor=stream_descriptor(spec, task_name, include_data_refs),
        )
        self._memo[key] = mapped if mapped is not None else compiled
        return CompiledStream(self._memo[key], fallback)

    def precompile(
        self,
        spec: WorkloadSpec,
        total_refs: int,
        include_data_refs: bool = False,
    ) -> int:
        """Materialize every task stream of ``spec`` before fan-out.

        Returns the number of streams compiled fresh (misses); streams
        already stored are just mapped into the memo.
        """
        before = self.compiles
        for task_name in spec.tasks:
            self.stream_for(spec, task_name, total_refs, include_data_refs)
        return self.compiles - before

    # -- farm transport

    def transport(self) -> StreamTransport:
        """A picklable handle workers use to map this session's streams.

        With the store enabled the blobs travel through the filesystem
        and the transport is just the directory.  With it disabled
        (``--no-stream-cache``), in-memory streams are published as
        shared memory segments owned by this session until
        :meth:`close_transport` (or deactivation) unlinks them.
        """
        segments: tuple[ShmSegment, ...] = ()
        if not self.store.enabled and self._memo:
            if self._arena is None:
                self._arena = ShmArena()
            already = {s.key for s in self._arena.published}
            for key, array in self._memo.items():
                if key not in already:
                    self._arena.publish(key, array)
            segments = tuple(self._arena.published)
        return StreamTransport(
            store_dir=str(self.store.directory),
            store_enabled=self.store.enabled,
            salt=self.salt,
            shm_segments=segments,
        )

    def close_transport(self) -> None:
        """Unlink any shared memory segments this session published."""
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    # -- observability

    def publish_metrics(self, metrics) -> None:
        """Fold session counters into a telemetry registry (delta-based,
        so repeated publishes never double-count)."""

        def delta(value: int, *name_and_labels: str) -> None:
            previous = self._published.get(name_and_labels, 0)
            if value > previous:
                name = name_and_labels[0]
                labels = dict(
                    zip(name_and_labels[1::2], name_and_labels[2::2])
                )
                metrics.counter(name, **labels).inc(value - previous)
                self._published[name_and_labels] = value

        delta(self.memo_hits, "streams.hits", "source", "memo")
        delta(self.store.hits, "streams.hits", "source", "store")
        delta(self.shm_hits, "streams.hits", "source", "shm")
        delta(self.compiles, "streams.misses")
        delta(self.compiled_refs, "streams.compiled_refs")
        delta(self.store.bytes_mapped, "streams.bytes_mapped")
        delta(self.store.bytes_written, "streams.bytes_written")
        delta(self.store.corrupt, "streams.corrupt")
        delta(self.snapshots.creates, "streams.snapshot_creates")
        delta(self.snapshots.forks, "streams.snapshot_forks")
        delta(self.snapshots.bypassed, "streams.snapshot_bypass")


_active: StreamSession | None = None


def active() -> StreamSession | None:
    """The activated session, or None (streams disabled — live path)."""
    return _active


def activate(session: StreamSession | None = None) -> StreamSession:
    """Install ``session`` (or a fresh one) as the process-wide session."""
    global _active
    if _active is not None:
        raise StreamStoreError("a stream session is already active")
    _active = session or StreamSession()
    return _active


def drop_inherited() -> None:
    """Discard a fork-inherited session without tearing it down.

    A forked farm worker inherits the master's active session object.
    Its store handles and shared-memory arena belong to the *parent*;
    deactivating here would unlink segments the master still serves to
    sibling workers.  Workers therefore just drop the reference before
    activating their own session.
    """
    global _active
    _active = None


def deactivate() -> StreamSession:
    """Remove and return the active session, unlinking its transport."""
    global _active
    if _active is None:
        raise StreamStoreError("no stream session is active")
    session, _active = _active, None
    session.close_transport()
    return session


@contextmanager
def enabled(
    session: StreamSession | None = None,
) -> Iterator[StreamSession]:
    """Scope a stream session over a block of simulation work."""
    session = activate(session)
    try:
        yield session
    finally:
        deactivate()
