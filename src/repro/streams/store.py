"""The on-disk compiled-stream store: ``.npy`` blobs, memory-mapped.

The store is a :class:`~repro.store.BlobTier` under the store directory
(default ``.stream-cache/``) with the rules described under
"Persistence" in ``docs/INTERNALS.md``:

``<key>.npy``
    One compiled reference stream — a 1-D ``int64`` array of virtual
    addresses.
``<key>.json``
    The blob's sidecar: the generating descriptor, the reference count,
    the blob's byte size and a CRC32 of its contents.  The sidecar is
    the commit point.
``quarantine/``
    Blobs (and their sidecars) that failed verification, moved aside
    for post-mortems.

This module adds only the ``.npy`` encoding and the 1-D ``int64``
checks.  Reads are ``np.load(..., mmap_mode="r")``: the kernel pages
the blob in on demand and shares the pages across every process mapping
the same file, which is what makes farm fan-out zero-copy.  Blobs are
verified (size + CRC) at most once per key per process — on first open
— and the mapping is memoized, so steady-state lookups are a dict hit.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.errors import StreamStoreError
from repro.store import BlobTier, blob_crc  # noqa: F401 (re-exported)
from repro.telemetry.profile import phase

DEFAULT_STORE_DIR = ".stream-cache"


class StreamStore:
    """Content-addressed get/put store for compiled streams.

    With ``enabled=False`` (the ``--no-stream-cache`` bypass) every
    lookup misses and puts are dropped, but counters still advance so
    the ``streams.*`` metrics stay meaningful.
    """

    def __init__(
        self,
        directory: str | Path = DEFAULT_STORE_DIR,
        enabled: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.enabled = enabled
        self.blobs = BlobTier(self.directory, ".npy", error=StreamStoreError)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.bytes_mapped = 0
        self.bytes_written = 0
        #: entries a clear left in place under a live journal pin
        self.pinned_skips = 0
        self._mapped: dict[str, np.ndarray] = {}

    @property
    def corrupt(self) -> int:
        """Damaged entries quarantined by this instance."""
        return self.blobs.corrupt

    # -- the get/put surface

    def get(self, key: str) -> np.ndarray | None:
        """The memory-mapped blob for ``key``, or None on a miss.

        The first open of each key verifies the sidecar's size and CRC
        against the blob; damaged entries are quarantined and reported
        as misses so the caller recompiles.
        """
        if not self.enabled:
            self.misses += 1
            return None
        cached = self._mapped.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        with phase("streams.blob_map"):
            path = self.blobs.read(key)
            array = None if path is None else self._decode(key, path)
            if array is None:
                self.misses += 1
                return None
            self._mapped[key] = array
            self.hits += 1
            self.bytes_mapped += array.nbytes
            return array

    def _decode(self, key: str, path: Path) -> np.ndarray | None:
        """Map a verified blob; a bad header or shape is quarantined."""
        try:
            array = np.load(path, mmap_mode="r")
        except (ValueError, OSError):
            self.blobs.quarantine(key, "unreadable npy header")
            return None
        if array.ndim != 1 or array.dtype != np.int64:
            self.blobs.quarantine(key, "wrong shape or dtype")
            return None
        return array

    def contains(self, key: str) -> bool:
        """Whether a committed (sidecar-present) blob exists for ``key``."""
        return self.enabled and self.blobs.contains(key)

    def put(
        self,
        key: str,
        array: np.ndarray,
        descriptor: Mapping[str, Any] | None = None,
    ) -> np.ndarray | None:
        """Persist ``array`` under ``key``; returns the mmap'd copy.

        The blob is written first, the sidecar second — each atomically —
        so a crash between the two leaves an uncommitted blob that reads
        as a miss and is overwritten by the next put.
        """
        if not self.enabled:
            return None
        if array.ndim != 1 or array.dtype != np.int64:
            raise StreamStoreError(
                f"stream blobs must be 1-D int64, got {array.dtype} "
                f"ndim={array.ndim}"
            )
        buffer = io.BytesIO()
        np.save(buffer, np.ascontiguousarray(array))
        data = buffer.getvalue()
        fields: dict[str, Any] = {"refs": int(array.shape[0])}
        if descriptor is not None:
            fields["descriptor"] = dict(descriptor)
        path = self.blobs.write(key, data, fields)
        self.puts += 1
        self.bytes_written += len(data)
        mapped = np.load(path, mmap_mode="r")
        self._mapped[key] = mapped
        return mapped

    # -- maintenance (the ``repro streams`` CLI surface)

    def stats(self) -> dict[str, Any]:
        """On-disk inventory plus this instance's counters."""
        sidecars, quarantined = self.blobs.inventory()
        return {
            "directory": str(self.directory),
            "blobs": len(sidecars),
            "blob_bytes": sum(int(s.get("blob_bytes", 0)) for s in sidecars),
            "compiled_refs": sum(int(s.get("refs", 0)) for s in sidecars),
            "quarantined": quarantined,
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "corrupt": self.corrupt,
                "bytes_mapped": self.bytes_mapped,
                "bytes_written": self.bytes_written,
            },
        }

    def clear(self, pinned: frozenset[str] | set[str] = frozenset()) -> int:
        """Delete every blob, sidecar and quarantined file; returns the
        number of blobs dropped.

        Refuses (raising :class:`StreamStoreError`) to delete a symlink
        or anything outside the store directory.  Entries whose key
        appears in ``pinned`` — a live journal lease still references
        them — survive the clear, counted in :attr:`pinned_skips`.
        """
        dropped, kept = self.blobs.clear(pinned)
        self.pinned_skips += kept
        self._mapped = {
            key: array
            for key, array in self._mapped.items()
            if key in pinned
        }
        return dropped
