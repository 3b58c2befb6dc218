"""The one persistence primitive: a CRC'd record log and a blob tier.

Every on-disk store in the library is built from these two types; the
rules they share — commit points, CRCs, quarantine, pins, GC ordering
and why GC may race a reader — are under "Persistence" in
``docs/INTERNALS.md``.

:class:`RecordLog`
    One JSONL file of CRC-stamped records, appended and rewritten
    atomically through :mod:`repro.atomicio`.
:class:`BlobTier`
    Content-addressed blobs, each committed by a JSON sidecar that
    holds its size and CRC32, stored flat or in two-level shard dirs.
"""

from __future__ import annotations

import json
import logging
import os
import zlib
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.atomicio import (
    atomic_append_lines,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.errors import ReproError

#: size cap of a quarantine sidecar before it rotates to ``<name>.1``
QUARANTINE_BUDGET_BYTES = 1_000_000

#: hex chars per shard level: ``key[:2]/key[2:4]/<key><suffix>``
SHARD_GLOB = "[0-9a-f][0-9a-f]"

logger = logging.getLogger(__name__)


def record_crc(record: Mapping[str, Any]) -> str:
    """CRC32 (hex) over a record's canonical JSON, ``crc`` excluded."""
    body = {name: value for name, value in record.items() if name != "crc"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(blob.encode('utf-8')) & 0xFFFFFFFF:08x}"


def blob_crc(data: bytes) -> str:
    """CRC32 (hex) over a blob's raw bytes."""
    return f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"


def shard_dir(root: Path, key: str) -> Path:
    """The two-level shard directory for ``key`` under ``root``."""
    return root / key[:2] / key[2:4]


def _refuse_escapes(
    root: Path, paths: Iterable[Path], error: type[Exception]
) -> None:
    """Raise ``error`` if any present path is a symlink or resolves
    outside ``root``: a planted link cannot steer a delete elsewhere,
    and a mis-set directory cannot eat an unrelated file."""
    for path in paths:
        if path.is_symlink() or (
            path.exists() and not path.resolve().is_relative_to(root.resolve())
        ):
            raise error(
                f"refusing to clear {path}: it escapes the store "
                f"directory {root}"
            )


def _warn_once(owner: RecordLog | BlobTier, message: str, *args: Any) -> None:
    if not owner._warned:
        owner._warned = True
        logger.warning(
            message + " — further ones are counted silently", *args
        )


def _quarantine(
    owner: RecordLog | BlobTier,
    source: Path,
    target: Path,
    reason: str,
    move: Callable[[], object],
) -> None:
    """Count one damaged entry of ``source``, warn once per instance, and
    ``move`` it to ``target`` best-effort: not serving it is what matters."""
    owner.corrupt += 1
    _warn_once(
        owner, "%s holds corrupt entries (%s); quarantined to %s",
        source, reason, target,
    )
    try:
        move()
    except OSError:
        pass


@dataclass
class TierReport:
    """What one GC pass did to one store tier."""

    tier: str
    directory: str = ""
    scanned: int = 0
    bytes_before: int = 0
    bytes_after: int = 0
    evicted: int = 0
    orphans_swept: int = 0
    #: pinned entries the budget would otherwise have evicted
    pinned_skips: int = 0
    migrated: int = 0

    @property
    def bytes_freed(self) -> int:
        return max(0, self.bytes_before - self.bytes_after)

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "bytes_freed": self.bytes_freed}


class RecordLog:
    """One CRC'd JSONL file.

    A record is accepted when it is a JSON object holding every field in
    ``required`` and, if it has a ``crc``, the CRC matches; anything
    else is quarantined to the sidecar ``quarantine`` names in the same
    directory (``{stem}`` is the log's stem; None keeps no quarantine).
    With ``max_bytes`` set, an append that would pass it first rotates
    the file to ``<name>.1``.  :meth:`clear` raises ``error`` on a path
    that escapes the log's directory.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        required: tuple[str, ...] = (),
        key_field: str = "key",
        quarantine: str | None = "{stem}.quarantine.jsonl",
        max_bytes: int | None = None,
        error: type[Exception] = ReproError,
    ) -> None:
        self.path = Path(path)
        self.required = required
        self.key_field = key_field
        self.max_bytes = max_bytes
        self.error = error
        #: damaged lines met since this instance was made
        self.corrupt = 0
        self._warned = False
        self.quarantine = None if quarantine is None else RecordLog(
            self.path.with_name(quarantine.format(stem=self.path.stem)),
            quarantine=None,
            max_bytes=QUARANTINE_BUDGET_BYTES,
        )

    @property
    def rotated_path(self) -> Path:
        return self.path.with_name(self.path.name + ".1")

    def _verify(self, line: str) -> tuple[dict[str, Any] | None, str]:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return None, "not valid JSON"
        if not isinstance(record, dict):
            return None, "not a JSON object"
        if any(name not in record for name in self.required):
            return None, f"missing one of the fields {self.required}"
        if "crc" in record and record["crc"] != record_crc(record):
            return None, "CRC mismatch"
        return record, ""

    def scan(self) -> Iterator[tuple[dict[str, Any], str]]:
        """``(record, raw line)`` for each verified line in append order;
        damaged lines are counted and quarantined, never yielded."""
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return
        for line in filter(None, map(str.strip, text.splitlines())):
            record, reason = self._verify(line)
            if record is not None:
                yield record, line
            elif self.quarantine is None:
                self.corrupt += 1
            else:
                _quarantine(
                    self, self.path, self.quarantine.path, reason,
                    partial(self.quarantine._append_lines, [line]),
                )

    def records(self) -> Iterator[dict[str, Any]]:
        """Every verified record, oldest first."""
        return (record for record, _line in self.scan())

    def _append_lines(self, lines: list[str]) -> None:
        if self.max_bytes is not None and self.path.exists():
            size = self.path.stat().st_size
            if size and size + sum(len(l) + 1 for l in lines) > self.max_bytes:
                os.replace(self.path, self.rotated_path)
                _warn_once(
                    self, "ledger %s exceeded its %d-byte budget; rotated",
                    self.path, self.max_bytes,
                )
        atomic_append_lines(self.path, lines)

    def append(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Atomically append ``records``, each stamped with its CRC."""
        self._append_lines([_encode(record) for record in records])

    def rewrite(self, lines: Iterable[str]) -> int:
        """Atomically replace the log with raw ``lines`` taken from
        :meth:`scan`; returns the new size (no lines removes the file)."""
        body = "".join(line + "\n" for line in lines)
        if body:
            atomic_write_text(self.path, body)
        else:
            self.path.unlink(missing_ok=True)
        return len(body.encode("utf-8"))

    def clear(
        self,
        pinned: frozenset[str] | set[str] = frozenset(),
        extra: Iterable[Path] = (),
    ) -> int:
        """Drop every record but the newest of each pinned key (a
        zero-budget eviction), then the quarantine and ``extra`` files;
        returns how many records the pins kept."""
        victims = [*extra]
        if self.quarantine is not None:
            victims += [self.quarantine.path, self.quarantine.rotated_path]
        _refuse_escapes(self.path.parent, [self.path, *victims], self.error)
        report = TierReport(tier="clear")
        self.evict(0, frozenset(pinned), report)
        for path in victims:
            path.unlink(missing_ok=True)
        return report.pinned_skips

    def evict(
        self, budget: int | None, pinned: frozenset[str], report: TierReport
    ) -> None:
        """Over ``budget`` bytes, rewrite the log with the newest record
        of each key, newest first while it fits; pinned keys stay."""
        try:
            report.bytes_before = self.path.stat().st_size
        except FileNotFoundError:
            return
        scanned = list(self.scan())
        report.scanned = len(scanned)
        report.bytes_after = report.bytes_before
        if budget is None or report.bytes_before <= budget:
            return
        kept: list[str] = []
        seen: set[str] = set()
        total = 0
        for record, line in reversed(scanned):
            key = str(record.get(self.key_field, ""))
            if key and key in seen:
                continue  # an older record of a key already decided
            seen.add(key)
            if total + len(line) + 1 > budget:
                if not (key and key in pinned):
                    report.evicted += 1
                    continue
                report.pinned_skips += 1
            kept.append(line)
            total += len(line) + 1
        report.bytes_after = self.rewrite(kept[::-1])


def _encode(record: Mapping[str, Any]) -> str:
    return json.dumps({**record, "crc": record_crc(record)}, sort_keys=True)


class BlobTier:
    """Content-addressed ``<key><suffix>`` blobs with ``<key>.json``
    sidecars under one directory; :meth:`clear` raises ``error`` on a
    path that escapes it."""

    def __init__(
        self, directory: str | Path, suffix: str, error: type[Exception]
    ) -> None:
        self.directory = Path(directory)
        self.suffix = suffix
        self.error = error
        self.quarantine_dir = self.directory / "quarantine"
        #: damaged entries quarantined since this instance was made
        self.corrupt = 0
        self._warned = False

    def _path(self, key: str, suffix: str) -> Path:
        """The flat or sharded location of ``key``'s file that exists,
        else the flat one (where writes go)."""
        flat = self.directory / f"{key}{suffix}"
        if flat.exists():
            return flat
        sharded = shard_dir(self.directory, key) / f"{key}{suffix}"
        return sharded if sharded.exists() else flat

    def _glob(self, suffix: str) -> list[Path]:
        return sorted(self.directory.glob(f"*{suffix}")) + sorted(
            self.directory.glob(f"{SHARD_GLOB}/{SHARD_GLOB}/*{suffix}")
        )

    def _committed(self) -> Iterator[tuple[Path, Path]]:
        """``(sidecar, blob)`` of every entry whose blob is present."""
        for sidecar in self._glob(".json"):
            blob = sidecar.with_suffix(self.suffix)
            if blob.exists():
                yield sidecar, blob

    def quarantine(self, key: str, reason: str) -> None:
        """Move a damaged blob and its sidecar into ``quarantine/``."""

        def move() -> None:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            for suffix in (self.suffix, ".json"):
                path = self._path(key, suffix)
                if path.exists():
                    path.replace(self.quarantine_dir / path.name)

        _quarantine(self, self.directory, self.quarantine_dir, reason, move)

    def read(self, key: str) -> Path | None:
        """The blob path once its size and CRC match the sidecar; a
        damaged entry is quarantined, one without a sidecar is a miss."""
        blob = self._path(key, self.suffix)
        sidecar_path = self._path(key, ".json")
        if not sidecar_path.exists() or not blob.exists():
            return None
        try:
            sidecar = json.loads(sidecar_path.read_text())
            data = blob.read_bytes()
        except json.JSONDecodeError:
            self.quarantine(key, "sidecar not valid JSON")
            return None
        except OSError:
            return None
        if not isinstance(sidecar, dict) or (
            len(data) != sidecar.get("blob_bytes")
        ):
            self.quarantine(key, "blob size mismatch")
        elif blob_crc(data) != sidecar.get("crc"):
            self.quarantine(key, "blob CRC mismatch")
        else:
            return blob
        return None

    def contains(self, key: str) -> bool:
        """Whether a committed blob exists for ``key``."""
        return self._path(key, ".json").exists() and (
            self._path(key, self.suffix).exists()
        )

    def write(self, key: str, data: bytes, fields: Mapping[str, Any]) -> Path:
        """Blob first, then the sidecar (``fields`` + key, size, CRC)
        that commits it; returns the blob path."""
        blob = atomic_write_bytes(self._path(key, self.suffix), data)
        sidecar = {**fields, "key": key, "blob_bytes": len(data),
                   "crc": blob_crc(data)}
        text = json.dumps(sidecar, sort_keys=True) + "\n"
        atomic_write_text(self._path(key, ".json"), text)
        return blob

    def inventory(self) -> tuple[list[dict[str, Any]], int]:
        """The committed entries' sidecars and the quarantined count."""
        sidecars = []
        for path, _blob in self._committed():
            try:
                sidecars.append(json.loads(path.read_text()))
            except (json.JSONDecodeError, OSError):
                continue
        quarantined = len(list(self.quarantine_dir.glob(f"*{self.suffix}")))
        return [s for s in sidecars if isinstance(s, dict)], quarantined

    def clear(
        self, pinned: frozenset[str] | set[str] = frozenset()
    ) -> tuple[int, int]:
        """Drop temp and quarantined files, then every entry but pinned
        ones (a zero-budget eviction); returns ``(entries dropped,
        pinned entries kept)``."""
        if not self.directory.is_dir():
            return 0, 0
        loose = self._glob(".tmp") + list(self.quarantine_dir.glob("*"))
        entries = self._glob(self.suffix) + self._glob(".json")
        _refuse_escapes(self.directory, entries + loose, self.error)
        for path in loose:
            path.unlink(missing_ok=True)
        try:
            self.quarantine_dir.rmdir()
        except OSError:
            pass
        report = TierReport(tier="clear")
        self.evict(0, frozenset(pinned), report)
        return report.evicted + report.orphans_swept, report.pinned_skips

    def evict(
        self,
        budget: int | None,
        pinned: frozenset[str],
        report: TierReport,
        shard: bool = False,
    ) -> None:
        """Sweep half-entries (a blob without its sidecar or the
        reverse), optionally move flat entries into shard dirs, then
        evict least recently used entries until the tier fits
        ``budget``; pinned keys are never evicted."""
        if not self.directory.is_dir():
            return
        halves = ((self.suffix, ".json"), (".json", self.suffix))
        for suffix, partner in halves:
            for path in self._glob(suffix):
                if not path.with_suffix(partner).exists():
                    path.unlink(missing_ok=True)
                    report.orphans_swept += 1
        entries = []  # (atime, key, bytes, sidecar, blob)
        for sidecar, blob in self._committed():
            try:
                stat = blob.stat()
                nbytes = stat.st_size + sidecar.stat().st_size
            except OSError:
                continue
            if shard and sidecar.parent == self.directory:
                moved = shard_dir(self.directory, sidecar.stem)
                try:
                    moved.mkdir(parents=True, exist_ok=True)
                    # blob then sidecar; reads find each file in either
                    # layout, so the entry stays readable throughout
                    os.replace(blob, moved / blob.name)
                    os.replace(sidecar, moved / sidecar.name)
                    blob, sidecar = moved / blob.name, moved / sidecar.name
                    report.migrated += 1
                except OSError:
                    pass
            entries.append(
                (stat.st_atime, sidecar.stem, nbytes, sidecar, blob)
            )
        report.scanned = len(entries)
        total = report.bytes_before = sum(entry[2] for entry in entries)
        for _atime, key, nbytes, sidecar, blob in sorted(entries):
            if budget is None or total <= budget:
                break
            if key in pinned:
                report.pinned_skips += 1
                continue
            # sidecar first (uncommit), blob last: a crash between the
            # two leaves an orphan blob, a clean miss swept next pass
            try:
                sidecar.unlink()
                blob.unlink()
            except OSError:
                continue
            total -= nbytes
            report.evicted += 1
        report.bytes_after = total
