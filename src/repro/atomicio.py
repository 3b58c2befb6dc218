"""Crash-consistent file writes: temp file + ``os.replace``.

Every on-disk store (see :mod:`repro.store`) is a small append-only or
rewrite-on-update file owned by one master process.  A plain
``open(..., "a").write(line)`` can be torn by a crash or kill
mid-write, leaving a half-line that poisons naive readers.  These helpers make every durable write atomic at the
filesystem level: the new contents are staged in a temporary file *in
the same directory* (so the rename cannot cross filesystems), fsynced,
and swapped in with ``os.replace`` — readers observe either the old
complete file or the new complete file, never a torn tail.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def _replace_with(path: Path, data: bytes) -> None:
    """Stage ``data`` next to ``path`` and atomically swap it in."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically replace ``path`` with ``text``."""
    path = Path(path)
    _replace_with(path, text.encode("utf-8"))
    return path


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Atomically replace ``path`` with ``data`` (binary blobs)."""
    path = Path(path)
    _replace_with(path, data)
    return path


def atomic_append_line(path: str | Path, line: str) -> Path:
    """Atomically append one line to ``path`` (see
    :func:`atomic_append_lines`)."""
    return atomic_append_lines(path, [line])


def atomic_append_lines(path: str | Path, lines: list[str]) -> Path:
    """Atomically append several lines in one rewrite (one fsync).

    Implemented as read + rewrite + replace, so a kill at any instant
    leaves either the previous complete log or the new complete log on
    disk — never a torn record.  O(file size) per append, which is fine
    for the small JSONL stores this library keeps (hundreds of records).
    """
    path = Path(path)
    if not lines:
        return path
    existing = path.read_bytes() if path.exists() else b""
    if existing and not existing.endswith(b"\n"):
        # a pre-hardening torn tail: seal it so the new records start clean
        existing += b"\n"
    blob = "".join(line + "\n" for line in lines).encode("utf-8")
    _replace_with(path, existing + blob)
    return path
