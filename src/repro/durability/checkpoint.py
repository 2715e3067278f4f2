"""Atomic columnar checkpoints: the WAL's truncation point.

A checkpoint is one file holding the store's live collection, its result
generation, the WAL segment boundary and the serialisable standing-query
subscriptions::

    magic b"HINTCKPT" | header length (u32) | CRC32 (u32)       16 bytes
    JSON header {"version": 2, "generation", "wal_seq",
                 "subscriptions", "rows"}, space-padded to 8 bytes
    ids | starts | ends                     rows x int64 each, little-endian

The CRC32 covers the header and the three columns.  Writing is a header
dump plus three buffer writes and reading is one ``readinto`` plus
``np.frombuffer`` views over it, so a checkpoint costs about what the bytes
cost: no per-row Python objects on either side.

Publication is atomic -- write a temp file, fsync it, ``os.replace`` onto
the final name, fsync the directory -- so a crash at *any* of the named
crash points leaves either the previous checkpoint or the new one, never a
torn hybrid.  Once a checkpoint is durable, every WAL segment older than the
writer's current segment is dead (all its records are at or below the
checkpoint generation) and is unlinked by the manager's retention pass.

A checkpoint file that exists but cannot be parsed (empty, truncated, a
failed CRC, a wrong version) raises
:class:`~repro.core.errors.CheckpointError`: atomic publication means our
own crash model cannot produce one, so recovery refuses instead of silently
replaying from an arbitrary baseline.

A directory written before the columnar format holds a version-1
``checkpoint.json`` (one JSON list of ``[id, start, end]`` rows).  It is
still read; recovery then publishes a version-2 checkpoint, which unlinks
the JSON file once the new one is durable.  When both files exist (a crash
mid-migration), the columnar one wins.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.errors import CheckpointError
from repro.core.interval import IntervalCollection
from repro.durability import faults

__all__ = ["CHECKPOINT_FILE", "load_checkpoint", "write_checkpoint"]

CHECKPOINT_FILE = "checkpoint.bin"
_VERSION = 2
#: the version-1 JSON checkpoint a directory may still hold
_V1_FILE = "checkpoint.json"

_MAGIC = b"HINTCKPT"
_PREFIX = struct.Struct("<8sII")  # magic, header length, CRC32
_COLUMN = np.dtype("<i8")
_HEADER_KEYS = ("version", "generation", "wal_seq", "subscriptions", "rows")
_V1_KEYS = ("version", "generation", "intervals", "subscriptions", "wal_seq")


def checkpoint_path(directory: "Path | str") -> Path:
    return Path(directory) / CHECKPOINT_FILE


def write_checkpoint(
    directory: "Path | str",
    *,
    generation: int,
    intervals: IntervalCollection,
    subscriptions: List[Dict[str, object]],
    wal_seq: int,
) -> Path:
    """Atomically publish a checkpoint of ``intervals``; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    faults.fire("checkpoint.begin")
    columns = [
        np.ascontiguousarray(column, dtype=_COLUMN)
        for column in (intervals.ids, intervals.starts, intervals.ends)
    ]
    header = json.dumps(
        {
            "version": _VERSION,
            "generation": int(generation),
            "wal_seq": int(wal_seq),
            "subscriptions": subscriptions,
            "rows": len(intervals),
        },
        separators=(",", ":"),
    ).encode()
    # pad so the columns start 8-byte aligned in the file (and in a read buffer)
    header += b" " * (-(_PREFIX.size + len(header)) % 8)
    crc = zlib.crc32(header)
    for column in columns:
        crc = zlib.crc32(column, crc)
    final = checkpoint_path(directory)
    tmp = final.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        handle.write(_PREFIX.pack(_MAGIC, len(header), crc))
        handle.write(header)
        for column in columns:
            handle.write(column)
        handle.flush()
        os.fsync(handle.fileno())
    faults.fire("checkpoint.after_tmp_write")
    os.replace(tmp, final)
    # fsync the directory so the rename itself is durable
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    faults.fire("checkpoint.after_publish")
    # a version-1 file is dead once its successor is durable
    (directory / _V1_FILE).unlink(missing_ok=True)
    return final


def decode_checkpoint(data: bytearray, name: str = CHECKPOINT_FILE) -> Dict[str, object]:
    """Parse one checkpoint image (a file's bytes, or a follower's copy).

    Returns the header fields plus ``"intervals"``: an
    :class:`IntervalCollection` whose columns are writable views over
    ``data`` -- pass a ``bytearray``, not ``bytes``.
    """
    if len(data) < _PREFIX.size:
        raise CheckpointError(
            f"{name} is empty or truncated ({len(data)} bytes); checkpoints are "
            "published atomically, so this is damage outside the crash model"
        )
    magic, header_length, crc = _PREFIX.unpack_from(data)
    if magic != _MAGIC:
        raise CheckpointError(f"{name} is not a columnar checkpoint (bad magic)")
    body = memoryview(data)[_PREFIX.size:]
    if header_length > len(body) or zlib.crc32(body) != crc:
        raise CheckpointError(f"{name} fails its CRC32 check: damaged or truncated")
    try:
        header = json.loads(bytes(body[:header_length]))
    except ValueError as exc:
        raise CheckpointError(f"{name} has an unreadable header: {exc}") from exc
    if not isinstance(header, dict) or any(key not in header for key in _HEADER_KEYS):
        raise CheckpointError(f"{name} is missing required checkpoint fields")
    if header["version"] != _VERSION:
        raise CheckpointError(
            f"{name} has checkpoint version {header['version']!r}; "
            f"this build reads version {_VERSION}"
        )
    rows = int(header["rows"])
    offset = _PREFIX.size + header_length
    if len(data) - offset != 3 * rows * _COLUMN.itemsize:
        raise CheckpointError(f"{name} holds the wrong column size for {rows} rows")
    ids, starts, ends = np.frombuffer(
        data, dtype=_COLUMN, count=3 * rows, offset=offset
    ).reshape(3, rows)
    header["intervals"] = IntervalCollection(ids, starts, ends)
    return header


def _read_image(path: Path) -> bytearray:
    """The file's bytes in a writable buffer (a short read fails the CRC)."""
    try:
        with open(path, "rb") as handle:
            data = bytearray(os.fstat(handle.fileno()).st_size)
            handle.readinto(data)
    except OSError as exc:
        raise CheckpointError(f"cannot read {path.name}: {exc}") from exc
    return data


def _load_v1(path: Path) -> Dict[str, object]:
    """A version-1 JSON checkpoint, normalised to the columnar payload."""
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(f"cannot read {path.name}: {exc}") from exc
    if not raw.strip():
        raise CheckpointError(f"{path.name} exists but is empty")
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise CheckpointError(f"{path.name} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or any(key not in payload for key in _V1_KEYS):
        raise CheckpointError(f"{path.name} is missing required checkpoint fields")
    if payload["version"] != 1:
        raise CheckpointError(
            f"{path.name} has checkpoint version {payload['version']!r}; expected 1"
        )
    rows = np.array(payload["intervals"], dtype=np.int64).reshape(-1, 3).T.copy()
    payload["intervals"] = IntervalCollection(*rows)
    payload["rows"] = rows.shape[1]
    return payload


def load_checkpoint(directory: "Path | str") -> Optional[Dict[str, object]]:
    """The current checkpoint payload, or ``None`` when none was ever written.

    The payload holds the header fields and ``"intervals"`` (the columns as
    an :class:`IntervalCollection`).  Raises :class:`CheckpointError` on a
    present-but-unreadable file -- deterministic refusal, never a silent
    empty baseline.  A leftover ``checkpoint.tmp`` (crash before publish) is
    ignored and removed, and so is a version-1 file the columnar checkpoint
    already replaced.
    """
    directory = Path(directory)
    path = checkpoint_path(directory)
    # an unpublished temp from a crash mid-checkpoint: the previous
    # checkpoint (or none) is still authoritative
    path.with_suffix(".tmp").unlink(missing_ok=True)
    legacy = directory / _V1_FILE
    if path.exists():
        legacy.unlink(missing_ok=True)  # a migration crashed after publishing
        return decode_checkpoint(_read_image(path), path.name)
    if legacy.exists():
        return _load_v1(legacy)
    return None
