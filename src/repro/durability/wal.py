"""The segmented, checksummed write-ahead log.

Every durable store append-logs its insert/delete *before* mutating the
in-memory index.  Records are fixed-shape binary frames::

    [u32 payload length][u32 CRC32 of payload][payload]
    payload = [u8 opcode][i64 id][i64 start][i64 end][u64 generation]

inside segment files ``wal-<seq>.log`` that start with an 8-byte magic and
rotate at ``segment_bytes``.  The generation is the store's *predicted*
post-commit ``result_generation`` -- replay restores the exact generation
sequence, which is what lets a ``StreamClient`` catch up from its last
acked generation instead of resyncing.

Recovery semantics (:func:`replay_wal`):

* a torn or corrupt record in the **final** segment truncates the log at
  the first bad record -- the tail is exactly what a crash mid-append can
  leave behind, and everything before it is intact;
* corruption in a **non-final** segment, or a missing segment in the
  middle of the sequence, raises :class:`~repro.core.errors.WalCorruptionError`
  -- dropping records there would lose acknowledged durable updates, so
  recovery refuses instead of guessing.

Fsync policy governs the durability/throughput trade (each step down the
ladder trades a wider loss window for throughput):

* ``"always"``: flush + fsync after every append -- an acknowledged update
  is crash-durable (at most the one in-flight unacknowledged record is
  ever in doubt);
* ``"interval"``: appends stay in the userspace buffer; flush + fsync at
  most every ``fsync_interval`` seconds (and on ``sync``/rotate/close) --
  at most that window of acknowledged ops is lost to a crash, at near
  WAL-off throughput;
* ``"off"``: flush/fsync only on rotate and clean close -- the log is a
  replayable record of a cleanly-shut-down store, not crash protection.
"""

from __future__ import annotations

import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.core.errors import WalCorruptionError
from repro.durability import faults

__all__ = [
    "FSYNC_POLICIES",
    "OP_DELETE",
    "OP_INSERT",
    "OP_SYNC",
    "ReplayReport",
    "WalRecord",
    "WalWriter",
    "encode_frame",
    "list_segments",
    "read_segment_tail",
    "replay_wal",
    "segment_path",
    "wal_state",
]

MAGIC = b"RWAL\x01\x00\x00\x00"
_FRAME = struct.Struct("<II")  # payload length, CRC32(payload)
_PAYLOAD = struct.Struct("<BqqqQ")  # opcode, id, start, end, generation

OP_INSERT = 1
OP_DELETE = 2
#: a generation advance without a content change (epoch publication,
#: maintenance sync) -- replay restores the generation sequence exactly
OP_SYNC = 3

_OPS = {OP_INSERT: "insert", OP_DELETE: "delete", OP_SYNC: "sync"}
_OPCODES = {name: code for code, name in _OPS.items()}

FSYNC_POLICIES = ("always", "interval", "off")

#: sanity bound rejecting absurd frame lengths from corrupt headers
_MAX_PAYLOAD = 1 << 16


@dataclass(frozen=True)
class WalRecord:
    """One logged mutation (or generation sync)."""

    op: str  # "insert" | "delete" | "sync"
    interval_id: int
    start: int
    end: int
    generation: int

    def encode(self) -> bytes:
        return encode_frame(
            self.op, self.interval_id, self.start, self.end, self.generation
        )


def encode_frame(
    op: str, interval_id: int, start: int, end: int, generation: int
) -> bytes:
    """One framed record as bytes -- the append hot path uses this directly
    so logging an op does not pay for a dataclass construction."""
    payload = _PAYLOAD.pack(
        _OPCODES[op], int(interval_id), int(start), int(end), int(generation)
    )
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(payload: bytes) -> WalRecord:
    opcode, interval_id, start, end, generation = _PAYLOAD.unpack(payload)
    op = _OPS.get(opcode)
    if op is None:
        raise WalCorruptionError(f"unknown WAL opcode {opcode}")
    return WalRecord(
        op=op, interval_id=interval_id, start=start, end=end, generation=generation
    )


# ---------------------------------------------------------------------- #
# segment naming
# ---------------------------------------------------------------------- #
def segment_path(directory: "Path | str", seq: int) -> Path:
    return Path(directory) / f"wal-{seq:08d}.log"


def list_segments(directory: "Path | str") -> List[Tuple[int, Path]]:
    """``(seq, path)`` of every segment file, ordered by sequence."""
    directory = Path(directory)
    segments: List[Tuple[int, Path]] = []
    if not directory.is_dir():
        return segments
    for path in directory.iterdir():
        name = path.name
        if name.startswith("wal-") and name.endswith(".log"):
            try:
                segments.append((int(name[4:-4]), path))
            except ValueError:
                continue
    segments.sort()
    return segments


def wal_state(directory: "Path | str") -> Tuple[int, int]:
    """``(segment count, total bytes)`` of the log on disk."""
    segments = list_segments(directory)
    total = 0
    for _, path in segments:
        try:
            total += path.stat().st_size
        except OSError:
            continue
    return len(segments), total


# ---------------------------------------------------------------------- #
# reading / replay
# ---------------------------------------------------------------------- #
@dataclass
class ReplayReport:
    """What :func:`replay_wal` found on disk."""

    segments: int = 0
    records: int = 0
    truncated_records: int = 0
    truncated_bytes: int = 0


def _read_segment(
    path: Path, *, final: bool
) -> Tuple[List[WalRecord], Optional[int], int]:
    """Decode one segment.

    Returns ``(records, truncate_at, dropped)``: ``truncate_at`` is the
    byte offset of the first bad record when the segment is damaged but
    ``final`` (torn-tail semantics), ``None`` when the segment is clean;
    ``dropped`` counts the frames discarded past that offset.  A damaged
    non-final segment raises :class:`WalCorruptionError`.
    """
    data = path.read_bytes()
    records: List[WalRecord] = []
    offset = len(MAGIC)
    if data[: len(MAGIC)] != MAGIC:
        if final:
            # crash between segment creation and the magic write (or a torn
            # magic): nothing in this segment is trustworthy
            return [], 0, 1 if data else 0
        raise WalCorruptionError(f"{path.name}: bad segment magic")

    def damaged(reason: str) -> Tuple[List[WalRecord], Optional[int], int]:
        if final:
            remaining = len(data) - offset
            return records, offset, 1 if remaining else 0
        raise WalCorruptionError(f"{path.name} @ byte {offset}: {reason}")

    while offset < len(data):
        header = data[offset : offset + _FRAME.size]
        if len(header) < _FRAME.size:
            return damaged("torn frame header")
        length, crc = _FRAME.unpack(header)
        if not 0 < length <= _MAX_PAYLOAD:
            return damaged(f"implausible frame length {length}")
        payload = data[offset + _FRAME.size : offset + _FRAME.size + length]
        if len(payload) < length:
            return damaged("torn record payload")
        if zlib.crc32(payload) != crc:
            return damaged("checksum mismatch")
        try:
            records.append(_decode_payload(payload))
        except (WalCorruptionError, struct.error):
            return damaged("undecodable record")
        offset += _FRAME.size + length
    return records, None, 0


def read_segment_tail(
    path: Path, offset: int = 0
) -> Tuple[List[WalRecord], int]:
    """Incrementally decode complete frames from a *live* segment.

    The WAL-shipping feed reads the leader's current segment while the
    writer is still appending to it, so unlike :func:`_read_segment` this
    never treats an incomplete tail as damage: parsing simply stops at the
    first torn/implausible frame and the caller retries from the returned
    offset once more bytes are on disk.  Under the ``always``/``interval``
    fsync policies flush and fsync happen together, so every byte visible
    here is (to within one in-flight fsync window) durable on the leader --
    shipping naturally batches per fsync window.

    Returns ``(records, next_offset)``.  An ``offset`` inside the magic
    header re-verifies the magic first (raising
    :class:`WalCorruptionError` on a mismatch once all 8 bytes exist) and
    reports no records until it is complete.
    """
    with open(path, "rb") as handle:
        if offset < len(MAGIC):
            head = handle.read(len(MAGIC))
            if len(head) < len(MAGIC):
                return [], 0
            if head != MAGIC:
                raise WalCorruptionError(f"{path.name}: bad segment magic")
            offset = len(MAGIC)
        else:
            handle.seek(offset)
        data = handle.read()
    records: List[WalRecord] = []
    cursor = 0
    while cursor + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack(data[cursor : cursor + _FRAME.size])
        if not 0 < length <= _MAX_PAYLOAD:
            break
        payload = data[cursor + _FRAME.size : cursor + _FRAME.size + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break
        try:
            records.append(_decode_payload(payload))
        except (WalCorruptionError, struct.error):
            break
        cursor += _FRAME.size + length
    return records, offset + cursor


def replay_wal(
    directory: "Path | str", *, truncate: bool = True
) -> Tuple[List[WalRecord], ReplayReport]:
    """Read every record in generation order, healing a torn tail.

    ``truncate=True`` physically truncates the final segment at the first
    bad record (firing the ``truncate.before_unlink`` crash point first),
    so the next open reads a clean log.  Raises
    :class:`WalCorruptionError` on damage outside the torn-tail model:
    a corrupt non-final segment or a gap in the segment sequence.
    """
    segments = list_segments(directory)
    report = ReplayReport(segments=len(segments))
    records: List[WalRecord] = []
    for position, (seq, path) in enumerate(segments):
        if position and seq != segments[position - 1][0] + 1:
            raise WalCorruptionError(
                f"missing WAL segment {segments[position - 1][0] + 1}: "
                f"found {path.name} after wal-{segments[position - 1][0]:08d}.log"
            )
        final = position == len(segments) - 1
        segment_records, truncate_at, dropped = _read_segment(path, final=final)
        records.extend(segment_records)
        if truncate_at is not None:
            report.truncated_records += dropped
            report.truncated_bytes += max(0, path.stat().st_size - truncate_at)
            if truncate and dropped:
                faults.fire("truncate.before_unlink")
                with open(path, "r+b") as handle:
                    handle.truncate(truncate_at)
                    handle.flush()
                    os.fsync(handle.fileno())
    report.records = len(records)
    return records, report


# ---------------------------------------------------------------------- #
# writing
# ---------------------------------------------------------------------- #
class WalWriter:
    """Appends records to the current segment under one fsync policy.

    Not thread-safe on its own -- the owning
    :class:`~repro.durability.manager.DurabilityManager` serialises appends
    under its lock.  Recovery never appends into a healed tail segment: the
    writer always starts a *fresh* segment (``start_seq`` past the last one
    on disk), so a reopened log is append-only from a clean frame boundary.
    """

    def __init__(
        self,
        directory: "Path | str",
        *,
        fsync: str = "interval",
        fsync_interval: float = 0.1,
        segment_bytes: int = 4 * 1024 * 1024,
        start_seq: int = 0,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._fsync = fsync
        self._fsync_interval = max(0.0, float(fsync_interval))
        self._segment_bytes = max(1024, int(segment_bytes))
        self._seq = int(start_seq)
        self._handle = None
        self._last_sync = time.monotonic()
        #: seconds the previous append-path flush + fsync took (0.0 before
        #: the first): the query server applies an update on its event loop
        #: only while the disk answers fast
        self.last_fsync_s = 0.0
        self._open_segment()

    # ------------------------------------------------------------------ #
    @property
    def fsync_policy(self) -> str:
        return self._fsync

    @property
    def directory(self) -> Path:
        return self._directory

    def _open_segment(self) -> None:
        path = segment_path(self._directory, self._seq)
        self._handle = open(path, "ab")
        self._size = self._handle.tell()
        if self._size == 0:
            self._handle.write(MAGIC)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._size = len(MAGIC)
            self._last_sync = time.monotonic()

    # ------------------------------------------------------------------ #
    def append(self, record: WalRecord) -> None:
        """Frame, write and (per policy) fsync one record; rotate when full."""
        self.append_frame(record.encode())

    def append_frame(self, frame: bytes) -> None:
        """Write one pre-encoded frame (see :func:`encode_frame`).

        The segment size is tracked in python rather than asked of the
        handle -- ``tell()`` on an append-mode file is an ``lseek`` syscall,
        and this is the per-op ingest hot path.
        """
        if self._handle is None:
            raise ValueError("WAL writer is closed")
        faults.fire("append.before_write")
        self._handle.write(frame)
        faults.fire("append.after_write")
        self._size += len(frame)
        if self._fsync == "always":
            self._append_fsync(time.monotonic())
        elif self._fsync == "interval":
            now = time.monotonic()
            if now - self._last_sync >= self._fsync_interval:
                self._append_fsync(now)
        if self._size >= self._segment_bytes:
            self.rotate()

    def _append_fsync(self, began: float) -> None:
        """Flush + fsync an append; ``began`` is ``time.monotonic()`` before it."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._last_sync = time.monotonic()
        self.last_fsync_s = self._last_sync - began
        faults.fire("append.after_fsync")

    def sync(self) -> None:
        """Force an fsync of the current segment (any policy)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._last_sync = time.monotonic()

    def rotate(self) -> int:
        """Close the current segment and start the next; returns its seq."""
        if self._handle is not None:
            self._handle.flush()
            if self._fsync != "off":
                os.fsync(self._handle.fileno())
            self._handle.close()
        self._seq += 1
        self._open_segment()
        return self._seq

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self._fsync != "off":
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"WalWriter(dir={str(self._directory)!r}, seq={self._seq}, "
            f"fsync={self._fsync!r})"
        )
