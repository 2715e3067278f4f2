"""WAL unit tests: framing, rotation, fsync policies, and the corruption
matrix -- every damage shape recovers or refuses deterministically.

Torn-tail semantics: damage in the *final* segment is what a crash
mid-append leaves behind, so recovery truncates at the first bad record
and keeps everything before it.  Damage anywhere else (a flipped checksum
mid-sequence, a missing segment file) would lose acknowledged updates, so
recovery refuses with :class:`WalCorruptionError` instead of guessing.
An empty, truncated or CRC-failing checkpoint file refuses with
:class:`CheckpointError` -- it is not "no checkpoint", it is damage outside
the crash model.  A version-1 JSON checkpoint opens once and is rewritten in
the columnar format.
"""

import json
import struct

import numpy as np
import pytest

from repro.core.errors import CheckpointError, DurabilityDegradedError, WalCorruptionError
from repro.core.interval import Interval, IntervalCollection
from repro.durability import checkpoint as checkpoint_module
from repro.durability import faults
from repro.durability.checkpoint import (
    _V1_FILE as V1_FILE,
    CHECKPOINT_FILE,
    load_checkpoint,
    write_checkpoint,
)
from repro.durability.wal import (
    MAGIC,
    WalRecord,
    WalWriter,
    list_segments,
    replay_wal,
    segment_path,
)
from repro.engine import IntervalStore
from repro.stream.deltas import StandingQueryManager


def _record(i, generation=None):
    return WalRecord(
        op="insert",
        interval_id=i,
        start=i * 10,
        end=i * 10 + 5,
        generation=generation if generation is not None else i + 1,
    )


def _write_records(directory, count, *, fsync="always", segment_bytes=None):
    kwargs = {"fsync": fsync}
    if segment_bytes is not None:
        kwargs["segment_bytes"] = segment_bytes
    writer = WalWriter(directory, **kwargs)
    for i in range(count):
        writer.append(_record(i))
    writer.close()
    return writer


def _collection(n=20):
    return IntervalCollection.from_intervals(
        [Interval(i, i * 10, i * 10 + 5) for i in range(n)]
    )


# ---------------------------------------------------------------------- #
# round-trip / rotation
# ---------------------------------------------------------------------- #
def test_append_replay_round_trip(tmp_path):
    _write_records(tmp_path, 7)
    records, report = replay_wal(tmp_path)
    assert [r.interval_id for r in records] == list(range(7))
    assert [r.generation for r in records] == list(range(1, 8))
    assert report.records == 7
    assert report.truncated_records == 0


def test_rotation_splits_segments_and_replay_merges_in_order(tmp_path):
    # tiny segments force many rotations (the writer floors at 1 KiB)
    _write_records(tmp_path, 100, segment_bytes=1024)
    segments = list_segments(tmp_path)
    assert len(segments) > 1
    assert [seq for seq, _ in segments] == list(range(len(segments)))
    records, report = replay_wal(tmp_path)
    assert [r.interval_id for r in records] == list(range(100))
    assert report.segments == len(segments)


@pytest.mark.parametrize("fsync", ["always", "interval", "off"])
def test_fsync_policies_all_round_trip(tmp_path, fsync):
    _write_records(tmp_path, 5, fsync=fsync)
    records, _ = replay_wal(tmp_path)
    assert len(records) == 5


def test_writer_rejects_unknown_fsync_policy(tmp_path):
    with pytest.raises(ValueError, match="fsync"):
        WalWriter(tmp_path, fsync="sometimes")


def test_reopened_writer_starts_a_fresh_segment(tmp_path):
    _write_records(tmp_path, 3)
    writer = WalWriter(tmp_path, start_seq=1)
    writer.append(_record(3))
    writer.close()
    assert [seq for seq, _ in list_segments(tmp_path)] == [0, 1]
    records, _ = replay_wal(tmp_path)
    assert [r.interval_id for r in records] == [0, 1, 2, 3]


# ---------------------------------------------------------------------- #
# the corruption matrix
# ---------------------------------------------------------------------- #
def test_torn_final_record_truncates_and_keeps_prefix(tmp_path):
    _write_records(tmp_path, 5)
    path = segment_path(tmp_path, 0)
    data = path.read_bytes()
    # tear the last record mid-payload, as a crash mid-write would
    path.write_bytes(data[:-7])
    records, report = replay_wal(tmp_path)
    assert [r.interval_id for r in records] == [0, 1, 2, 3]
    assert report.truncated_records == 1
    assert report.truncated_bytes > 0
    # the heal is physical: a second replay reads a clean log
    records2, report2 = replay_wal(tmp_path)
    assert [r.interval_id for r in records2] == [0, 1, 2, 3]
    assert report2.truncated_records == 0


def test_checksum_flip_in_final_segment_truncates_at_bad_record(tmp_path):
    _write_records(tmp_path, 6)
    path = segment_path(tmp_path, 0)
    data = bytearray(path.read_bytes())
    frame = 8 + struct.calcsize("<BqqqQ")  # header + payload
    # flip one payload byte of the 4th record: it and everything after drop
    offset = len(MAGIC) + 3 * frame + 8 + 2
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    records, report = replay_wal(tmp_path)
    assert [r.interval_id for r in records] == [0, 1, 2]
    assert report.truncated_records == 1


def test_checksum_flip_in_non_final_segment_refuses(tmp_path):
    _write_records(tmp_path, 100, segment_bytes=1024)
    segments = list_segments(tmp_path)
    assert len(segments) >= 2
    _, first = segments[0]
    data = bytearray(first.read_bytes())
    data[len(MAGIC) + 8 + 2] ^= 0xFF
    first.write_bytes(bytes(data))
    with pytest.raises(WalCorruptionError, match="checksum"):
        replay_wal(tmp_path)


def test_missing_segment_in_sequence_refuses(tmp_path):
    _write_records(tmp_path, 100, segment_bytes=1024)
    segments = list_segments(tmp_path)
    assert len(segments) >= 3
    segments[1][1].unlink()
    with pytest.raises(WalCorruptionError, match="missing WAL segment"):
        replay_wal(tmp_path)


def test_bad_magic_in_final_segment_discards_it(tmp_path):
    _write_records(tmp_path, 3)
    writer = WalWriter(tmp_path, start_seq=1)
    writer.append(_record(3))
    writer.close()
    path = segment_path(tmp_path, 1)
    data = path.read_bytes()
    path.write_bytes(b"XXXX" + data[4:])
    records, report = replay_wal(tmp_path)
    # the prior segment survives; the torn-magic final one contributes nothing
    assert [r.interval_id for r in records] == [0, 1, 2]
    assert report.truncated_records == 1


def test_bad_magic_in_non_final_segment_refuses(tmp_path):
    _write_records(tmp_path, 100, segment_bytes=1024)
    segments = list_segments(tmp_path)
    _, first = segments[0]
    first.write_bytes(b"XXXX" + first.read_bytes()[4:])
    with pytest.raises(WalCorruptionError, match="magic"):
        replay_wal(tmp_path)


def test_implausible_frame_length_is_torn_tail_in_final_segment(tmp_path):
    _write_records(tmp_path, 2)
    path = segment_path(tmp_path, 0)
    with open(path, "ab") as handle:
        handle.write(struct.pack("<II", 0xFFFFFFFF, 0))
    records, report = replay_wal(tmp_path)
    assert [r.interval_id for r in records] == [0, 1]
    assert report.truncated_records == 1


# ---------------------------------------------------------------------- #
# the columnar checkpoint: round trip, damage, version-1 migration
# ---------------------------------------------------------------------- #
_SUBSCRIPTION = {"subscription_id": 0, "start": 1, "end": 9, "relation": None,
                 "min_duration": 0, "max_duration": None}


def _write_small(directory, **overrides):
    fields = dict(
        generation=17,
        intervals=IntervalCollection([0, 5], [1, 10], [2, 20]),
        subscriptions=[_SUBSCRIPTION],
        wal_seq=3,
    )
    fields.update(overrides)
    return write_checkpoint(directory, **fields)


def test_absent_checkpoint_is_none_not_an_error(tmp_path):
    assert load_checkpoint(tmp_path) is None


def test_checkpoint_round_trip(tmp_path):
    _write_small(tmp_path)
    payload = load_checkpoint(tmp_path)
    assert payload["version"] == 2
    assert payload["generation"] == 17
    assert payload["wal_seq"] == 3
    assert payload["rows"] == 2
    assert payload["subscriptions"] == [_SUBSCRIPTION]
    intervals = payload["intervals"]
    assert [intervals.ids.tolist(), intervals.starts.tolist(), intervals.ends.tolist()] == [
        [0, 5], [1, 10], [2, 20]
    ]
    # the columns are built on directly, so they must be writable
    assert all(column.flags.writeable for column in (intervals.ids, intervals.ends))


def test_empty_checkpoint_round_trips(tmp_path):
    _write_small(tmp_path, intervals=IntervalCollection.empty(), subscriptions=[])
    assert len(load_checkpoint(tmp_path)["intervals"]) == 0


def _damage(path, how):
    data = bytearray(path.read_bytes())
    if how == "truncated-columns":
        data = data[:-8]
    elif how == "flipped-body-byte":
        data[-3] ^= 0xFF
    elif how == "flipped-header-byte":
        data[16 + 2] ^= 0xFF
    elif how == "empty":
        data = bytearray()
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "how", ["truncated-columns", "flipped-body-byte", "flipped-header-byte", "empty"]
)
def test_damaged_checkpoint_refuses(tmp_path, how):
    _damage(_write_small(tmp_path), how)
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path)


def test_wrong_checkpoint_version_refuses(tmp_path, monkeypatch):
    monkeypatch.setattr(checkpoint_module, "_VERSION", 3)
    _write_small(tmp_path)
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match="version 3"):
        load_checkpoint(tmp_path)


def test_empty_but_present_checkpoint_refuses(tmp_path):
    (tmp_path / CHECKPOINT_FILE).write_bytes(b"")
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path)


def test_garbage_checkpoint_refuses(tmp_path):
    (tmp_path / CHECKPOINT_FILE).write_text("{not json")
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path)


def test_checkpoint_missing_keys_refuses(tmp_path):
    # a version-1 JSON checkpoint is still read, and still validated
    (tmp_path / V1_FILE).write_text('{"version": 1}')
    with pytest.raises(CheckpointError, match="missing"):
        load_checkpoint(tmp_path)


def test_leftover_checkpoint_tmp_is_ignored(tmp_path):
    # a crash between tmp write and publish leaves only the tmp file; the
    # directory still counts as "no checkpoint"
    published = _write_small(tmp_path)
    tmp = published.with_suffix(".tmp")
    published.rename(tmp)
    assert load_checkpoint(tmp_path) is None
    assert not tmp.exists()


def _durable_history(wal_dir):
    """A durable store with a checkpointed subscription and a WAL tail."""
    store = IntervalStore.open(_collection(), "hintm_hybrid", wal_dir=str(wal_dir), fsync="off")
    subscription = StandingQueryManager(store).subscribe(0, 120).subscription
    store.insert(Interval(100, 3, 8))
    store.delete(4)
    store.maintain(checkpoint=True)  # persists the subscription
    store.insert(Interval(101, 50, 60))  # the tail
    store.delete(7)
    state = (
        sorted(store.query().overlapping(0, 10**6).ids()),
        store.result_generation(),
        subscription.subscription_id,
    )
    store.close()
    return state


def _rewrite_as_v1(wal_dir):
    """Turn the directory's checkpoint into the version-1 JSON format."""
    payload = load_checkpoint(wal_dir)
    live = payload["intervals"]
    rows = np.column_stack((live.ids, live.starts, live.ends)).tolist()
    (wal_dir / V1_FILE).write_text(json.dumps({
        "version": 1, "generation": payload["generation"], "intervals": rows,
        "subscriptions": payload["subscriptions"], "wal_seq": payload["wal_seq"],
    }))
    (wal_dir / CHECKPOINT_FILE).unlink()


def _reopened_state(wal_dir):
    store = IntervalStore.open(
        IntervalCollection.empty(), "hintm_hybrid", wal_dir=str(wal_dir), fsync="off"
    )
    try:
        registry = store.restored_stream.registry
        return (
            sorted(store.query().overlapping(0, 10**6).ids()),
            store.result_generation(),
            registry.ids(),
            [(registry.get(i).query.start, registry.get(i).query.end) for i in registry.ids()],
        )
    finally:
        store.close()


def test_version_1_checkpoint_migrates_once(tmp_path):
    wal_dir = tmp_path / "wal"
    live, generation, subscription_id = _durable_history(wal_dir)
    _rewrite_as_v1(wal_dir)
    assert load_checkpoint(wal_dir)["version"] == 1
    assert _reopened_state(wal_dir) == (live, generation, [subscription_id], [(0, 120)])
    # rewritten in the columnar format; the JSON file is gone
    assert load_checkpoint(wal_dir)["version"] == 2
    assert not (wal_dir / V1_FILE).exists()
    assert _reopened_state(wal_dir) == (live, generation, [subscription_id], [(0, 120)])


def test_version_1_migration_survives_a_crash_after_publish(tmp_path):
    wal_dir = tmp_path / "wal"
    live, generation, subscription_id = _durable_history(wal_dir)
    _rewrite_as_v1(wal_dir)
    # die right after the columnar file is durable, before the JSON one goes
    faults.arm("checkpoint.after_publish", action="io_error")
    try:
        with pytest.raises(DurabilityDegradedError):
            IntervalStore.open(
                IntervalCollection.empty(), "hintm_hybrid", wal_dir=str(wal_dir), fsync="off"
            )
    finally:
        faults.disarm()
    assert (wal_dir / CHECKPOINT_FILE).exists() and (wal_dir / V1_FILE).exists()
    # both present: the columnar checkpoint wins and the JSON one is dropped
    assert _reopened_state(wal_dir) == (live, generation, [subscription_id], [(0, 120)])
    assert not (wal_dir / V1_FILE).exists()


# ---------------------------------------------------------------------- #
# the same matrix through IntervalStore.open (recover-or-refuse end-to-end)
# ---------------------------------------------------------------------- #
def test_open_recovers_torn_tail(tmp_path):
    store = IntervalStore.open(_collection(), "hintm_hybrid", wal_dir=str(tmp_path))
    store.insert(Interval(100, 3, 8))
    store.insert(Interval(101, 50, 60))
    expected_without_tail = sorted(store.query().overlapping(0, 10**6).ids())
    store.close()
    # tear the final record (the insert of 101): recovery drops exactly it
    segments = list_segments(tmp_path)
    last = segments[-1][1]
    last.write_bytes(last.read_bytes()[:-5])
    expected_without_tail.remove(101)
    store2 = IntervalStore.open(
        _collection(), "hintm_hybrid", wal_dir=str(tmp_path)
    )
    assert sorted(store2.query().overlapping(0, 10**6).ids()) == expected_without_tail
    store2.close()


def test_open_refuses_mid_sequence_damage(tmp_path):
    _write_records(tmp_path, 100, segment_bytes=1024)
    segments = list_segments(tmp_path)
    assert len(segments) >= 3
    segments[1][1].unlink()
    with pytest.raises(WalCorruptionError):
        IntervalStore.open(_collection(), "hintm_hybrid", wal_dir=str(tmp_path))


def test_open_refuses_empty_checkpoint(tmp_path):
    (tmp_path / CHECKPOINT_FILE).write_bytes(b"")
    with pytest.raises(CheckpointError):
        IntervalStore.open(_collection(), "hintm_hybrid", wal_dir=str(tmp_path))
