"""Span self-time subtraction on hand-built trees."""

import pytest

from e2e_bench.spans import SpanRecorder, self_times


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        ("router", 0.0, 10.0, -1, 7),
        ("probe", 1.0, 3.0, 0, 7),   # overlaps the next one: parallel fan-out
        ("probe", 2.0, 5.0, 0, 7),
        ("merge", 8.0, 12.0, 0, 7),  # sticks out of the parent
        ("decode", 2.5, 4.0, 2, 7),  # grandchild: counts against its own parent only
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 2, 2.0, 3 - 1.5, 4.0, 1.5])


def test_self_times_of_a_chain_add_up_to_the_root():
    spans = [("R5", 0.0, 9.0, -1, 0), ("R4", 1.0, 8.0, 0, 0), ("R1", 2.0, 4.0, 1, 0)]
    assert sum(self_times(spans)) == pytest.approx(9.0)


def test_extend_rebases_parent_links_and_adopts_roots():
    main, lane = SpanRecorder(), SpanRecorder()
    phase = main.add("phase", 0.0, 5.0)
    op = lane.add("op", 1.0, 2.0)
    lane.add("call", 1.2, 1.8, op, 3)
    main.extend(lane, parent=phase)
    assert main.spans[1] == ("op", 1.0, 2.0, phase, -1)
    assert main.spans[2] == ("call", 1.2, 1.8, 1, 3)


def test_open_and_close_use_the_recorders_clock():
    ticks = iter([1.0, 4.0])
    recorder = SpanRecorder(clock=lambda: next(ticks))
    index = recorder.open("rung")
    recorder.close(index)
    assert recorder.spans[index][1:3] == (1.0, 4.0)
    assert recorder.durations("rung") == [3.0]
