"""Tests for repro.tracking."""

import gc
import weakref
from collections import Counter

import pytest

from repro.geometry.box2d import Box2D, make_box
from repro.tracking.tracker import IoUTracker


def moving_box(t, speed=1.0):
    return make_box(10 + speed * t, 10, 8, 6)


class TestIoUTracker:
    def test_stable_identity_for_moving_object(self):
        tracker = IoUTracker()
        frames = [[moving_box(t)] for t in range(10)]
        tracked = tracker.run(frames)
        ids = {tb.track_id for frame in tracked for tb in frame}
        assert ids == {0}

    def test_new_object_gets_new_id(self):
        tracker = IoUTracker()
        frames = [[moving_box(0)], [moving_box(1), make_box(100, 50, 8, 6)]]
        tracked = tracker.run(frames)
        assert tracked[1][0].track_id == 0
        assert tracked[1][1].track_id == 1

    def test_gap_within_max_age_keeps_id(self):
        tracker = IoUTracker(max_age=2)
        frames = [[moving_box(0)], [], [moving_box(2)]]
        tracked = tracker.run(frames)
        assert tracked[2][0].track_id == 0

    def test_gap_beyond_max_age_new_id(self):
        tracker = IoUTracker(max_age=1)
        frames = [[moving_box(0)], [], [], [moving_box(3)]]
        tracked = tracker.run(frames)
        assert tracked[3][0].track_id != 0

    def test_run_resets(self):
        tracker = IoUTracker()
        tracker.run([[moving_box(0)]])
        tracked = tracker.run([[moving_box(0)]])
        assert tracked[0][0].track_id == 0  # ids restart after reset

    def test_two_parallel_objects_keep_distinct_ids(self):
        tracker = IoUTracker()
        frames = [
            [make_box(10 + t, 10, 8, 6), make_box(10 + t, 40, 8, 6)] for t in range(5)
        ]
        tracked = tracker.run(frames)
        top_ids = {frame[0].track_id for frame in tracked}
        bottom_ids = {frame[1].track_id for frame in tracked}
        assert top_ids == {0} and bottom_ids == {1}

    def test_one_frame_object_gets_a_one_frame_track(self):
        tracker = IoUTracker()
        frames = [[moving_box(t)] for t in range(4)]
        frames[2] = frames[2] + [make_box(100, 60, 6, 6)]  # one-frame object
        tracked = tracker.run(frames)
        lengths = Counter(tb.track_id for frame in tracked for tb in frame)
        assert sorted(lengths.values()) == [1, 4]

    def test_track_frame_indices_in_order(self):
        tracker = IoUTracker()
        tracked = tracker.run([[moving_box(t)] for t in range(3)])
        assert [tb.frame_index for frame in tracked for tb in frame] == [0, 1, 2]
        assert {tb.track_id for frame in tracked for tb in frame} == {0}

    def test_past_frames_are_not_retained(self):
        # A served video session runs one tracker for its whole life, so
        # nothing from earlier frames may stay reachable through it.
        tracker = IoUTracker()
        refs = []
        for t in range(2000):
            frame = [moving_box(t % 50), make_box(100, 60 + t % 7, 6, 6)]
            refs.extend(weakref.ref(tb) for tb in tracker.update(t, frame))
        gc.collect()
        assert [r for r in refs[:-2] if r() is not None] == []

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            IoUTracker(iou_threshold=0.0)
        with pytest.raises(ValueError):
            IoUTracker(max_age=-1)
