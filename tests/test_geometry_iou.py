"""Tests for repro.geometry.iou."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import StreamItem
from repro.domains.av.assertions import AgreeAssertion, sensor_agreement
from repro.domains.video.assertions import MultiboxAssertion, multibox_severity
from repro.geometry.box2d import Box2D, make_box
from repro.geometry.iou import iou_matrix, iou_pairwise, iou_rows, match_boxes
from repro.tracking.tracker import IoUTracker

INF = float("inf")


def boxes_strategy(n):
    coord = st.floats(min_value=0, max_value=50, allow_nan=False)
    size = st.floats(min_value=0.5, max_value=20, allow_nan=False)
    return st.lists(
        st.tuples(coord, coord, size, size).map(lambda t: make_box(*t)),
        min_size=n,
        max_size=n + 3,
    )


class TestIoUMatrix:
    def test_identity(self):
        box = Box2D(0, 0, 2, 2)
        assert np.isclose(iou_matrix([box], [box])[0, 0], 1.0)

    def test_disjoint(self):
        a = Box2D(0, 0, 1, 1)
        b = Box2D(5, 5, 6, 6)
        assert iou_matrix([a], [b])[0, 0] == 0.0

    def test_half_overlap(self):
        a = Box2D(0, 0, 2, 2)
        b = Box2D(1, 0, 3, 2)
        # inter = 2, union = 6
        assert np.isclose(iou_matrix([a], [b])[0, 0], 2 / 6)

    def test_contained(self):
        outer = Box2D(0, 0, 4, 4)
        inner = Box2D(1, 1, 3, 3)
        assert np.isclose(iou_matrix([outer], [inner])[0, 0], 4 / 16)

    def test_empty_inputs(self):
        assert iou_matrix([], [Box2D(0, 0, 1, 1)]).shape == (0, 1)
        assert iou_matrix([Box2D(0, 0, 1, 1)], []).shape == (1, 0)

    @given(a=boxes_strategy(1), b=boxes_strategy(1))
    def test_symmetry_and_range(self, a, b):
        m = iou_matrix(a, b)
        assert np.all(m >= 0) and np.all(m <= 1 + 1e-12)
        assert np.allclose(m, iou_matrix(b, a).T)


class TestIoUPairwise:
    def test_matches_matrix_diagonal(self, rng):
        boxes_a = [make_box(rng.uniform(0, 20), rng.uniform(0, 20), 5, 5) for _ in range(4)]
        boxes_b = [make_box(rng.uniform(0, 20), rng.uniform(0, 20), 5, 5) for _ in range(4)]
        pair = iou_pairwise(boxes_a, boxes_b)
        full = iou_matrix(boxes_a, boxes_b)
        assert np.allclose(pair, np.diag(full))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            iou_pairwise([Box2D(0, 0, 1, 1)], [])


class TestMatchBoxes:
    def test_greedy_one_to_one(self):
        gt = [Box2D(0, 0, 2, 2), Box2D(10, 10, 12, 12)]
        preds = [Box2D(0, 0, 2, 2), Box2D(0.2, 0, 2.2, 2), Box2D(10, 10, 12, 12)]
        matches = match_boxes(preds, gt)
        assert len(matches) == 2
        matched_preds = {m[0] for m in matches}
        assert matched_preds == {0, 2}  # duplicate pred 1 left unmatched

    def test_threshold_filters(self):
        a = [Box2D(0, 0, 2, 2)]
        b = [Box2D(1.5, 0, 3.5, 2)]  # IoU = 0.5/3.5 ≈ 0.14
        assert match_boxes(a, b, iou_threshold=0.5) == []
        assert len(match_boxes(a, b, iou_threshold=0.1)) == 1

    def test_empty(self):
        assert match_boxes([], []) == []


# ---------------------------------------------------------------------------
# Equivalence of the scalar per-frame path with the numpy reference.
#
# Boxes sit on a small integer grid (exact IoU ties, touching edges), or
# have float corners with widths down to 1e-9; some corners are -0.0 or
# infinite. Frames also repeat boxes verbatim and add boxes enclosing
# earlier ones.

_grid = st.integers(-2, 6).map(float)
_lo = st.one_of(_grid, st.just(-0.0), st.floats(-3, 8, allow_nan=False, allow_infinity=False))
_size = st.one_of(
    st.integers(1, 4).map(float),
    st.sampled_from([1e-9, 1e-6, 0.5]),
    st.floats(1e-9, 8, allow_nan=False, allow_infinity=False),
)


@st.composite
def edge_box(draw):
    x, y = draw(_lo), draw(_lo)
    w, h = draw(_size), draw(_size)
    x1 = draw(st.sampled_from([x, x, x, -INF]))
    y1 = draw(st.sampled_from([y, y, y, -INF]))
    x2 = draw(st.sampled_from([x + w, x + w, x + w, INF]))
    y2 = draw(st.sampled_from([y + h, y + h, y + h, INF]))
    return Box2D(x1, y1, x2, y2)


@st.composite
def edge_frame(draw, max_size=6):
    boxes = draw(st.lists(edge_box(), max_size=max_size))
    if boxes:
        for _ in range(draw(st.integers(0, 2))):
            b = draw(st.sampled_from(boxes))
            k = draw(st.sampled_from([0.0, 0.5, 1.0]))  # 0.0: identical copy
            boxes.append(Box2D(b.x1 - k, b.y1 - k, b.x2 + k, b.y2 + k))
        boxes = draw(st.permutations(boxes))
    return boxes


_thresholds = st.sampled_from([0.0, 0.1, 0.2, 0.25, 1 / 3, 0.4, 0.5, 1.0])


def argmax_match_boxes(boxes_a, boxes_b, iou_threshold=0.5):
    """The repeated row-major ``argmax`` matcher, kept as the oracle."""
    iou = iou_matrix(boxes_a, boxes_b)
    matches = []
    if iou.size == 0:
        return matches
    iou = iou.copy()
    while True:
        flat = int(np.argmax(iou))
        i, j = np.unravel_index(flat, iou.shape)
        best = iou[i, j]
        if best < iou_threshold or best <= 0:
            break
        matches.append((int(i), int(j), float(best)))
        iou[i, :] = -1.0
        iou[:, j] = -1.0
    return matches


def argmax_tracker_ids(frames, iou_threshold, max_age):
    """Per-frame track ids from a tracker matching by repeated ``argmax``."""
    active, next_id, out = {}, 0, []
    for frame_index, boxes in enumerate(frames):
        active = {
            tid: (last, box)
            for tid, (last, box) in active.items()
            if frame_index - last <= max_age
        }
        assigned = {}
        if boxes and active:
            track_ids = list(active.keys())
            track_boxes = [active[tid][1] for tid in track_ids]
            iou = iou_matrix(boxes, track_boxes).copy()
            while True:
                flat = int(np.argmax(iou))
                i, j = np.unravel_index(flat, iou.shape)
                if iou[i, j] < iou_threshold:
                    break
                assigned[int(i)] = track_ids[j]
                iou[i, :] = -1.0
                iou[:, j] = -1.0
        ids = []
        for i, box in enumerate(boxes):
            tid = assigned.get(i)
            if tid is None:
                tid = next_id
                next_id += 1
            active[tid] = (frame_index, box)
            ids.append(tid)
        out.append(ids)
    return out


# The multibox and agree bodies over the numpy ``iou_matrix``, as oracles.
def numpy_multibox_severity(boxes, iou_threshold=0.1):
    if len(boxes) < 3:
        return 0.0
    iou = iou_matrix(boxes, boxes)
    overlapping = iou > iou_threshold
    np.fill_diagonal(overlapping, False)
    triples = 0
    for i, j, k in combinations(range(len(boxes)), 3):
        if overlapping[i, j] and overlapping[i, k] and overlapping[j, k]:
            triples += 1
    return float(triples)


def numpy_flagged_output_indices(assertion, item):
    boxes = assertion._boxes(item)
    positions = [idx for idx, o in enumerate(item.outputs) if assertion._keep(o)]
    if len(boxes) < 3:
        return []
    iou = iou_matrix(boxes, boxes)
    overlapping = iou > assertion.iou_threshold
    np.fill_diagonal(overlapping, False)
    flagged = set()
    for i, j, k in combinations(range(len(boxes)), 3):
        if overlapping[i, j] and overlapping[i, k] and overlapping[j, k]:
            flagged.update((i, j, k))
    return sorted(positions[i] for i in flagged)


def numpy_sensor_agreement(lidar_boxes, camera_boxes, iou_threshold=0.1):
    failures = 0
    iou = iou_matrix(lidar_boxes, camera_boxes)
    for i in range(len(lidar_boxes)):
        if not np.any(iou[i] >= iou_threshold):
            failures += 1
    for j in range(len(camera_boxes)):
        if not np.any(iou[:, j] >= iou_threshold):
            failures += 1
    return float(failures)


def numpy_disagreeing_outputs(assertion, item):
    lidar, camera = assertion.split_outputs(item)
    iou = iou_matrix(lidar, camera)
    bad_lidar = {id(b) for i, b in enumerate(lidar) if not np.any(iou[i] >= assertion.iou_threshold)}
    bad_camera = {id(b) for j, b in enumerate(camera) if not np.any(iou[:, j] >= assertion.iou_threshold)}
    flagged = []
    for idx, output in enumerate(item.outputs):
        box = output.get("box")
        if box is None:
            continue
        if output.get("sensor") == "lidar" and id(box) in bad_lidar:
            flagged.append(idx)
        elif output.get("sensor") == "camera" and id(box) in bad_camera:
            flagged.append(idx)
    return flagged


# Infinite corners make the numpy reference compute inf - inf and inf * 0.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestScalarPathEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(a=edge_frame(), b=edge_frame())
    def test_iou_rows_bit_equal_to_matrix(self, a, b):
        ref = iou_matrix(a, b)
        rows = np.array(iou_rows(a, b), dtype=np.float64).reshape(ref.shape)
        assert np.array_equal(rows.view(np.uint64), ref.view(np.uint64))
        assert iou_rows(a, b) == ref.tolist()

    def test_iou_rows_bit_equal_on_random_float_frames(self, rng):
        # Overlapping boxes with arbitrary float corners: every rounding
        # step of the union and the quotient is exercised.
        for _ in range(300):
            corners = rng.uniform(0, 10, size=(int(rng.integers(1, 11)), 2))
            sizes = rng.uniform(1e-9, 6, size=corners.shape)
            boxes = [Box2D(x, y, x + w, y + h) for (x, y), (w, h) in zip(corners, sizes)]
            ref = iou_matrix(boxes, boxes[::-1])
            rows = np.array(iou_rows(boxes, boxes[::-1]))
            assert np.array_equal(rows.view(np.uint64), ref.view(np.uint64))

    def test_iou_rows_empty_sides(self):
        box = Box2D(0, 0, 1, 1)
        assert iou_rows([], [box]) == []
        assert iou_rows([box, box], []) == [[], []]
        assert np.array_equal(np.array(iou_rows([box], [box])), iou_matrix([box], [box]))

    @settings(max_examples=400, deadline=None)
    @given(a=edge_frame(), b=edge_frame(), threshold=_thresholds)
    def test_match_boxes_equals_argmax_loop(self, a, b, threshold):
        assert match_boxes(a, b, threshold) == argmax_match_boxes(a, b, threshold)

    @settings(max_examples=200, deadline=None)
    @given(
        frames=st.lists(edge_frame(max_size=4), max_size=12),
        threshold=_thresholds.filter(lambda t: t > 0),
        max_age=st.integers(0, 3),
    )
    def test_tracker_ids_equal_argmax_loop(self, frames, threshold, max_age):
        tracked = IoUTracker(threshold, max_age).run(frames)
        ids = [[tb.track_id for tb in frame] for frame in tracked]
        assert ids == argmax_tracker_ids(frames, threshold, max_age)

    def test_tracker_ids_on_long_jittered_stream(self, rng):
        # Boxes land on a coarse grid, so matching meets many exact ties,
        # and tracks open and retire throughout a long stream.
        frames = []
        for _ in range(1500):
            n = int(rng.integers(0, 8))
            corners = rng.integers(0, 12, size=(n, 2)).astype(float)
            sizes = rng.integers(1, 5, size=(n, 2)).astype(float)
            frames.append([Box2D(x, y, x + w, y + h) for (x, y), (w, h) in zip(corners, sizes)])
        tracked = IoUTracker(0.25, 2).run(frames)
        ids = [[tb.track_id for tb in frame] for frame in tracked]
        assert ids == argmax_tracker_ids(frames, 0.25, 2)

    @settings(max_examples=300, deadline=None)
    @given(boxes=edge_frame(max_size=8), threshold=_thresholds, keep=st.data())
    def test_multibox_equals_numpy_body(self, boxes, threshold, keep):
        assert multibox_severity(boxes, threshold) == numpy_multibox_severity(boxes, threshold)
        outputs = [
            {"box": box, "camera": keep.draw(st.booleans())} for box in boxes
        ] + [{"box": None}]
        item = StreamItem(0, 0.0, None, outputs)
        assertion = MultiboxAssertion(threshold, output_filter=lambda o: o["camera"])
        assert assertion.flagged_output_indices(item) == numpy_flagged_output_indices(
            assertion, item
        )
        assert assertion.evaluate_item(item) == numpy_multibox_severity(
            assertion._boxes(item), threshold
        )

    @settings(max_examples=300, deadline=None)
    @given(lidar=edge_frame(), camera=edge_frame(), threshold=_thresholds)
    def test_agree_equals_numpy_body(self, lidar, camera, threshold):
        assert sensor_agreement(lidar, camera, threshold) == numpy_sensor_agreement(
            lidar, camera, threshold
        )
        outputs = [{"sensor": "lidar", "box": box} for box in lidar]
        outputs += [{"sensor": "lidar", "box": None}]
        outputs += [{"sensor": "camera", "box": box} for box in camera]
        item = StreamItem(0, 0.0, None, outputs)
        assertion = AgreeAssertion(threshold, min_projection_area=0.5)
        assert assertion.disagreeing_outputs(item) == numpy_disagreeing_outputs(assertion, item)
