"""Intersection-over-union and greedy box matching.

:func:`iou_matrix` and :func:`iou_pairwise` take ``(n, 4)`` arrays (or box
lists) and serve the bulk callers: NMS, the detector, metrics and the
experiments. :func:`iou_rows` takes :class:`Box2D` sequences and serves
the per-frame callers, whose frames hold a handful of boxes: there it
avoids numpy's per-call dispatch while computing bit-equal values.
:func:`match_boxes` is the one greedy matcher, shared with the tracker.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.box2d import boxes_to_array


def iou_matrix(boxes_a, boxes_b) -> np.ndarray:
    """Pairwise IoU between two box sets.

    Parameters
    ----------
    boxes_a, boxes_b:
        ``(n, 4)`` / ``(m, 4)`` arrays (or lists of :class:`Box2D`).

    Returns
    -------
    numpy.ndarray
        ``(n, m)`` matrix of IoU values in ``[0, 1]``.
    """
    a = boxes_to_array(boxes_a)
    b = boxes_to_array(boxes_b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)

    # Broadcast to (n, m) intersection rectangles.
    x1 = np.maximum(a[:, None, 0], b[None, :, 0])
    y1 = np.maximum(a[:, None, 1], b[None, :, 1])
    x2 = np.minimum(a[:, None, 2], b[None, :, 2])
    y2 = np.minimum(a[:, None, 3], b[None, :, 3])

    inter = np.clip(x2 - x1, 0.0, None) * np.clip(y2 - y1, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0, inter / union, 0.0)
    return iou


def iou_pairwise(boxes_a, boxes_b) -> np.ndarray:
    """Element-wise IoU of two equal-length box sets → ``(n,)`` array."""
    a = boxes_to_array(boxes_a)
    b = boxes_to_array(boxes_b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    x1 = np.maximum(a[:, 0], b[:, 0])
    y1 = np.maximum(a[:, 1], b[:, 1])
    x2 = np.minimum(a[:, 2], b[:, 2])
    y2 = np.minimum(a[:, 3], b[:, 3])
    inter = np.clip(x2 - x1, 0.0, None) * np.clip(y2 - y1, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a + area_b - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, 0.0)


def _corners(boxes) -> list:
    """``(x1, y1, x2, y2, area)`` of each :class:`Box2D`, as Python floats."""
    corners = [(float(b.x1), float(b.y1), float(b.x2), float(b.y2)) for b in boxes]
    return [(x1, y1, x2, y2, (x2 - x1) * (y2 - y1)) for x1, y1, x2, y2 in corners]


def iou_rows(boxes_a, boxes_b) -> list[list[float]]:
    """Pairwise IoU of two :class:`Box2D` sequences as nested lists.

    ``iou_rows(a, b)[i][j]`` is bit-equal to ``iou_matrix(a, b)[i, j]``:
    each pair runs the same IEEE operations in the same order, and a pair
    whose intersection is empty is 0.0, which is what ``iou_matrix``
    yields for it.
    """
    rows_b = _corners(boxes_b)
    result = []
    for ax1, ay1, ax2, ay2, area_a in _corners(boxes_a):
        row = []
        for bx1, by1, bx2, by2, area_b in rows_b:
            # Conditional min/max equal np.minimum/np.maximum here: Box2D
            # admits no NaN corner, and a tie between +0.0 and -0.0 can only
            # change a width or height that is not positive anyway.
            w = (ax2 if ax2 < bx2 else bx2) - (ax1 if ax1 > bx1 else bx1)
            h = (ay2 if ay2 < by2 else by2) - (ay1 if ay1 > by1 else by1)
            if w > 0.0 and h > 0.0:
                inter = w * h
                union = area_a + area_b - inter
                row.append(inter / union if union > 0 else 0.0)
            else:
                row.append(0.0)
        result.append(row)
    return result


def match_boxes(boxes_a, boxes_b, iou_threshold: float = 0.5) -> list[tuple[int, int, float]]:
    """Greedy one-to-one matching of two :class:`Box2D` sequences by descending IoU.

    Standard evaluation-style matcher: repeatedly take the highest-IoU
    unmatched pair at or above ``iou_threshold`` (and above 0), breaking
    ties by the lower ``(index_a, index_b)``.

    Returns
    -------
    list of ``(index_a, index_b, iou)`` triples, in the order taken.
    """
    candidates = sorted(
        (-iou, i, j)
        for i, row in enumerate(iou_rows(boxes_a, boxes_b))
        for j, iou in enumerate(row)
        if iou >= iou_threshold and iou > 0
    )
    used_a: set = set()
    used_b: set = set()
    matches: list[tuple[int, int, float]] = []
    for neg_iou, i, j in candidates:
        if i not in used_a and j not in used_b:
            used_a.add(i)
            used_b.add(j)
            matches.append((i, j, -neg_iou))
    return matches
