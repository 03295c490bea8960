"""Greedy frame-to-frame IoU tracker."""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.box2d import Box2D
from repro.geometry.iou import match_boxes


@dataclass(frozen=True)
class TrackedBox:
    """A box annotated with its track identifier and frame index."""

    track_id: int
    frame_index: int
    box: Box2D


class IoUTracker:
    """Greedy IoU matching of detections across consecutive frames.

    Each frame's boxes are matched to the previous frame's *active* tracks
    by descending IoU; unmatched boxes open new tracks; tracks unmatched
    for more than ``max_age`` frames are retired. This is deliberately the
    simplest credible tracker — the consistency API must work with
    identifiers of exactly this quality (occasional id switches), which is
    why Table 3 reports precision both with and without identifier errors.

    The tracker keeps only what matching reads: the next identifier and
    each active track's last frame and box. It keeps no per-track history,
    so a long-lived stream holds memory bounded by its active tracks.
    """

    def __init__(self, iou_threshold: float = 0.25, max_age: int = 2) -> None:
        if not 0.0 < iou_threshold <= 1.0:
            raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
        if max_age < 0:
            raise ValueError(f"max_age must be >= 0, got {max_age}")
        self.iou_threshold = iou_threshold
        self.max_age = max_age
        self._next_id = 0
        self._active: dict = {}  # track_id -> (last_frame, last_box)

    def reset(self) -> None:
        """Forget all tracks (e.g., at a scene cut)."""
        self._next_id = 0
        self._active = {}

    def update(self, frame_index: int, boxes: list) -> list:
        """Assign identifiers to one frame's boxes.

        Returns a list of :class:`TrackedBox`, aligned with ``boxes``.
        """
        # Retire stale tracks first.
        self._active = {
            tid: (last, box)
            for tid, (last, box) in self._active.items()
            if frame_index - last <= self.max_age
        }

        track_ids = list(self._active)
        track_boxes = [box for _, box in self._active.values()]
        matches = match_boxes(boxes, track_boxes, self.iou_threshold)
        assigned = {i: track_ids[j] for i, j, _ in matches}

        result = []
        for i, box in enumerate(boxes):
            tid = assigned.get(i)
            if tid is None:
                tid = self._next_id
                self._next_id += 1
            self._active[tid] = (frame_index, box)
            result.append(TrackedBox(track_id=tid, frame_index=frame_index, box=box))
        return result

    def get_state(self) -> dict:
        """JSON-encodable matching state (for monitor snapshots).

        Captures the next track id and the active tracks' last boxes —
        everything :meth:`update` reads — as primitives, so a restored
        tracker assigns bit-identical ids.
        """
        return {
            "next_id": self._next_id,
            "active": [
                [
                    int(tid),
                    int(last),
                    [box.x1, box.y1, box.x2, box.y2, box.label, box.score],
                ]
                for tid, (last, box) in self._active.items()
            ],
        }

    def set_state(self, state: dict) -> None:
        """Restore matching state captured by :meth:`get_state`."""
        self.reset()
        self._next_id = int(state["next_id"])
        for tid, last, (x1, y1, x2, y2, label, score) in state["active"]:
            box = Box2D(float(x1), float(y1), float(x2), float(y2), str(label), float(score))
            self._active[int(tid)] = (int(last), box)

    def run(self, frames: list) -> list:
        """Track a whole video: ``frames`` is a list of per-frame box lists.

        Returns a parallel list of per-frame :class:`TrackedBox` lists.
        The tracker is reset first, so ``run`` is idempotent.
        """
        self.reset()
        return [self.update(idx, boxes) for idx, boxes in enumerate(frames)]
