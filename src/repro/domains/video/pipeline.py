"""Video-analytics monitoring pipeline: detections → tracks → assertions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.database import AssertionDatabase
from repro.core.runtime import OMG, MonitoringReport
from repro.core.types import StreamItem
from repro.domains.registry import MonitorRun
from repro.domains.video.assertions import (
    MultiboxAssertion,
    make_appear_assertion,
    make_flicker_assertion,
    video_consistency_spec,
)
from repro.tracking.tracker import IoUTracker
from repro.utils.codec import register_result_type


@register_result_type
@dataclass(frozen=True)
class VideoPipelineConfig:
    """Parameters of the video monitoring pipeline."""

    fps: float = 15.0
    temporal_threshold: float = 0.4  # T for flicker/appear, in seconds
    tracker_iou: float = 0.2
    tracker_max_age: int = 3
    multibox_iou: float = 0.25


class VideoPipeline:
    """Builds the OMG runtime for the video domain and feeds it streams.

    The pipeline converts per-frame detection lists into stream items:
    boxes get identifiers from a greedy IoU tracker (§4.1: "we can assign
    a new identifier for each box that appears and assign the same
    identifier as it persists through the video"), and the three §5.1
    assertions — ``flicker``, ``appear``, ``multibox`` — are registered in
    a fresh assertion database.
    """

    def __init__(self, config: "VideoPipelineConfig | None" = None) -> None:
        self.config = config if config is not None else VideoPipelineConfig()
        self.spec = video_consistency_spec(self.config.temporal_threshold)
        database = AssertionDatabase()
        self.flicker = make_flicker_assertion(self.spec)
        self.appear = make_appear_assertion(self.spec)
        self.multibox = MultiboxAssertion(self.config.multibox_iou)
        database.add(self.multibox, domain="video")
        database.add(self.flicker, domain="video")
        database.add(self.appear, domain="video")
        self.omg = OMG(database)
        self._live_tracker: "IoUTracker | None" = None

    @property
    def assertion_names(self) -> list:
        return self.omg.database.names()

    # ------------------------------------------------------------------
    def to_stream(self, detections_per_frame: list) -> list:
        """Track detections and wrap them into stream items.

        ``detections_per_frame`` is a list (over frames) of lists of
        scored, labeled :class:`~repro.geometry.box2d.Box2D`.
        """
        tracker = IoUTracker(
            iou_threshold=self.config.tracker_iou, max_age=self.config.tracker_max_age
        )
        tracked_frames = tracker.run(detections_per_frame)
        items = []
        for frame_index, tracked in enumerate(tracked_frames):
            outputs = self._frame_outputs(tracked)
            items.append(
                StreamItem(
                    index=frame_index,
                    timestamp=frame_index / self.config.fps,
                    outputs=outputs,
                )
            )
        return items

    @staticmethod
    def _frame_outputs(tracked: list) -> tuple:
        return tuple(
            {
                "box": t.box,
                "label": t.box.label,
                "score": t.box.score,
                "track_id": t.track_id,
            }
            for t in tracked
        )

    def monitor(self, detections_per_frame: list) -> MonitorRun:
        """Full pass: track, build the stream, run all assertions.

        Returns a :class:`~repro.domains.registry.MonitorRun`
        (``.report`` + ``.items``; unpacks like the old 2-tuple).
        """
        items = self.to_stream(detections_per_frame)
        return MonitorRun(report=self.omg.monitor(items), items=items)

    # ------------------------------------------------------------------
    # Online / streaming path
    # ------------------------------------------------------------------
    def start_stream(self) -> None:
        """Begin a fresh online session: new tracker, cleared runtime."""
        self._live_tracker = IoUTracker(
            iou_threshold=self.config.tracker_iou, max_age=self.config.tracker_max_age
        )
        self.omg.reset()

    def _require_tracker(self) -> IoUTracker:
        if self._live_tracker is None:
            self.start_stream()
        return self._live_tracker

    def observe_batch(self, detections_per_frame: list) -> MonitoringReport:
        """Ingest a chunk of frames; returns the chunk's severity report."""
        tracker = self._require_tracker()
        start = self.omg.n_observed
        outputs = []
        for offset, detections in enumerate(detections_per_frame):
            tracked = tracker.update(start + offset, detections)
            outputs.append(self._frame_outputs(tracked))
        timestamps = [
            (start + offset) / self.config.fps
            for offset in range(len(detections_per_frame))
        ]
        return self.omg.observe_batch(None, outputs, timestamps=timestamps)

    def severity_matrix(self, detections_per_frame: list) -> np.ndarray:
        """``(n_frames, 3)`` severities in database order."""
        report, _ = self.monitor(detections_per_frame)
        return report.severities
