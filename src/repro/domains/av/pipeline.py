"""AV monitoring pipeline: joint LIDAR + camera streams → assertions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.database import AssertionDatabase
from repro.core.runtime import OMG, MonitoringReport
from repro.core.types import StreamItem
from repro.domains.registry import MonitorRun
from repro.detection.detector import Detector
from repro.domains.av.assertions import AgreeAssertion
from repro.domains.video.assertions import MultiboxAssertion
from repro.geometry.camera import PinholeCamera, project_box3d_to_2d
from repro.lidar.detector import LidarDetector


@dataclass(frozen=True)
class AVPipelineConfig:
    """Parameters of the AV monitoring pipeline."""

    agree_iou: float = 0.1
    min_projection_area: float = 20.0
    multibox_iou: float = 0.1


class AVPipeline:
    """Runs both detectors over samples and monitors the fused stream.

    Each sample becomes one stream item whose outputs mix camera
    detections and LIDAR detections (with their 2-D projections), checked
    by the paper's two AV assertions: ``agree`` and ``multibox`` (§5.1).
    The consistency assertions (e.g. ``flicker``) are deliberately absent:
    "we found that the dataset was not sampled frequently enough (at 2 Hz)
    for these assertions".
    """

    def __init__(
        self,
        camera: PinholeCamera,
        config: "AVPipelineConfig | None" = None,
    ) -> None:
        self.camera = camera
        self.config = config if config is not None else AVPipelineConfig()
        database = AssertionDatabase()
        self.agree = AgreeAssertion(
            self.config.agree_iou, self.config.min_projection_area
        )
        self.multibox = MultiboxAssertion(
            self.config.multibox_iou,
            output_filter=lambda o: o.get("sensor") == "camera",
        )
        database.add(self.agree, domain="av")
        database.add(self.multibox, domain="av")
        self.omg = OMG(database)

    @property
    def assertion_names(self) -> list:
        return self.omg.database.names()

    # ------------------------------------------------------------------
    def to_stream(self, samples: list, camera_dets: list, lidar_dets: list) -> list:
        """Fuse per-sample detections from both sensors into stream items.

        ``camera_dets``/``lidar_dets`` are parallel lists over ``samples``
        of 2-D box lists / 3-D box lists. ``multibox`` is restricted to
        camera outputs via its ``output_filter``.
        """
        if not (len(samples) == len(camera_dets) == len(lidar_dets)):
            raise ValueError("samples, camera_dets and lidar_dets must be parallel")
        items = []
        for pos, (sample, cam_boxes, lidar_boxes) in enumerate(
            zip(samples, camera_dets, lidar_dets)
        ):
            outputs = self.fuse_outputs(cam_boxes, lidar_boxes)
            items.append(
                StreamItem(index=pos, timestamp=sample.timestamp, outputs=tuple(outputs))
            )
        return items

    def fuse_outputs(self, cam_boxes: list, lidar_boxes: list) -> list:
        """One sample's fused output list (camera boxes + LIDAR projections)."""
        outputs = [
            {"sensor": "camera", "box": box, "label": box.label, "score": box.score}
            for box in cam_boxes
        ]
        for box3d in lidar_boxes:
            outputs.append(
                {
                    "sensor": "lidar",
                    "box3d": box3d,
                    "box": project_box3d_to_2d(box3d, self.camera),
                    "score": box3d.score,
                }
            )
        return outputs

    def monitor(
        self, samples: list, camera_dets: list, lidar_dets: list
    ) -> MonitorRun:
        """Full pass over fused samples.

        Returns a :class:`~repro.domains.registry.MonitorRun`
        (``.report`` + ``.items``; unpacks like the old 2-tuple).
        """
        items = self.to_stream(samples, camera_dets, lidar_dets)
        return MonitorRun(report=self.omg.monitor(items), items=items)

    # ------------------------------------------------------------------
    # Online / streaming path
    # ------------------------------------------------------------------
    def observe_batch(
        self, samples: list, camera_dets: list, lidar_dets: list
    ) -> MonitoringReport:
        """Ingest a chunk of fused samples; returns the chunk's report.

        Both AV assertions are per-item, so the online severities equal
        the offline :meth:`monitor` matrix row-for-row.
        """
        if not (len(samples) == len(camera_dets) == len(lidar_dets)):
            raise ValueError("samples, camera_dets and lidar_dets must be parallel")
        outputs = [
            self.fuse_outputs(cam_boxes, lidar_boxes)
            for cam_boxes, lidar_boxes in zip(camera_dets, lidar_dets)
        ]
        return self.omg.observe_batch(
            None,
            outputs,
            timestamps=[sample.timestamp for sample in samples],
        )

    def run_models(
        self, samples: list, camera_model: Detector, lidar_model: LidarDetector
    ) -> tuple[list, list]:
        """Run both detectors over samples → (camera_dets, lidar_dets)."""
        camera_dets = [camera_model.detect(s.camera_image) for s in samples]
        lidar_dets = [lidar_model.detect(s.point_cloud) for s in samples]
        return camera_dets, lidar_dets
