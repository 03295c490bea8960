"""The ``agree`` assertion: LIDAR and camera detections must be consistent.

"We implemented a model assertion that projects the 3D boxes onto the 2D
camera plane to check for consistency. If the assertion triggers, then at
least one of the sensors returned an incorrect answer" (§2.2). The §2.1
code example counts LIDAR boxes with no overlapping camera box; we also
count camera boxes with no overlapping LIDAR projection, since a camera
false positive is equally a disagreement.

Stream outputs in this domain are dicts with a ``sensor`` key:
``{"sensor": "camera", "box": Box2D, ...}`` or
``{"sensor": "lidar", "box3d": Box3D, "box": Box2D | None}`` where
``box`` on LIDAR outputs is the precomputed 2-D projection (``None`` when
the object projects outside the image).
"""

from __future__ import annotations

import numpy as np

from repro.core.assertion import ModelAssertion
from repro.core.spec import register_predicate
from repro.geometry.iou import iou_rows


def sensor_agreement(lidar_boxes, camera_boxes, iou_threshold=0.1):
    """Count cross-sensor disagreements between two 2-D box sets.

    A LIDAR projection with no overlapping camera box is one failure;
    a camera box with no overlapping LIDAR projection is one failure.
    """
    iou = iou_rows(lidar_boxes, camera_boxes)
    failures = sum(not any(v >= iou_threshold for v in row) for row in iou)
    for j in range(len(camera_boxes)):
        if not any(row[j] >= iou_threshold for row in iou):
            failures += 1
    return float(failures)


class AgreeAssertion(ModelAssertion):
    """Per-sample LIDAR/camera agreement check (multi-modal consistency)."""

    taxonomy_class = "consistency"

    def __init__(
        self,
        iou_threshold: float = 0.1,
        min_projection_area: float = 20.0,
        name: str = "agree",
    ) -> None:
        super().__init__(name, "point-cloud and image detections must agree")
        self.iou_threshold = iou_threshold
        self.min_projection_area = min_projection_area

    def split_outputs(self, item) -> tuple[list, list]:
        """(lidar projections, camera boxes) participating in the check.

        LIDAR outputs without a usable projection (behind the camera or
        tiny at the image border) are excluded — their absence from the
        camera view is expected, not a disagreement.
        """
        lidar = [
            o["box"]
            for o in item.outputs
            if o.get("sensor") == "lidar"
            and o.get("box") is not None
            and o["box"].area >= self.min_projection_area
        ]
        camera = [o["box"] for o in item.outputs if o.get("sensor") == "camera"]
        return lidar, camera

    def evaluate_item(self, item) -> float:
        """Per-item severity (streaming hook: agreement is memoryless)."""
        lidar, camera = self.split_outputs(item)
        return sensor_agreement(lidar, camera, self.iou_threshold)

    def evaluate_stream(self, items: list) -> np.ndarray:
        severities = np.zeros(len(items), dtype=np.float64)
        for pos, item in enumerate(items):
            severities[pos] = self.evaluate_item(item)
        return severities

    def disagreeing_outputs(self, item) -> list:
        """Output indices (into ``item.outputs``) that disagree."""
        lidar, camera = self.split_outputs(item)
        iou = iou_rows(lidar, camera)
        threshold = self.iou_threshold
        bad_lidar = {id(b) for b, row in zip(lidar, iou) if not any(v >= threshold for v in row)}
        bad_camera = {
            id(b) for j, b in enumerate(camera) if not any(row[j] >= threshold for row in iou)
        }
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


@register_predicate("av.agree", factory=True)
def agree_assertion_factory(
    iou_threshold: float = 0.1, min_projection_area: float = 20.0
) -> AgreeAssertion:
    """Factory behind ``PerItemSpec(predicate="av.agree")``."""
    return AgreeAssertion(iou_threshold, min_projection_area)
