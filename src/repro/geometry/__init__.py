"""Geometry substrate: 2-D/3-D boxes, IoU, NMS, and camera projection.

These primitives back the video-analytics and autonomous-vehicle domains:
the ``multibox``/``flicker``/``appear`` assertions reason about 2-D box
overlap, and the ``agree`` assertion projects 3-D LIDAR detections onto the
camera plane (§2.2 of the paper) before checking overlap with 2-D camera
detections.
"""

from repro.geometry.box2d import (
    Box2D,
    box_area,
    boxes_to_array,
    clip_boxes,
    make_box,
)
from repro.geometry.box3d import Box3D, box3d_corners
from repro.geometry.camera import PinholeCamera, project_box3d_to_2d
from repro.geometry.iou import iou_matrix, iou_pairwise, iou_rows, match_boxes
from repro.geometry.nms import non_max_suppression

__all__ = [
    "Box2D",
    "Box3D",
    "PinholeCamera",
    "box_area",
    "box3d_corners",
    "boxes_to_array",
    "clip_boxes",
    "iou_matrix",
    "iou_pairwise",
    "iou_rows",
    "make_box",
    "match_boxes",
    "non_max_suppression",
    "project_box3d_to_2d",
]
