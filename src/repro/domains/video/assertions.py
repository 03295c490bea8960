"""The three video-analytics assertions: multibox, flicker, appear (§5.1).

``multibox`` is a custom domain-knowledge assertion ("three vehicles
should not highly overlap", Table 1). ``flicker`` and ``appear`` are
generated by the consistency API over tracker-assigned identifiers:
``flicker`` fires when an identifier disappears and reappears within the
temporal threshold (the Figure 1 failure), ``appear`` when an identifier
exists for less than the threshold.

Stream outputs in this domain are dicts with keys ``box``
(:class:`~repro.geometry.box2d.Box2D`), ``label``, ``score``, and
``track_id`` (assigned by :class:`~repro.tracking.IoUTracker`).

The Table 2 bench counts the source lines of the functions in this module
(and the geometry helpers they call), mirroring how the paper counts
assertion LOC with and without shared helpers.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

import numpy as np

from repro.core.assertion import ModelAssertion
from repro.core.consistency import ConsistencySpec, TemporalConsistencyAssertion
from repro.core.spec import register_predicate
from repro.geometry.box2d import Box2D
from repro.geometry.iou import iou_rows


def multibox_severity(boxes, iou_threshold=0.1):
    """Number of box triples that all pairwise overlap above the threshold."""
    if len(boxes) < 3:
        return 0.0
    iou = iou_rows(boxes, boxes)
    triples = 0
    for i, j, k in combinations(range(len(boxes)), 3):
        if iou[i][j] > iou_threshold and iou[i][k] > iou_threshold and iou[j][k] > iou_threshold:
            triples += 1
    return float(triples)


class MultiboxAssertion(ModelAssertion):
    """Fires when three detections highly overlap (Figure 7 errors)."""

    taxonomy_class = "domain knowledge"

    def __init__(
        self,
        iou_threshold: float = 0.1,
        name: str = "multibox",
        box_key: str = "box",
        output_filter=None,
    ) -> None:
        super().__init__(name, "three vehicles should not highly overlap")
        self.iou_threshold = iou_threshold
        self.box_key = box_key
        #: Optional predicate restricting which outputs participate (the AV
        #: pipeline uses it to check camera detections only).
        self.output_filter = output_filter

    def _keep(self, output) -> bool:
        if output.get(self.box_key) is None:
            return False
        return self.output_filter is None or bool(self.output_filter(output))

    def _boxes(self, item) -> list:
        return [o[self.box_key] for o in item.outputs if self._keep(o)]

    def evaluate_item(self, item) -> float:
        """Per-item severity (streaming hook: multibox is memoryless)."""
        return multibox_severity(self._boxes(item), self.iou_threshold)

    def evaluate_stream(self, items: list) -> np.ndarray:
        return np.array([self.evaluate_item(item) for item in items])

    def flagged_output_indices(self, item) -> list:
        """Indices of outputs participating in an overlapping triple."""
        boxes = self._boxes(item)
        positions = [idx for idx, o in enumerate(item.outputs) if self._keep(o)]
        if len(boxes) < 3:
            return []
        iou = iou_rows(boxes, boxes)
        threshold = self.iou_threshold
        flagged = set()
        for i, j, k in combinations(range(len(boxes)), 3):
            if iou[i][j] > threshold and iou[i][k] > threshold and iou[j][k] > threshold:
                flagged.update((i, j, k))
        return sorted(positions[i] for i in flagged)


def interpolate_box(identifier, item, observations):
    """``WeakLabel`` function: impute a box inside a flicker gap (§4.2).

    Linearly interpolates the track's surrounding boxes in time ("e.g.,
    averaging the locations of the object on nearby video frames"); the
    label is the track's majority class and the score the mean of the
    neighbors' scores.
    """
    before = [o for o in observations if o.timestamp < item.timestamp]
    after = [o for o in observations if o.timestamp > item.timestamp]
    if not before or not after:
        return None
    prev, nxt = before[-1], after[0]
    span = nxt.timestamp - prev.timestamp
    w = (item.timestamp - prev.timestamp) / span if span > 0 else 0.5
    a, b = prev.output["box"], nxt.output["box"]
    box = Box2D(
        a.x1 + w * (b.x1 - a.x1),
        a.y1 + w * (b.y1 - a.y1),
        a.x2 + w * (b.x2 - a.x2),
        a.y2 + w * (b.y2 - a.y2),
    )
    label = Counter(o.output["label"] for o in observations).most_common(1)[0][0]
    score = float(np.mean([prev.output["score"], nxt.output["score"]]))
    return {"box": box, "label": label, "score": score, "track_id": identifier, "imputed": True}


def video_consistency_spec(temporal_threshold: float, name: str = "video") -> ConsistencySpec:
    """The consistency spec shared by ``flicker`` and ``appear``.

    Identifier = tracker id; attribute = predicted class; ``T`` =
    ``temporal_threshold`` seconds.
    """
    return ConsistencySpec(
        id_fn=lambda o: o.get("track_id"),
        attrs_fn=lambda o: {"class": o["label"]},
        temporal_threshold=temporal_threshold,
        weak_label_fn=interpolate_box,
        name=name,
    )


def make_flicker_assertion(spec: ConsistencySpec) -> TemporalConsistencyAssertion:
    """``flicker``: an object must not disappear and reappear within ``T``."""
    return TemporalConsistencyAssertion(spec, mode="gap", name="flicker")


def make_appear_assertion(spec: ConsistencySpec) -> TemporalConsistencyAssertion:
    """``appear``: an object must not exist for less than ``T``."""
    return TemporalConsistencyAssertion(spec, mode="run", name="appear")


# ----------------------------------------------------------------------
# Predicate-registry entries (the declarative-spec vocabulary)
# ----------------------------------------------------------------------
@register_predicate("video.multibox", factory=True)
def multibox_assertion_factory(
    iou_threshold: float = 0.1, box_key: str = "box", sensor: "str | None" = None
) -> MultiboxAssertion:
    """Factory behind ``PerItemSpec(predicate="video.multibox")``.

    ``sensor`` restricts the check to outputs of one sensor (the AV
    suite passes ``"camera"``); ``None`` checks every output with a box.
    """
    output_filter = (
        (lambda o: o.get("sensor") == sensor) if sensor is not None else None
    )
    return MultiboxAssertion(iou_threshold, box_key=box_key, output_filter=output_filter)


@register_predicate("video.track_id")
def track_identifier(output) -> "int | None":
    """``Id``: the tracker-assigned identifier (None = untracked)."""
    return output.get("track_id")


@register_predicate("video.class_attr")
def class_attribute(output) -> dict:
    """``Attrs``: the predicted class, keyed as the §4 example does."""
    return {"class": output["label"]}


register_predicate("video.interpolate_box", interpolate_box)
