"""``video`` domain adapter: night-street detection through the registry.

Raw unit: one frame's detection list (scored, labeled
:class:`~repro.geometry.box2d.Box2D`). Per-stream state: a live greedy
IoU tracker plus the frame counter, so identifiers persist across raw
units exactly as :meth:`VideoPipeline.to_stream` assigns them offline.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.core.seeding import derive_seed
from repro.core.spec import (
    AssertionSuite,
    ConsistencySpecDecl,
    PerItemSpec,
    SuiteEntry,
    TemporalDecl,
)
from repro.domains.registry import Domain, RawItem, RetrainableModel, register_domain
from repro.domains.video.pipeline import VideoPipeline, VideoPipelineConfig
from repro.tracking.tracker import IoUTracker
from repro.utils.codec import register_result_type
from repro.worlds.traffic import TrafficWorld, TrafficWorldConfig


@register_result_type
@dataclass(frozen=True)
class VideoDomainConfig:
    """Serving config: pipeline knobs plus the demo world/model sizes."""

    pipeline: VideoPipelineConfig = VideoPipelineConfig()
    world: TrafficWorldConfig = field(
        default_factory=lambda: TrafficWorldConfig(profile="night")
    )
    #: Bootstrap sizes for the demo detector built by :meth:`build_world`
    #: (kept small: the serving demo needs a model that makes the
    #: paper's systematic errors, not a well-trained one).
    n_bootstrap_day: int = 30
    n_bootstrap_night: int = 2
    #: Held-out frames behind :meth:`RetrainableModel.evaluate`.
    n_eval: int = 60


class _VideoWorld:
    """A traffic world plus the detector that watches it."""

    def __init__(self, world: TrafficWorld, detector) -> None:
        self.world = world
        self.detector = detector


class VideoRetrainableModel(RetrainableModel):
    """The night-street detector behind a video improvement loop.

    Weak supervision reuses :func:`~repro.core.weak_supervision.
    harvest_weak_labels`: the given units form a sub-stream, the three
    video assertions propose corrections over it (flicker gaps filled,
    spurious appearances removed, majority-class fixes), and the
    corrected outputs become per-frame pseudo-truth boxes — the §5.5
    recipe, applied online to the frames the monitor flagged.
    """

    metric_name = "mAP%"

    def __init__(
        self, config: VideoDomainConfig, seed: int = 0, *, bootstrap: bool = True
    ) -> None:
        from repro.detection.detector import Detector
        from repro.domains.video.task import bootstrap_detector, make_video_task_data

        self.config = config
        self._seed = seed
        self._eval_frames: "list | None" = None
        if bootstrap:
            data = make_video_task_data(
                derive_seed(seed, "video-improve", "bootstrap"),
                n_bootstrap_day=config.n_bootstrap_day,
                n_bootstrap_night=config.n_bootstrap_night,
                n_pool=1,
                n_test=1,
            )
            self.model = bootstrap_detector(
                data, seed=derive_seed(seed, "video-improve", "detector")
            )
        else:
            self.model = Detector(
                seed=derive_seed(seed, "video-improve", "detector")
            )

    @property
    def eval_frames(self) -> list:
        """Held-out night frames (lazy: workers never evaluate)."""
        if self._eval_frames is None:
            # The same night mix make_video_task_data deploys on.
            night = TrafficWorldConfig(profile="night", class_probabilities=(0.70, 0.30))
            self._eval_frames = TrafficWorld(
                night, seed=derive_seed(self._seed, "video-improve", "eval")
            ).generate(self.config.n_eval)
        return self._eval_frames

    def predict_raw(self, sample) -> list:
        return self.model.detect(sample.image)

    def uncertainty(self, sample, raw) -> float:
        from repro.domains.video.task import frame_uncertainty

        return float(frame_uncertainty([raw])[0])

    def oracle_label(self, sample) -> list:
        return sample.ground_truth

    def weak_labels(self, samples: list, raws: "list | None" = None) -> list:
        from repro.core.weak_supervision import harvest_weak_labels
        from repro.geometry.box2d import Box2D

        if raws is None:
            raws = [self.predict_raw(sample) for sample in samples]
        if not samples:
            return []
        pipeline = VideoPipeline(self.config.pipeline)
        _report, items = pipeline.monitor(list(raws))
        weak = harvest_weak_labels(pipeline.omg, items)
        return [
            [
                Box2D(o["box"].x1, o["box"].y1, o["box"].x2, o["box"].y2,
                      label=o["label"])
                for o in item.outputs
            ]
            for item in weak.items
        ]

    def fine_tune(self, examples: list) -> None:
        images = [sample.image for sample, _label in examples]
        truths = [label for _sample, label in examples]
        self.model.fine_tune(images, truths)

    def evaluate(self) -> float:
        from repro.metrics.detection import evaluate_detections

        predictions = self.model.detect_frames([f.image for f in self.eval_frames])
        truths = [f.ground_truth for f in self.eval_frames]
        return evaluate_detections(predictions, truths).mean_ap_percent

    def get_state(self) -> dict:
        return self.model.get_state()

    def set_state(self, payload: dict) -> None:
        self.model.set_state(payload)


@register_domain("video")
class VideoDomain(Domain):
    """Video analytics: ``multibox`` / ``flicker`` / ``appear``."""

    @classmethod
    def default_config(cls) -> VideoDomainConfig:
        return VideoDomainConfig()

    def build_pipeline(self, config: "VideoDomainConfig | None" = None) -> VideoPipeline:
        """The offline pipeline (the registry entry point experiments use)."""
        return VideoPipeline(self._config(config).pipeline)

    def assertion_suite(self, config: "VideoDomainConfig | None" = None) -> AssertionSuite:
        """``multibox`` + the flicker/appear consistency pair, as specs."""
        p = self._config(config).pipeline
        return AssertionSuite(
            name="video-builtin",
            version=1,
            domain="video",
            entries=(
                SuiteEntry(
                    spec=PerItemSpec(
                        name="multibox",
                        predicate="video.multibox",
                        params={"iou_threshold": p.multibox_iou},
                        description="three vehicles should not highly overlap",
                        taxonomy_class="domain knowledge",
                    ),
                    tags=("builtin", "video"),
                ),
                SuiteEntry(
                    spec=ConsistencySpecDecl(
                        name="video",
                        id_fn="video.track_id",
                        attrs_fn="video.class_attr",
                        temporal_threshold=p.temporal_threshold,
                        temporal=(
                            TemporalDecl(mode="gap", name="flicker"),
                            TemporalDecl(mode="run", name="appear"),
                        ),
                        weak_label_fn="video.interpolate_box",
                    ),
                    tags=("builtin", "video", "consistency"),
                ),
            ),
        )

    def build_world(self, seed: int = 0) -> _VideoWorld:
        from repro.domains.video.task import bootstrap_detector, make_video_task_data

        cfg = self.config
        data = make_video_task_data(
            derive_seed(seed, "video", "bootstrap"),
            n_bootstrap_day=cfg.n_bootstrap_day,
            n_bootstrap_night=cfg.n_bootstrap_night,
            n_pool=1,
            n_test=1,
        )
        detector = bootstrap_detector(data, seed=derive_seed(seed, "video", "detector"))
        world = TrafficWorld(cfg.world, seed=derive_seed(seed, "video", "world"))
        return _VideoWorld(world, detector)

    def iter_stream(self, world: _VideoWorld):
        for frame in world.world.stream(sys.maxsize):
            yield world.detector.detect(frame.image)

    def build_sensor(self, seed: int = 0) -> TrafficWorld:
        return TrafficWorld(
            self.config.world, seed=derive_seed(seed, "video", "sensor")
        )

    def iter_samples(self, sensor: TrafficWorld):
        for frame in sensor.stream(sys.maxsize):
            yield frame

    def retrainable(
        self, seed: int = 0, *, bootstrap: bool = True
    ) -> VideoRetrainableModel:
        return VideoRetrainableModel(self.config, seed, bootstrap=bootstrap)

    def new_state(self, config: "VideoDomainConfig | None" = None) -> dict:
        pipeline_cfg = self._config(config).pipeline
        return {
            "tracker": IoUTracker(
                iou_threshold=pipeline_cfg.tracker_iou,
                max_age=pipeline_cfg.tracker_max_age,
            ),
            "frame": 0,
            "fps": pipeline_cfg.fps,
        }

    def item_from_raw(self, raw, state=None) -> list:
        if state is None:
            # Tracking accumulates across frames; a fresh tracker per call
            # would silently produce wrong severities.
            raise ValueError(
                "the video domain is stateful: thread the object returned by "
                "new_state() through every item_from_raw call (MonitorService "
                "does this per session)"
            )
        frame = state["frame"]
        state["frame"] = frame + 1
        tracked = state["tracker"].update(frame, list(raw))
        outputs = VideoPipeline._frame_outputs(tracked)
        return [RawItem(list(outputs), frame / state["fps"])]

    def state_snapshot(self, state) -> dict:
        return {
            "tracker": state["tracker"].get_state(),
            "frame": state["frame"],
            "fps": state["fps"],
        }

    def state_restore(self, payload, config=None) -> dict:
        state = self.new_state(config)
        state["tracker"].set_state(payload["tracker"])
        state["frame"] = int(payload["frame"])
        state["fps"] = float(payload["fps"])
        return state
