"""``av`` domain adapter: LIDAR + camera fusion through the registry.

Raw unit: one 2 Hz sample with both sensors' detections —
``{"sample", "camera", "lidar"}`` — fused into a single stream item by
the same :meth:`AVPipeline.fuse_outputs` the offline monitor uses. Both
AV assertions are per-item, so the domain is stateless per stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.seeding import derive_seed
from repro.core.spec import AssertionSuite, PerItemSpec, SuiteEntry
from repro.domains.av.pipeline import AVPipeline, AVPipelineConfig
from repro.domains.registry import Domain, RawItem, register_domain
from repro.geometry.camera import PinholeCamera
from repro.worlds.av import AVWorld, AVWorldConfig


@dataclass(frozen=True)
class AVDomainConfig:
    """Serving config: camera/pipeline knobs plus demo model sizes."""

    pipeline: AVPipelineConfig = AVPipelineConfig()
    world: AVWorldConfig = field(default_factory=AVWorldConfig)
    #: Camera used to project LIDAR boxes; ``None`` = the world's camera.
    camera: "PinholeCamera | None" = None
    #: Bootstrap sizes for the demo detectors built by :meth:`build_world`.
    n_bootstrap_scenes: int = 10
    n_pretrain_scenes: int = 3


class _AVWorld:
    """An AV scene generator plus its two bootstrapped detectors."""

    def __init__(self, world: AVWorld, camera_model, lidar_model) -> None:
        self.world = world
        self.camera_model = camera_model
        self.lidar_model = lidar_model


@register_domain("av")
class AVDomain(Domain):
    """Autonomous vehicles: ``agree`` + ``multibox`` over fused sensors."""

    @classmethod
    def default_config(cls) -> AVDomainConfig:
        return AVDomainConfig()

    def _camera(self, cfg: AVDomainConfig) -> PinholeCamera:
        return cfg.camera if cfg.camera is not None else cfg.world.camera

    def build_pipeline(self, config: "AVDomainConfig | None" = None) -> AVPipeline:
        """The offline pipeline (the registry entry point experiments use)."""
        cfg = self._config(config)
        return AVPipeline(self._camera(cfg), cfg.pipeline)

    def assertion_suite(self, config: "AVDomainConfig | None" = None) -> AssertionSuite:
        """``agree`` + camera-only ``multibox`` (§5.1), as specs."""
        p = self._config(config).pipeline
        return AssertionSuite(
            name="av-builtin",
            version=1,
            domain="av",
            entries=(
                SuiteEntry(
                    spec=PerItemSpec(
                        name="agree",
                        predicate="av.agree",
                        params={
                            "iou_threshold": p.agree_iou,
                            "min_projection_area": p.min_projection_area,
                        },
                        description="point-cloud and image detections must agree",
                        taxonomy_class="consistency",
                    ),
                    tags=("builtin", "av"),
                ),
                SuiteEntry(
                    spec=PerItemSpec(
                        name="multibox",
                        predicate="video.multibox",
                        params={"iou_threshold": p.multibox_iou, "sensor": "camera"},
                        description="three vehicles should not highly overlap",
                        taxonomy_class="domain knowledge",
                    ),
                    tags=("builtin", "av"),
                ),
            ),
        )

    def build_world(self, seed: int = 0) -> _AVWorld:
        from repro.domains.av.task import bootstrap_av_models, make_av_task_data

        cfg = self.config
        data = make_av_task_data(
            derive_seed(seed, "av", "bootstrap"),
            n_bootstrap_scenes=cfg.n_bootstrap_scenes,
            n_camera_pretrain_scenes=cfg.n_pretrain_scenes,
            n_pool_scenes=1,
            n_test_scenes=1,
            world_config=cfg.world,
        )
        camera_model, lidar_model = bootstrap_av_models(
            data, seed=derive_seed(seed, "av", "models")
        )
        world = AVWorld(cfg.world, seed=derive_seed(seed, "av", "world"))
        return _AVWorld(world, camera_model, lidar_model)

    def iter_stream(self, world: _AVWorld):
        scene_id = 0
        while True:
            scene = world.world.generate_scene(scene_id)
            scene_id += 1
            for sample in scene.samples:
                yield {
                    "sample": sample,
                    "camera": world.camera_model.detect(sample.camera_image),
                    "lidar": world.lidar_model.detect(sample.point_cloud),
                }

    def item_from_raw(self, raw, state=None) -> list:
        outputs = self._fuser.fuse_outputs(raw["camera"], raw["lidar"])
        return [RawItem(outputs, raw["sample"].timestamp)]

    @property
    def _fuser(self) -> AVPipeline:
        # fuse_outputs is pure given the camera, so one shared pipeline
        # serves every stream of this domain instance.
        fuser = getattr(self, "_fuser_cache", None)
        if fuser is None:
            fuser = self._fuser_cache = self.build_pipeline()
        return fuser
