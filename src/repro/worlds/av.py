"""The AV world: NuScenes-like scenes with time-aligned LIDAR and camera.

The paper's AV experiments use NuScenes (Caesar et al., 2019): scenes
sampled at 2 Hz with labeled LIDAR point clouds and camera images, a
PointPillars-style LIDAR detector, and SSD on the camera. This simulator
generates the equivalent: short scenes of an ego vehicle driving a
straight two-lane road with other vehicles ahead, emitting per sample

- a LIDAR point cloud: points on the visible faces of each vehicle
  (density falling with distance), ground returns, and non-vehicle
  clutter clusters (poles, bushes) that a naive clusterer confuses for
  vehicles;
- a camera frame: the same scene rendered through the pinhole camera of
  :mod:`repro.geometry.camera`, with contrast falling with distance;
- exact 3-D ground-truth boxes (and their 2-D projections).

Because the LIDAR and camera pipelines fail independently — LIDAR misses
sparse distant clusters and fires on clutter; the camera misses
low-contrast distant vehicles — their disagreement is exactly the signal
the paper's ``agree`` assertion monitors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.geometry.box2d import Box2D
from repro.geometry.box3d import Box3D
from repro.geometry.camera import PinholeCamera, project_box3d_to_2d
from repro.utils.codec import register_result_type
from repro.utils.rng import as_generator
from repro.worlds import rendering

AV_CLASSES = ("car", "truck")


@register_result_type
@dataclass(frozen=True)
class AVSample:
    """One 2 Hz sample: point cloud + camera frame + ground truth.

    Codec-registered: it is the raw unit ``repro serve av`` ingests over
    the wire.
    """

    scene_id: int
    index: int  # sample index within the scene
    timestamp: float
    point_cloud: np.ndarray  # (n, 3) ego-frame points
    camera_image: np.ndarray  # (h, w) grayscale
    ground_truth_3d: tuple  # Box3D per visible vehicle
    ground_truth_2d: tuple  # Box2D projections (same order, may be fewer)


@dataclass(frozen=True)
class AVScene:
    """A scene: consecutive samples plus its id."""

    scene_id: int
    samples: tuple

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class AVWorldConfig:
    """Parameters of the AV simulator."""

    samples_per_scene: int = 20
    sample_hz: float = 2.0

    # Road layout (ego frame: x forward, y left)
    lane_offsets: tuple = (-1.8, 1.8)
    spawn_range: tuple = (8.0, 55.0)
    vehicles_per_scene: tuple = (3, 7)  # min, max
    parked_probability: float = 0.3
    relative_speed: tuple = (-4.0, 4.0)  # m/s relative to ego

    # Vehicle sizes (length, width, height) per class
    car_size: tuple = ((4.0, 4.8), (1.7, 2.0), (1.4, 1.7))
    truck_size: tuple = ((7.0, 10.0), (2.3, 2.6), (2.6, 3.4))
    truck_probability: float = 0.25

    # LIDAR model
    points_at_10m: float = 220.0  # expected returns on a car at 10 m
    lidar_noise: float = 0.04  # meters
    ground_points: int = 250
    clutter_clusters: tuple = (2, 6)  # per scene
    clutter_points: tuple = (8, 28)
    dropout_probability: float = 0.06  # a vehicle returns no points this sample

    # Camera model (a dusk scene: near-uniform dark background so that
    # vehicle contrast, falling with distance, is the detection signal)
    camera: PinholeCamera = field(default_factory=lambda: PinholeCamera(width=160, height=96, focal=110.0, cz=1.4))
    camera_noise: float = 0.025
    sky_brightness: float = 0.13
    road_brightness: float = 0.10
    vehicle_contrast: float = 0.45  # close-range brightness above the road
    contrast_falloff: float = 0.006  # per meter of distance
    min_gt_box_area: float = 16.0  # drop sub-visible 2-D ground truth


@dataclass
class _ActorState:
    label: str
    x: float
    y: float
    speed: float
    length: float
    width: float
    height: float


class AVWorld:
    """Scene generator; :meth:`generate_scenes` yields :class:`AVScene` s."""

    def __init__(
        self,
        config: "AVWorldConfig | None" = None,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        self.config = config if config is not None else AVWorldConfig()
        self._rng = as_generator(seed)

    # ------------------------------------------------------------------
    def _spawn_scene_actors(self) -> list:
        cfg = self.config
        n = int(self._rng.integers(cfg.vehicles_per_scene[0], cfg.vehicles_per_scene[1] + 1))
        actors = []
        for _ in range(n):
            is_truck = self._rng.random() < cfg.truck_probability
            label = "truck" if is_truck else "car"
            (l_lo, l_hi), (w_lo, w_hi), (h_lo, h_hi) = (
                cfg.truck_size if is_truck else cfg.car_size
            )
            parked = self._rng.random() < cfg.parked_probability
            y = (
                float(self._rng.choice(np.asarray(cfg.lane_offsets)))
                if not parked
                else float(self._rng.choice([-5.5, 5.5]))
            )
            actors.append(
                _ActorState(
                    label=label,
                    x=float(self._rng.uniform(*cfg.spawn_range)),
                    y=y + float(self._rng.uniform(-0.3, 0.3)),
                    speed=0.0 if parked else float(self._rng.uniform(*cfg.relative_speed)),
                    length=float(self._rng.uniform(l_lo, l_hi)),
                    width=float(self._rng.uniform(w_lo, w_hi)),
                    height=float(self._rng.uniform(h_lo, h_hi)),
                )
            )
        return actors

    def _actor_box(self, actor: _ActorState) -> Box3D:
        return Box3D(
            cx=actor.x,
            cy=actor.y,
            cz=actor.height / 2.0,
            length=actor.length,
            width=actor.width,
            height=actor.height,
            yaw=0.0,
            label=actor.label,
        )

    # ------------------------------------------------------------------
    # LIDAR
    # ------------------------------------------------------------------
    def _vehicle_points(self, box: Box3D) -> np.ndarray:
        """Returns on the rear and near-side faces, density ∝ 1/distance²."""
        cfg = self.config
        distance = max(np.hypot(box.cx, box.cy), 1.0)
        expected = cfg.points_at_10m * (10.0 / distance) ** 2
        expected *= box.length * box.height / 6.0  # bigger targets, more returns
        n = int(self._rng.poisson(min(expected, 400)))
        if n < 1 or self._rng.random() < cfg.dropout_probability:
            return np.zeros((0, 3))
        n_rear = max(int(0.6 * n), 1)
        n_side = n - n_rear
        rear_x = np.full(n_rear, box.cx - box.length / 2.0)
        rear_y = self._rng.uniform(box.cy - box.width / 2, box.cy + box.width / 2, n_rear)
        rear_z = self._rng.uniform(0.2, box.height, n_rear)
        side_sign = -1.0 if box.cy > 0 else 1.0  # the face toward the ego
        side_x = self._rng.uniform(box.cx - box.length / 2, box.cx + box.length / 2, n_side)
        side_y = np.full(n_side, box.cy + side_sign * box.width / 2.0)
        side_z = self._rng.uniform(0.2, box.height, n_side)
        points = np.concatenate(
            [
                np.stack([rear_x, rear_y, rear_z], axis=1),
                np.stack([side_x, side_y, side_z], axis=1),
            ]
        )
        return points + self._rng.normal(0.0, cfg.lidar_noise, size=points.shape)

    def _scene_clutter(self) -> list:
        """Static clutter blobs: pole/bush-like point clusters."""
        cfg = self.config
        n_clusters = int(self._rng.integers(cfg.clutter_clusters[0], cfg.clutter_clusters[1] + 1))
        clutter = []
        for _ in range(n_clusters):
            cx = float(self._rng.uniform(6.0, 58.0))
            cy = float(self._rng.choice([-1.0, 1.0])) * float(self._rng.uniform(6.0, 14.0))
            n_pts = int(self._rng.integers(cfg.clutter_points[0], cfg.clutter_points[1] + 1))
            spread = self._rng.uniform(0.2, 0.9)
            height = self._rng.uniform(0.5, 2.5)
            clutter.append((cx, cy, n_pts, spread, height))
        return clutter

    def _clutter_points(self, clutter: list) -> np.ndarray:
        blocks = []
        for cx, cy, n_pts, spread, height in clutter:
            pts = np.stack(
                [
                    self._rng.normal(cx, spread, n_pts),
                    self._rng.normal(cy, spread, n_pts),
                    self._rng.uniform(0.1, height, n_pts),
                ],
                axis=1,
            )
            blocks.append(pts)
        return np.concatenate(blocks) if blocks else np.zeros((0, 3))

    def _ground_points(self) -> np.ndarray:
        cfg = self.config
        n = cfg.ground_points
        return np.stack(
            [
                self._rng.uniform(2.0, 60.0, n),
                self._rng.uniform(-12.0, 12.0, n),
                np.abs(self._rng.normal(0.0, 0.05, n)),
            ],
            axis=1,
        )

    # ------------------------------------------------------------------
    # Camera
    # ------------------------------------------------------------------
    def _render_camera(self, boxes_2d: list, distances: list) -> np.ndarray:
        cfg = self.config
        cam = cfg.camera
        image = rendering.blank_image(cam.height, cam.width, cfg.sky_brightness)
        horizon = int(cam.cv)
        image[horizon:, :] = cfg.road_brightness
        # Render far-to-near so closer vehicles occlude.
        order = np.argsort(-np.asarray(distances)) if distances else []
        for i in order:
            box = boxes_2d[int(i)]
            if box is None:
                continue
            contrast = max(
                cfg.vehicle_contrast - cfg.contrast_falloff * distances[int(i)], 0.08
            )
            rendering.fill_box_shaded(
                image, box, cfg.road_brightness + contrast, rng=self._rng
            )
        return rendering.finalize(image, self._rng, noise_sigma=cfg.camera_noise, blur=0.5)

    # ------------------------------------------------------------------
    def generate_scene(self, scene_id: int) -> AVScene:
        """Simulate one scene of ``samples_per_scene`` samples."""
        cfg = self.config
        actors = self._spawn_scene_actors()
        clutter = self._scene_clutter()
        dt = 1.0 / cfg.sample_hz
        samples = []
        for k in range(cfg.samples_per_scene):
            visible = [a for a in actors if 4.0 < a.x < 60.0 and abs(a.y) < 15.0]
            boxes_3d = [self._actor_box(a) for a in visible]
            boxes_2d = [project_box3d_to_2d(b, cfg.camera) for b in boxes_3d]
            distances = [float(np.hypot(b.cx, b.cy)) for b in boxes_3d]

            cloud_parts = [self._ground_points(), self._clutter_points(clutter)]
            for box in boxes_3d:
                cloud_parts.append(self._vehicle_points(box))
            cloud = np.concatenate([p for p in cloud_parts if p.size])

            gt2d = tuple(
                b2.with_label(b3.label)
                for b2, b3 in zip(boxes_2d, boxes_3d)
                if b2 is not None and b2.area >= cfg.min_gt_box_area
            )
            samples.append(
                AVSample(
                    scene_id=scene_id,
                    index=k,
                    timestamp=k * dt,
                    point_cloud=cloud,
                    camera_image=self._render_camera(boxes_2d, distances),
                    ground_truth_3d=tuple(boxes_3d),
                    ground_truth_2d=gt2d,
                )
            )
            for a in actors:
                a.x += a.speed * dt
        return AVScene(scene_id=scene_id, samples=tuple(samples))

    def iter_scenes(self, n_scenes: int, *, start_id: int = 0):
        """Generate scenes lazily (the streaming form of
        :meth:`generate_scenes`)."""
        if n_scenes < 0:
            raise ValueError(f"n_scenes must be >= 0, got {n_scenes}")
        for i in range(n_scenes):
            yield self.generate_scene(start_id + i)

    def generate_scenes(self, n_scenes: int, *, start_id: int = 0) -> list:
        """Generate ``n_scenes`` independent scenes."""
        return list(self.iter_scenes(n_scenes, start_id=start_id))
