"""BEV occupancy-grid clustering of LIDAR point clouds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BEVGrid:
    """Bird's-eye-view grid specification (ego frame, meters)."""

    x_range: tuple = (0.0, 60.0)
    y_range: tuple = (-15.0, 15.0)
    cell_size: float = 0.5
    ground_height: float = 0.3  # points at or below are ground returns

    @property
    def shape(self) -> tuple:
        nx = int(np.ceil((self.x_range[1] - self.x_range[0]) / self.cell_size))
        ny = int(np.ceil((self.y_range[1] - self.y_range[0]) / self.cell_size))
        return nx, ny


@dataclass(frozen=True)
class Cluster:
    """A connected group of above-ground points."""

    points: np.ndarray  # (n, 3)

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)

    @property
    def extent(self) -> np.ndarray:
        """(dx, dy, dz) bounding extents."""
        return self.points.max(axis=0) - self.points.min(axis=0)

    @property
    def bounds(self) -> tuple:
        """((x1, y1), (x2, y2)) BEV bounding rectangle."""
        mins = self.points.min(axis=0)
        maxs = self.points.max(axis=0)
        return (float(mins[0]), float(mins[1])), (float(maxs[0]), float(maxs[1]))


def cluster_points(points: np.ndarray, grid: "BEVGrid | None" = None) -> list:
    """Cluster above-ground points via BEV connected components.

    Points outside the grid or at ground height are dropped; remaining
    points are binned into cells; 8-connected occupied cells form
    clusters. Deterministic.
    """
    from scipy import ndimage

    grid = grid if grid is not None else BEVGrid()
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (n, 3), got shape {pts.shape}")
    if pts.shape[0] == 0:
        return []

    keep = (
        (pts[:, 2] > grid.ground_height)
        & (pts[:, 0] >= grid.x_range[0])
        & (pts[:, 0] < grid.x_range[1])
        & (pts[:, 1] >= grid.y_range[0])
        & (pts[:, 1] < grid.y_range[1])
    )
    pts = pts[keep]
    if pts.shape[0] == 0:
        return []

    nx, ny = grid.shape
    ix = ((pts[:, 0] - grid.x_range[0]) / grid.cell_size).astype(int)
    iy = ((pts[:, 1] - grid.y_range[0]) / grid.cell_size).astype(int)
    occupancy = np.zeros((nx, ny), dtype=bool)
    occupancy[ix, iy] = True

    labeled, n_components = ndimage.label(occupancy, structure=np.ones((3, 3), dtype=int))
    if n_components == 0:
        return []
    point_labels = labeled[ix, iy]
    clusters = []
    for component in range(1, n_components + 1):
        member = point_labels == component
        if np.any(member):
            clusters.append(Cluster(points=pts[member]))
    return clusters
