"""Shared low-level rendering helpers for the image-producing worlds.

Images are single-channel float arrays in ``[0, 1]`` with shape
``(height, width)``, origin at the top-left — cheap enough to render by
the thousand yet structured enough that a real trainable detector
(:mod:`repro.detection`) succeeds and fails on them for the same reasons a
deep detector does on video: contrast, size, occlusion, and clutter.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.box2d import Box2D


def blank_image(height: int, width: int, base: float = 0.0) -> np.ndarray:
    """A constant image of the given brightness."""
    return np.full((height, width), float(base), dtype=np.float64)


def smooth_noise(
    rng: np.random.Generator, height: int, width: int, *, sigma: float, scale: float
) -> np.ndarray:
    """Zero-mean spatially smooth noise (static texture, cloud patterns).

    White noise of standard deviation ``sigma`` blurred with a Gaussian of
    width ``scale`` pixels, renormalized to keep its amplitude.
    """
    from scipy import ndimage

    noise = rng.normal(0.0, sigma, size=(height, width))
    smoothed = ndimage.gaussian_filter(noise, sigma=scale)
    std = smoothed.std()
    if std > 1e-12:
        smoothed *= sigma / std
    return smoothed


def fill_box(image: np.ndarray, box: Box2D, value: float) -> None:
    """Fill a box region with a constant intensity, clipped to the image."""
    h, w = image.shape
    x1 = max(int(round(box.x1)), 0)
    y1 = max(int(round(box.y1)), 0)
    x2 = min(int(round(box.x2)), w)
    y2 = min(int(round(box.y2)), h)
    if x2 > x1 and y2 > y1:
        image[y1:y2, x1:x2] = value


def fill_box_shaded(
    image: np.ndarray,
    box: Box2D,
    brightness: float,
    *,
    rng: "np.random.Generator | None" = None,
    texture_sigma: float = 0.02,
) -> None:
    """Fill a box with a vertically shaded, lightly textured body.

    The top of the body is slightly darker than the bottom (roof vs
    headlight line), which gives proposals a distinctive vertical-gradient
    feature separating vehicles from flat glare blobs.
    """
    h, w = image.shape
    x1 = max(int(round(box.x1)), 0)
    y1 = max(int(round(box.y1)), 0)
    x2 = min(int(round(box.x2)), w)
    y2 = min(int(round(box.y2)), h)
    if x2 <= x1 or y2 <= y1:
        return
    rows = y2 - y1
    shade = np.linspace(0.85, 1.1, rows)[:, None]
    body = brightness * shade
    if rng is not None and texture_sigma > 0:
        body = body + rng.normal(0.0, texture_sigma, size=(rows, x2 - x1))
    image[y1:y2, x1:x2] = np.clip(body, 0.0, 1.0)


def add_gaussian_blob(
    image: np.ndarray, cx: float, cy: float, radius: float, amplitude: float
) -> None:
    """Add a radially symmetric Gaussian bump (headlight glare, flare)."""
    h, w = image.shape
    span = int(np.ceil(3 * radius))
    x1 = max(int(cx) - span, 0)
    x2 = min(int(cx) + span + 1, w)
    y1 = max(int(cy) - span, 0)
    y2 = min(int(cy) + span + 1, h)
    if x2 <= x1 or y2 <= y1:
        return
    ys, xs = np.mgrid[y1:y2, x1:x2]
    bump = amplitude * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * radius**2))
    image[y1:y2, x1:x2] += bump


def finalize(
    image: np.ndarray, rng: np.random.Generator, *, noise_sigma: float, blur: float = 0.6
) -> np.ndarray:
    """Sensor model: slight optical blur, additive noise, clip to [0, 1]."""
    from scipy import ndimage

    out = ndimage.gaussian_filter(image, sigma=blur) if blur > 0 else image
    if noise_sigma > 0:
        out = out + rng.normal(0.0, noise_sigma, size=out.shape)
    return np.clip(out, 0.0, 1.0)
