"""Class-agnostic region proposals.

Proposals are connected components of the background-subtracted image,
plus *split* sub-boxes for wide components. The splits are deliberate:
real single-shot detectors emit multiple anchors per large object, and
when the scorer cannot reject the redundant ones the output shows several
highly overlapping boxes on one vehicle — the paper's ``multibox`` error
(Figure 7). Here the redundant candidates exist by construction and it is
the *learned* scorer's job to suppress them; an undertrained scorer
reproduces the multibox failure for the same reason SSD does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.box2d import Box2D


@dataclass(frozen=True)
class ProposalConfig:
    """Parameters of the proposal generator."""

    background_scale: int = 25  # size of the local-mean background filter
    threshold: float = 0.045  # residual brightness that counts as foreground
    min_area: int = 12  # discard components smaller than this (pixels)
    min_side: float = 3.0  # discard components thinner than this
    split_aspect: float = 2.2  # width/height ratio beyond which to emit splits
    split_fraction: float = 0.66  # width fraction of each split box
    max_proposals: int = 40  # cap per frame (largest components first)


def generate_proposals_flagged(
    image: np.ndarray, config: "ProposalConfig | None" = None
) -> tuple:
    """Propose candidate boxes for one image, flagging split variants.

    Returns ``(boxes, is_split)``: class-agnostic
    :class:`~repro.geometry.box2d.Box2D` plus a parallel boolean array
    marking the redundant split sub-boxes. Deterministic given the image.
    """
    from scipy import ndimage

    cfg = config if config is not None else ProposalConfig()
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D grayscale, got shape {img.shape}")

    background = ndimage.uniform_filter(img, size=cfg.background_scale)
    residual = img - background
    mask = residual > cfg.threshold
    labeled, n_components = ndimage.label(mask)
    if n_components == 0:
        return [], np.zeros(0, dtype=bool)

    slices = ndimage.find_objects(labeled)
    components = []
    for sl in slices:
        if sl is None:
            continue
        ys, xs = sl
        width = xs.stop - xs.start
        height = ys.stop - ys.start
        if width * height < cfg.min_area:
            continue
        if min(width, height) < cfg.min_side:
            continue
        components.append((width * height, xs.start, ys.start, xs.stop, ys.stop))

    components.sort(reverse=True)
    proposals: list = []
    flags: list = []
    for _, x1, y1, x2, y2 in components[: cfg.max_proposals]:
        base = Box2D(float(x1), float(y1), float(x2), float(y2))
        proposals.append(base)
        flags.append(False)
        if base.width / base.height >= cfg.split_aspect:
            split_w = cfg.split_fraction * base.width
            proposals.append(Box2D(base.x1, base.y1, base.x1 + split_w, base.y2))
            proposals.append(Box2D(base.x2 - split_w, base.y1, base.x2, base.y2))
            flags.extend((True, True))
    return proposals, np.asarray(flags, dtype=bool)


def generate_proposals(image: np.ndarray, config: "ProposalConfig | None" = None) -> list:
    """Propose candidate boxes for one image (without split flags)."""
    boxes, _ = generate_proposals_flagged(image, config)
    return boxes
