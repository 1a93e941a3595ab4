"""Seeded radar-like phantoms with a truth mask, and the accuracy measure.

A phantom is a dim background with bright disc-shaped cells of varied
radius and intensity, plus Gaussian noise, min-max normalized to [0, 1]
as the segmentation models expect. The truth mask is the union of the
cells. Only numpy is used, so inputs do not depend on the code under test.

Cells sit at most one to a tile of a 4 x 4 tiling, jittered so that each
overlaps the circle that ``levelset.default_seed_grid`` puts in that tile.
A region model moves its contour through the arctan delta_eps(phi), which
falls off as 1/phi^2, so a cell that no seed circle touches is not reached
in any practical number of iterations; the benchmark measures the speed of
accurate segmentation, not the reach of the seed layout.
"""

from __future__ import annotations

import numpy as np

BACKGROUND = 0.1
NOISE_SIGMA = 0.08
INTENSITY_RANGE = (0.6, 1.0)
TILES = 4  # matches the 4 x 4 circle grid of levelseg's default seed


def make_phantom(size: int, rng: np.random.Generator):
    """One size x size phantom: returns (image in [0, 1], truth mask)."""
    tile = size / TILES
    n_cells = int(rng.integers(6, 11))
    y, x = np.mgrid[0:size, 0:size].astype(np.float64)
    clean = np.full((size, size), BACKGROUND)
    truth = np.zeros((size, size), dtype=bool)
    for t in rng.choice(TILES * TILES, size=n_cells, replace=False):
        r = rng.uniform(size / 40.0, size / 12.0)
        # the jitter keeps the cell inside its tile, so cells never touch
        jitter = tile / 2.0 - r - 2.0
        cx, cy = (np.array([t % TILES, t // TILES]) + 0.5) * tile + rng.uniform(-jitter, jitter, 2)
        disc = (x - cx) ** 2 + (y - cy) ** 2 <= r * r
        clean[disc] = rng.uniform(*INTENSITY_RANGE)
        truth |= disc
    noisy = clean + rng.normal(0.0, NOISE_SIGMA, size=clean.shape)
    lo, hi = noisy.min(), noisy.max()
    return (noisy - lo) / (hi - lo), truth


def iou(mask: np.ndarray, truth: np.ndarray) -> float:
    """Intersection over union of two boolean masks (1.0 when both are empty)."""
    union = np.logical_or(mask, truth).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(mask, truth).sum() / union)


def phase_symmetric_iou(mask: np.ndarray, truth: np.ndarray) -> float:
    """IoU that accepts either phase as the object: Chan-Vese may label the
    dark phase as inside, which is the same partition of the image."""
    return max(iou(mask, truth), iou(~mask, truth))
