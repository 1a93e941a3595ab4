"""The paper's claim on a clutter phantom: bright cells (meteorological
echoes) among non-meteorological clutter, a weak broad echo and impulse
returns. The claim is that the modified model, whose inside target is
frozen at alpha * max(u0), separates the cells from the clutter. Each test
prints every image's IoU against the cell mask, so that a run with -rP
shows how each model fares; the asserts hold only what the models reach.

The phantom uses numpy and scipy only, so the input does not depend on the
code under test.
"""

import functools

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from levelseg.grid import ScalarField
from levelseg.levelset import default_seed_grid, reinitialize, signed_distance
from levelseg.models import EvolveParams
from levelseg.solver import evolve

SIZE = 128
SEED = 5
IMAGES = 4
BACKGROUND = 0.1
CELL_RANGE = (0.6, 1.0)
ECHO_PEAK = 0.35
IMPULSE_FRACTION = 0.01
NOISE_SIGMA = 0.08
TILES = 4


def clutter_phantom(n, rng):
    """One n x n image in [0, 1] and its cell mask. Cells are discs of
    radius n/40 to n/12, one to a tile of a 4 x 4 tiling, at U(0.6, 1) on a
    0.1 background. Outside them, a broad echo (normal noise smoothed at
    sigma n/32, min-max scaled to [0, 0.35]) is added, and 1 % of the
    pixels are set to U(0.6, 1). Then N(0, 0.08) noise and min-max normalization.
    """
    tile = n / TILES
    y, x = np.mgrid[0:n, 0:n].astype(np.float64)
    clean = np.full((n, n), BACKGROUND)
    truth = np.zeros((n, n), dtype=bool)
    for t in rng.choice(TILES * TILES, size=int(rng.integers(6, 11)), replace=False):
        r = rng.uniform(n / 40.0, n / 12.0)
        jitter = tile / 2.0 - r - 2.0
        cx, cy = (np.array([t % TILES, t // TILES]) + 0.5) * tile + rng.uniform(-jitter, jitter, 2)
        disc = (x - cx) ** 2 + (y - cy) ** 2 <= r * r
        clean[disc] = rng.uniform(*CELL_RANGE)
        truth |= disc
    echo = gaussian_filter(rng.normal(size=(n, n)), sigma=n / 32.0)
    echo = ECHO_PEAK * (echo - echo.min()) / (echo.max() - echo.min())
    outside = np.flatnonzero(~truth)
    clean.flat[outside] += echo.flat[outside]
    hits = rng.choice(outside, size=round(IMPULSE_FRACTION * outside.size), replace=False)
    clean.flat[hits] = rng.uniform(*CELL_RANGE, size=hits.size)
    noisy = clean + rng.normal(0.0, NOISE_SIGMA, size=clean.shape)
    return (noisy - noisy.min()) / (noisy.max() - noisy.min()), truth


@functools.cache
def phantoms():
    rng = np.random.default_rng(SEED)
    return tuple(clutter_phantom(SIZE, rng) for _ in range(IMAGES))


def threshold_start(model, u, params):
    """phi0 from the threshold t at which a region model's two data terms
    are equal: the two-means fixed point t = (mean(u >= t) + mean(u < t))/2
    for Chan-Vese, t = (alpha max u + mean(u < t))/2 for the modified model.
    phi0 = clip(20 (u - t), -2, 2), relaxed by 10 reinitialization sweeps.
    """
    t = float(u.mean())
    for _ in range(100):
        inside = params.alpha * u.max() if model == "modified" else u[u >= t].mean()
        t, last = float(inside + u[u < t].mean()) / 2.0, t
        if t == last:
            break
    return reinitialize(ScalarField(np.clip(20.0 * (u - t), -2.0, 2.0)), 10)


def iou(mask, truth):
    return float((mask & truth).sum() / (mask | truth).sum())


@functools.cache
def runs(model, start):
    """(IoU, iterations, stop reason) of each image at the default params."""
    params = EvolveParams()
    out = []
    for u, truth in phantoms():
        phi0 = (threshold_start(model, u, params) if start == "threshold"
                else signed_distance(default_seed_grid(SIZE, SIZE), SIZE, SIZE))
        res = evolve(model, ScalarField(u), phi0, params)
        out.append((iou(res.mask, truth), res.iterations_run, res.stop_reason))
    return tuple(out)


def test_phantom_is_seeded_normalized_and_cluttered():
    a = clutter_phantom(SIZE, np.random.default_rng(SEED))
    b = clutter_phantom(SIZE, np.random.default_rng(SEED))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    u, truth = a
    assert u.min() == 0.0 and u.max() == 1.0
    # the impulse clutter is as bright as the cells, so no pixel threshold
    # separates the two
    assert np.count_nonzero(u[~truth] > np.median(u[truth])) >= IMPULSE_FRACTION / 4 * (~truth).sum()


@pytest.mark.parametrize("model, start, floor", [
    ("chan_vese", "threshold", 0.95),
    # the modified target alpha * M is 0.7 once clutter sets M = 1, above
    # the dimmest cells (mean 0.52-0.57): it erodes them, and image 1 reads
    # 0.949; the lower floor guards the rest
    pytest.param("modified", "threshold", 0.95,
                 marks=pytest.mark.xfail(strict=True, reason="dim cells erode under alpha*M")),
    ("modified", "threshold", 0.90),
    ("modified", "periodic", 0.85),
    # c1 ~ c2 on the 5 px cells of the periodic start, so the data force is
    # tiny against mu * kappa and Chan-Vese does not segment from it
    pytest.param("chan_vese", "periodic", 0.95,
                 marks=pytest.mark.xfail(strict=True, reason="F8")),
])
def test_segments_the_cells_among_clutter(model, start, floor):
    for image, (score, iterations, stop) in enumerate(runs(model, start)):
        print(f"{model} from the {start} start, image {image}: IoU {score:.4f} "
              f"after {iterations} iterations ({stop})")
    assert min(score for score, _, _ in runs(model, start)) >= floor
