"""Golden regression for evolve: each model's run on a fixed noisy two-disc
image must reproduce the recorded result, so that a refactor or a speed-up
can show it did not change behaviour.

The golden in data/evolve_golden.npz was recorded before the region models
were merged into one policy (models.region_terms). Its geodesic entries were
re-recorded when the geodesic flow's edge detector began dividing the
gradient by the image's own gradient level (solver._edge_image). To
re-record it on purpose, after a change that is meant to alter results,
for every model or only for the models named:

    PYTHONPATH=src python tests/test_golden.py [model ...]

The entries of the models not named are kept byte for byte: the floats of a
run differ in the last bits across CPUs, so a fresh run would move them.
"""

import pathlib
import sys

import numpy as np
import pytest

from levelseg.grid import ScalarField
from levelseg.levelset import InitShape, signed_distance
from levelseg.models import MODEL_NAMES, EvolveParams
from levelseg.solver import evolve

GOLDEN = pathlib.Path(__file__).parent / "data" / "evolve_golden.npz"
# phi_final and the energies may differ in the last bits across CPUs and
# numpy builds (SIMD widths change the summation order of the reductions);
# everything discrete must match exactly
RTOL = ATOL = 1e-10


def golden_input():
    """A 64x64 image of two discs plus seeded Gaussian noise, min-max
    normalized to [0, 1], with a circle phi0 that overlaps both discs."""
    n = 64
    x, y = np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float))
    image = np.where(np.hypot(x - 22, y - 24) <= 9, 1.0, 0.0)
    image += np.where(np.hypot(x - 42, y - 40) <= 7, 0.8, 0.0)
    image += 0.15 * np.random.default_rng(0).standard_normal((n, n))
    image = (image - image.min()) / (image.max() - image.min())
    phi0 = signed_distance(InitShape.circle(32, 32, 20), n, n)
    params = EvolveParams(mu=0.2, max_iters=40, reinit_every=20)
    return ScalarField(image), phi0, params


def _or_nan(c):
    return np.nan if c is None else c


def run_model(model):
    u0, phi0, params = golden_input()
    res = evolve(model, u0, phi0, params)
    return {
        "phi_final": res.phi_final.data,
        "mask": res.mask,
        # energy, c_inside and c_outside per trace row, NaN for None
        "trace": np.array([(e.energy, _or_nan(e.c_inside), _or_nan(e.c_outside))
                           for e in res.energy_trace]),
        # stop_reason, iterations_run, then the event of each trace row
        "labels": np.array([res.stop_reason, str(res.iterations_run)]
                           + [e.event for e in res.energy_trace]),
    }


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return {key: data[key] for key in data.files}


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_evolve_matches_golden(model, golden):
    got = run_model(model)
    want = {key: golden[f"{model}/{key}"] for key in got}
    for key in ("mask", "labels"):
        assert np.array_equal(got[key], want[key]), key
    for key in ("phi_final", "trace"):
        np.testing.assert_allclose(got[key], want[key], rtol=RTOL, atol=ATOL,
                                   equal_nan=True, err_msg=key)


if __name__ == "__main__":
    models = sys.argv[1:] or MODEL_NAMES
    if not set(models) <= set(MODEL_NAMES):
        sys.exit(f"unknown model in {models}, expected names from {MODEL_NAMES}")
    entries = {}
    if GOLDEN.exists():
        with np.load(GOLDEN) as data:
            entries = {key: data[key] for key in data.files}
    entries.update({f"{model}/{key}": value
                    for model in models for key, value in run_model(model).items()})
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **entries)
    print(f"wrote {', '.join(models)} to {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
