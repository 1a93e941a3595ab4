"""Micro-benchmarks of the per-step kernels of all three models at 256^2
and 512^2, each with a fresh work set per call and, where a kernel takes
one, with a reused grid.Scratch as evolve passes it:

    python -m pytest bench/test_kernels.py

Tier-1 does not collect this directory (testpaths is ["tests"]). The
inputs are the benchmark's kind of level set, the 4 x 4 seed circles of
levelset.default_seed_grid, and a seeded uniform image in [0, 1], which
the geodesic kernels get pre-smoothed, as evolve passes it to them.
"""

import numpy as np
import pytest

from levelseg.grid import (
    ScalarField,
    Scratch,
    curvature_array,
    gaussian_smooth,
    gradient,
    gradient_magnitude,
)
from levelseg.levelset import default_seed_grid, reinitialize, signed_distance
from levelseg.models import (
    EvolveParams,
    energy_geodesic,
    energy_region,
    geodesic_flow_rhs,
    region_averages,
    region_rhs,
    weighted_averages,
)
from levelseg.solver import _crossings, _interface_motion

SCRATCH = pytest.mark.parametrize("scratch", ["fresh", "reused"])


@pytest.fixture(scope="module", params=[256, 512], ids=lambda n: f"{n}px")
def fields(request):
    n = request.param
    u0 = ScalarField(np.random.default_rng(n).random((n, n)))
    phi = signed_distance(default_seed_grid(n, n), n, n)
    return u0, phi


def work_set(kind, phi):
    return Scratch(phi.data.shape) if kind == "reused" else None


@SCRATCH
def test_curvature_array(benchmark, fields, scratch):
    _, phi = fields
    work = work_set(scratch, phi)
    benchmark(curvature_array, phi.data, phi.spacing, scratch=work)


@SCRATCH
def test_reinitialize(benchmark, fields, scratch):
    _, phi = fields
    work = work_set(scratch, phi)
    benchmark(reinitialize, phi, 10, scratch=work)


def test_gradient(benchmark, fields):
    benchmark(gradient, fields[1])


# the geodesic model takes |grad| of the noisy image as well as of phi;
# np.hypot is much slower on the image's gradients than on the seed circles'
@pytest.mark.parametrize("of", ["image", "phi"])
def test_gradient_magnitude(benchmark, fields, of):
    benchmark(gradient_magnitude, fields[of == "phi"])


@SCRATCH
def test_weighted_averages(benchmark, fields, scratch):
    u0, phi = fields
    work = work_set(scratch, phi)
    benchmark(weighted_averages, u0, phi, region_averages(u0, phi), 1.0, scratch=work)


# as evolve calls it: with the H of weighted_averages, the modified model's terms
@SCRATCH
def test_energy_region(benchmark, fields, scratch):
    u0, phi = fields
    work = work_set(scratch, phi)
    params = EvolveParams(mu=0.2)
    stats, H = weighted_averages(u0, phi, region_averages(u0, phi), params.eps, scratch=work)
    benchmark(energy_region, u0, phi, params.alpha * stats.max_intensity, stats.c2, 1.0,
              params, H=H, scratch=work)


# the modified model's step as evolve takes it: a reused set has its data
# terms from the energy at the same constants, a fresh one builds them
@SCRATCH
def test_region_rhs(benchmark, fields, scratch):
    u0, phi = fields
    work = work_set(scratch, phi)
    params = EvolveParams(mu=0.2)
    stats = region_averages(u0, phi)
    benchmark(region_rhs, u0, phi, params.alpha * stats.max_intensity, stats.c2, 1.0,
              params, scratch=work)


@SCRATCH
def test_geodesic_flow_rhs(benchmark, fields, scratch):
    u0, phi = fields
    work = work_set(scratch, phi)
    benchmark(geodesic_flow_rhs, gaussian_smooth(u0), phi, EvolveParams(mu=0.2), scratch=work)


@SCRATCH
def test_energy_geodesic(benchmark, fields, scratch):
    u0, phi = fields
    work = work_set(scratch, phi)
    benchmark(energy_geodesic, gaussian_smooth(u0), phi, EvolveParams(mu=0.2), scratch=work)


def test_region_averages(benchmark, fields):
    benchmark(region_averages, *fields)


def test_crossings(benchmark, fields):
    benchmark(_crossings, fields[1].data)


# the seed circles against the same circles grown by a quarter pixel: every
# crossing moves, and none appears or vanishes
def test_interface_motion(benchmark, fields):
    phi = fields[1].data
    benchmark(_interface_motion, _crossings(phi), _crossings(phi + 0.25))
