"""Micro-benchmarks of the per-step kernels of all three models at 256^2,
512^2 and 1024^2, in float64 and in float32, evolve's working precision,
each with a fresh work set per call and, where a kernel takes one, with a
reused grid.Scratch of the fields' dtype, as evolve passes it. From 512^2 on,
the kernels run on row slabs, one per usable CPU (grid.split_rows):

    python -m pytest bench/test_kernels.py

Tier-1 does not collect this directory (testpaths is ["tests"]). The
inputs are a level set of 4 x 4 circles of radius n/10, pinned so that
the per-kernel timings keep measuring the same field, and a seeded uniform
image in [0, 1], which the geodesic kernels get pre-smoothed, as evolve
passes it to them. extract_contour and the stop rule's interface motion
run on the circles at 256^2 and 512^2, and on levelset.default_seed_grid,
the dense periodic start of the region models, at 256^2 and at 512^2, the
size of the geodesic_512 workload.
"""

import numpy as np
import pytest

from levelseg.grid import (
    Scratch,
    curvature,
    gaussian_smooth,
    gradient,
    gradient_magnitude,
)
from levelseg.levelset import (
    InitShape,
    default_seed_grid,
    edge_crossings,
    extract_contour,
    reinitialize,
    signed_distance,
)
from levelseg.models import (
    EvolveParams,
    energy_geodesic,
    energy_region,
    geodesic_rhs,
    region_averages,
    region_rhs,
    region_terms,
    weighted_averages,
)
from levelseg.solver import _interface_motion

SCRATCH = pytest.mark.parametrize("scratch", ["fresh", "reused"])


@pytest.fixture(scope="module",
                params=[(n, dtype) for n in (256, 512, 1024) for dtype in ("float64", "float32")],
                ids=lambda p: f"{p[0]}px-{p[1]}")
def fields(request):
    n, dtype = request.param
    u0 = np.random.default_rng(n).random((n, n)).astype(dtype)
    phi = signed_distance(InitShape.circle_grid(4, 4, n / 10, n, n), n, n).data.astype(dtype)
    return u0, phi


def work_set(kind, phi):
    return Scratch(phi.shape, phi.dtype) if kind == "reused" else None


@SCRATCH
def test_curvature(benchmark, fields, scratch):
    _, phi = fields
    work = work_set(scratch, phi)
    benchmark(curvature, phi, scratch=work)


@SCRATCH
def test_reinitialize(benchmark, fields, scratch):
    _, phi = fields
    work = work_set(scratch, phi)
    benchmark(reinitialize, phi, 10, scratch=work)


def test_gradient(benchmark, fields):
    benchmark(gradient, fields[1])


# the geodesic model takes |grad| of the noisy image as well as of phi;
# np.hypot runs on neither, only where a result is not finite
@pytest.mark.parametrize("of", ["image", "phi"])
def test_gradient_magnitude(benchmark, fields, of):
    f = fields[of == "phi"]
    benchmark(gradient_magnitude, f)


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


# a region model's step as evolve takes it: a reused set has its data
# terms from the energy at the same constants, a fresh one builds them;
# chan_vese at lam 1.5 also weights the inside term in the sum
@SCRATCH
@pytest.mark.parametrize("model, lam", [("modified", 1.0), ("chan_vese", 1.5)])
def test_region_rhs(benchmark, fields, scratch, model, lam):
    u0, phi = fields
    work = work_set(scratch, phi)
    params = EvolveParams(mu=0.2, lam=lam)
    terms = region_terms(model, region_averages(u0, phi), params)
    benchmark(region_rhs, u0, phi, *terms, params, scratch=work)


# geodesic_rhs, under the row id of its former name, so that the
# benchmark history of the row lines up
@SCRATCH
def test_geodesic_flow_rhs(benchmark, fields, scratch):
    u0, phi = fields
    work = work_set(scratch, phi)
    benchmark(geodesic_rhs, gaussian_smooth(u0), phi, EvolveParams(mu=0.2), scratch=work)


@SCRATCH
def test_energy_geodesic(benchmark, fields, scratch):
    u0, phi = fields
    work = work_set(scratch, phi)
    benchmark(energy_geodesic, gaussian_smooth(u0), phi, EvolveParams(mu=0.2), scratch=work)


def test_region_averages(benchmark, fields):
    benchmark(region_averages, *fields)


def test_crossings(benchmark, fields):
    benchmark(edge_crossings, fields[1])


# the seed circles and the dense periodic start at 256^2 and 512^2
STARTS = pytest.mark.parametrize("n, start", [(256, "circles"), (512, "circles"),
                                              (256, "periodic"), (512, "periodic")],
                                 ids=lambda v: f"{v}px" if isinstance(v, int) else v)


def start_shape(n, start):
    return (InitShape.circle_grid(4, 4, n / 10, n, n) if start == "circles"
            else default_seed_grid(n, n))


# the stop rule's comparison of one step's crossings with the next: a field
# against itself raised by a quarter pixel, so that some crossings stay on
# their edge and the others move to a neighbouring one; the dense start's
# 256^2 field has ~26 k crossings
@STARTS
def test_interface_motion(benchmark, n, start):
    phi = signed_distance(start_shape(n, start), n, n).data
    benchmark(_interface_motion, edge_crossings(phi), edge_crossings(phi + 0.25))


# the contour evolve traces at the end of every run: of the seed circles,
# and of the dense periodic start, which a run stopped early returns
@STARTS
def test_extract_contour(benchmark, n, start):
    benchmark(extract_contour, signed_distance(start_shape(n, start), n, n).data)
