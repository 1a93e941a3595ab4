"""Working precision: each kernel follows the dtype it is given (float32 in,
float32 out; float64 in, float64 out, with the bits the reference tests of
test_grid, test_levelset and test_models pin), a kernel given a Scratch
makes its arrays in the set's dtype, sums and dot products accumulate in
float64, and evolve steps in float32 but returns phi0 as given when it
takes no step."""

import math

import numpy as np
import pytest

from levelseg.grid import (
    ScalarField,
    Scratch,
    curvature,
    delta_eps,
    edge_detector,
    gradient,
    gradient_magnitude,
    heaviside_eps,
    image_stats,
)
from levelseg.levelset import InitShape, reinitialize, signed_distance
from levelseg.models import (
    EvolveParams,
    _dot,
    geodesic_rhs,
    region_averages,
    region_rhs,
)
from levelseg.solver import evolve

from test_grid import delta_reference, edge_detector_reference, heaviside_reference

PARAMS = EvolveParams(mu=0.2, nu=0.1, lam=1.5, eps=0.7)


def inputs(dtype=np.float64):
    """(u in [0, 1], phi): a smooth image and the signed distance of two
    circles on a 40 x 52 grid, in ``dtype``."""
    x, y = np.meshgrid(np.arange(52.0), np.arange(40.0))
    u = 0.5 + 0.4 * np.sin(x / 7.0) * np.cos(y / 5.0)
    circles = InitShape("circles", ((15.3, 18.6), (36.2, 21.4)), 9.0)
    phi = signed_distance(circles, 52, 40).data
    return u.astype(dtype), phi.astype(dtype)


KERNELS = {
    "curvature": lambda u, phi: curvature(phi, 0.5),
    "gradient": lambda u, phi: np.stack(gradient(phi, 0.5)),
    "gradient_magnitude": lambda u, phi: gradient_magnitude(phi, 0.5),
    "heaviside_eps": lambda u, phi: heaviside_eps(phi, 0.3),
    "delta_eps": lambda u, phi: delta_eps(phi, 0.3),
    "edge_detector": lambda u, phi: edge_detector(gradient_magnitude(u, 0.5)),
    "reinitialize": lambda u, phi: reinitialize(phi, 5, 0.5),
    "region_rhs": lambda u, phi: region_rhs(u, phi, 0.7, 0.2, PARAMS.lam, PARAMS, 0.5),
    "geodesic_rhs": lambda u, phi: geodesic_rhs(u, phi, PARAMS, 0.5),
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_kernel_keeps_the_dtype_it_is_given(kernel):
    want = KERNELS[kernel](*inputs())
    got = KERNELS[kernel](*inputs(np.float32))
    assert want.dtype == np.float64 and got.dtype == np.float32
    # float32 rounding, on values of order 1 (curvature reaches 1 / h = 2)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-4)


@pytest.mark.parametrize("kernel, reference", [(heaviside_eps, heaviside_reference),
                                               (delta_eps, delta_reference)])
@pytest.mark.parametrize("eps", [1.0, 0.3])
def test_float32_passes_take_no_float64_constant(kernel, reference, eps):
    # the formula on float32 with Python-float constants runs every pass in
    # float32; a float64 constant would run them in float64 and round once
    z = inputs(np.float32)[1] * np.float32(0.37)
    assert kernel(z, eps).tobytes() == reference(z, eps).tobytes()


def test_edge_detector_runs_in_float32():
    z = np.abs(inputs(np.float32)[1])
    assert edge_detector(z).tobytes() == edge_detector_reference(z).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_scratch_sets_the_dtype_of_what_a_kernel_makes(dtype):
    u, phi = inputs(np.float64)
    scratch = Scratch(phi.shape, dtype)
    assert all(a.dtype == dtype for a in (*scratch.arrays, scratch.padded))
    assert curvature(phi, 0.5, scratch=scratch).dtype == dtype
    assert scratch.data_term(0, u, 0.3).dtype == dtype
    assert reinitialize(phi, 3, 0.5, scratch=scratch).dtype == dtype
    rhs = region_rhs(u, phi, 0.7, 0.2, 1.0, PARAMS, 0.5, scratch=scratch)
    assert rhs.dtype == dtype


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64, np.float64])
def test_a_field_keeps_float32_and_makes_anything_else_float64(dtype):
    data = ScalarField(np.arange(12, dtype=dtype).reshape(3, 4)).data
    assert data.dtype == (np.float32 if dtype == np.float32 else np.float64)


def exact_sum(values):
    return math.fsum(values.astype(np.float64).ravel().tolist())


def sums_input(n=1 << 16):
    # values in (1, 2): a float32 running sum keeps about 7 digits of ~1e5
    return np.random.default_rng(3).uniform(1.0, 2.0, size=(2, n)).astype(np.float32)


def test_dot_accumulates_in_float64():
    a, b = sums_input()
    exact = math.fsum((a.astype(np.float64) * b.astype(np.float64)).tolist())
    assert abs(float(np.einsum("i,i->", a, b)) - exact) > 1e-12 * exact  # float32 misses
    assert _dot(a, b) == pytest.approx(exact, rel=1e-12, abs=0)


def test_image_mean_accumulates_in_float64():
    u = sums_input()[0] / np.float32(2.0)
    assert image_stats(u)[0] == pytest.approx(exact_sum(u) / u.size, rel=1e-12, abs=0)


def test_weighted_averages_accumulate_in_float64():
    rng = np.random.default_rng(4)
    u = rng.uniform(0.5, 1.0, size=(256, 256)).astype(np.float32)
    phi = rng.uniform(-3.0, 3.0, size=(256, 256)).astype(np.float32)
    scratch = Scratch(phi.shape, phi.dtype)
    stats = region_averages(u, phi, 1.0, scratch=scratch)
    H = scratch.arrays[0]
    assert H.dtype == np.float32
    not_H = np.float32(1.0) - H
    c1 = math.fsum((u.astype(np.float64) * H).ravel().tolist()) / exact_sum(H)
    c2 = math.fsum((u.astype(np.float64) * not_H).ravel().tolist()) / exact_sum(not_H)
    assert stats.c1 == pytest.approx(c1, rel=1e-12, abs=0)
    assert stats.c2 == pytest.approx(c2, rel=1e-12, abs=0)
    # the sums in float32 miss by more
    c1_float32 = float(np.einsum("i,i->", u.ravel(), H.ravel()) / H.sum())
    assert abs(c1_float32 - c1) > 1e-12 * c1


class TestEvolvePrecision:
    def run(self, model, phi0, **params):
        u, _ = inputs()
        return evolve(model, ScalarField(u), phi0, EvolveParams(mu=0.2, **params))

    @pytest.mark.parametrize("model", ["chan_vese", "modified", "geodesic"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_step_makes_phi_float32(self, model, dtype):
        phi0 = ScalarField(inputs(dtype)[1])
        res = self.run(model, phi0, max_iters=3)
        assert res.iterations_run >= 1
        assert res.phi_final.data.dtype == np.float32
        assert res.phi_final.data.shape == phi0.data.shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_step_returns_phi0_as_given(self, dtype):
        phi0 = ScalarField(inputs(dtype)[1])
        res = self.run("modified", phi0, max_iters=0)
        assert res.phi_final.data.dtype == dtype
        assert res.phi_final.data.tobytes() == phi0.data.tobytes()
        assert res.phi_final.data is not phi0.data

    def test_a_stall_at_the_first_step_returns_phi0_as_given(self):
        phi = inputs()[1]
        phi0 = ScalarField(np.where(phi >= 0.0, 1.7e308, -1.7e308))
        res = self.run("modified", phi0, max_iters=5)
        assert res.stop_reason == "stalled" and res.iterations_run == 0
        assert res.phi_final.data.dtype == np.float64
        assert res.phi_final.data.tobytes() == phi0.data.tobytes()
