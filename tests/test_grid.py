"""Stencil-level checks: analytic derivatives, curvature of circles, and the
regularized Heaviside/delta pair against closed forms and quadrature."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from levelseg import grid
from levelseg.grid import (
    CURVATURE_ETA,
    ScalarField,
    Scratch,
    curvature,
    delta_eps,
    divide_by,
    edge_detector,
    gaussian_smooth,
    gradient,
    gradient_magnitude,
    heaviside_eps,
    magnitude,
)


def field_from(fn, width, height, spacing=1.0):
    x, y = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    return ScalarField(fn(x, y), spacing)


def circle_sdf(width, height, cx, cy, r):
    """Outward-positive signed distance (negative inside the circle)."""
    x, y = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    return ScalarField(np.hypot(x - cx, y - cy) - r)


class TestScalarField:
    def test_rejects_small_grids(self):
        with pytest.raises(ValueError):
            ScalarField(np.zeros((2, 5)))
        with pytest.raises(ValueError):
            ScalarField(np.zeros((5, 2)))

    def test_rejects_non_finite(self):
        bad = np.zeros((4, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            ScalarField(bad)
        bad[1, 2] = np.inf
        with pytest.raises(ValueError):
            ScalarField(bad)

    def test_rejects_complex_data(self):
        # casting to float64 would drop the imaginary part, with a warning
        with pytest.raises(ValueError, match="real"):
            ScalarField(np.full((4, 4), 1.0 + 2.0j))

    def test_rejects_bad_spacing(self):
        for spacing in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ScalarField(np.zeros((4, 4)), spacing=spacing)

    def test_shape_accessors(self):
        f = ScalarField(np.zeros((4, 7)))
        assert f.data.shape == (4, 7)


class TestGradient:
    def test_constant_field_zero(self):
        f = field_from(lambda x, y: np.full_like(x, 5.0), 8, 8)
        g = gradient(f.data, f.spacing)
        assert np.all(g.dx == 0.0) and np.all(g.dy == 0.0)

    def test_linear_ramp(self):
        f = field_from(lambda x, y: x, 5, 5)
        g = gradient(f.data, f.spacing)
        assert np.allclose(g.dx[1:-1, 1:-1], 1.0)
        assert np.allclose(g.dy, 0.0)

    def test_quadratic_central_difference_exact(self):
        # central difference of x^2 is exact: ((x+1)^2 - (x-1)^2)/2 = 2x
        f = field_from(lambda x, y: x * x, 9, 9)
        g = gradient(f.data, f.spacing)
        assert abs(g.dx[4, 4] - 8.0) < 1e-9

    def test_spacing_scales_components(self):
        f = field_from(lambda x, y: x, 5, 5, spacing=0.5)
        g = gradient(f.data, f.spacing)
        assert np.allclose(g.dx[1:-1, 1:-1], 2.0)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        f = rng.normal(size=(12, 10))
        g = rng.normal(size=(12, 10))
        a, b = 2.5, -1.25
        combo = gradient(a * f + b * g)
        gf, gg = gradient(f), gradient(g)
        assert np.allclose(combo.dx, a * gf.dx + b * gg.dx, atol=1e-12)
        assert np.allclose(combo.dy, a * gf.dy + b * gg.dy, atol=1e-12)


    @pytest.mark.parametrize("height, width, spacing", [
        (3, 3, 1.0), (7, 11, 0.37), (64, 200, 2.5), (11, 7, 1.0),
    ])
    def test_equals_numpy_gradient_bit_for_bit(self, height, width, spacing):
        f = np.random.default_rng(height * width).normal(size=(height, width)) * 7.0
        dy, dx = np.gradient(f, spacing)
        g = gradient(f, spacing)
        assert g.dx.tobytes() == dx.tobytes()
        assert g.dy.tobytes() == dy.tobytes()


class TestGradientMagnitude:
    def test_constant_is_zero(self):
        f = field_from(lambda x, y: np.full_like(x, 3.0), 6, 6)
        m = gradient_magnitude(f.data, f.spacing)
        assert np.all(m == 0.0)

    def test_unit_ramp(self):
        f = field_from(lambda x, y: x, 6, 6)
        m = gradient_magnitude(f.data, f.spacing)
        assert np.allclose(m[1:-1, 1:-1], 1.0)

    def test_three_four_five(self):
        f = field_from(lambda x, y: 3.0 * x + 4.0 * y, 7, 7)
        m = gradient_magnitude(f.data, f.spacing)
        assert np.allclose(m[1:-1, 1:-1], 5.0)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e100, 1e-100])
    def test_within_one_ulp_of_hypot(self, scale):
        rng = np.random.default_rng(5)
        dx = rng.normal(size=(200, 300)) * scale
        dy = rng.normal(size=(200, 300)) * scale * rng.uniform(1e-3, 1e3, size=(200, 1))
        expected = np.hypot(dx, dy)
        m = magnitude(dx, dy)
        assert np.all(np.abs(m - expected) <= np.spacing(expected))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", [1e160, 1e300])
    def test_finite_where_the_squares_overflow(self, big):
        dx = np.array([[big, -big, 1.0], [0.0, 3.0, big]])
        dy = np.array([[big, 2.0, -big], [0.0, 4.0, 0.0]])
        m = magnitude(dx, dy)
        assert np.all(np.isfinite(m))
        assert np.array_equal(m, np.hypot(dx, dy))

    @pytest.mark.filterwarnings("error")
    def test_hypot_where_the_sum_overflows_with_dy_squared_in_place(self):
        # squares finite, sums beyond the largest float: dy then holds dy^2,
        # and np.hypot takes |dy| back from it exactly
        dx = np.array([[1e154, -1.3e154, 1.0], [np.inf, 3.0, 1e-160]])
        dy = np.array([[1.2e154, 1e154, 1e-3], [5.0, 4.0, 1.3e154]])
        expected = np.hypot(dx, dy)
        m = magnitude(dx, dy, dy_squared=dy)
        assert m.tobytes() == expected.tobytes()


class TestEdgeDetector:
    @pytest.mark.parametrize("z,expected", [(0.0, 1.0), (1.0, 0.5), (3.0, 0.1)])
    def test_values(self, z, expected):
        assert edge_detector(z) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1e3), st.floats(min_value=1e-3, max_value=1e3))
    def test_monotone_decreasing(self, z, dz):
        assert edge_detector(z) > edge_detector(z + dz)

    def test_vectorized(self):
        out = edge_detector(np.array([0.0, 1.0, 3.0]))
        assert np.allclose(out, [1.0, 0.5, 0.1])


class TestCurvature:
    def test_affine_field_zero_interior(self):
        f = field_from(lambda x, y: x + 2.0 * y, 9, 9)
        k = curvature(f.data, f.spacing)
        assert np.all(np.abs(k[1:-1, 1:-1]) < 1e-9)

    @pytest.mark.parametrize("r", [8.0, 10.0, 12.0, 20.0])
    def test_circle_sdf_matches_inverse_radius(self, r):
        import scipy.ndimage as ndi

        phi = circle_sdf(64, 64, 31.5, 31.5, r)
        k = curvature(phi.data, phi.spacing)
        # evaluate on the zero level: bilinear interpolation at analytic
        # circle points, compared against the analytic curvature 1/r
        theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        rows = 31.5 + r * np.sin(theta)
        cols = 31.5 + r * np.cos(theta)
        on_zero = ndi.map_coordinates(k, np.vstack([rows, cols]), order=1)
        rel = np.abs(on_zero - 1.0 / r) * r
        assert rel.max() < 0.05

    def test_negation_flips_sign(self):
        rng = np.random.default_rng(3)
        base = ndsmooth(rng.normal(size=(16, 16)))
        k_pos = curvature(base)
        k_neg = curvature(-base)
        assert np.allclose(k_neg, -k_pos, atol=1e-12)

    def test_clamped_to_inverse_spacing(self):
        rng = np.random.default_rng(4)
        k = curvature(rng.normal(size=(20, 20)), spacing=0.5)
        assert np.abs(k).max() <= 2.0 + 1e-12

    @pytest.mark.parametrize("height, width, spacing", [
        (3, 3, 1.0), (7, 11, 0.37), (64, 200, 2.5),
    ])
    def test_matches_the_pow_formula(self, height, width, spacing):
        phi = np.random.default_rng(width).normal(size=(height, width)) * 5.0
        p = np.pad(phi, 1, mode="edge")
        h = spacing
        c = p[1:-1, 1:-1]
        px = (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * h)
        py = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * h)
        pxx = (p[1:-1, 2:] - 2.0 * c + p[1:-1, :-2]) / (h * h)
        pyy = (p[2:, 1:-1] - 2.0 * c + p[:-2, 1:-1]) / (h * h)
        pxy = (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2]) / (4.0 * h * h)
        num = pxx * py * py - 2.0 * px * py * pxy + pyy * px * px
        den = np.power(px * px + py * py + CURVATURE_ETA, 1.5)
        expected = np.clip(num / den, -1.0 / h, 1.0 / h)
        k = curvature(phi, spacing)
        assert np.allclose(k, expected, rtol=1e-12, atol=0.0)

    def test_scratch_gives_the_same_result_and_keeps_no_state(self):
        rng = np.random.default_rng(8)
        phi = ndsmooth(rng.normal(size=(13, 17)))
        other = ndsmooth(rng.normal(size=(13, 17))) * 40.0
        fresh = curvature(phi, 0.5)
        scratch = Scratch(phi.shape)
        first = curvature(phi, 0.5, scratch=scratch)
        curvature(other, 0.5, scratch=scratch)
        again = curvature(phi, 0.5, scratch=scratch)
        assert first.tobytes() == fresh.tobytes()
        assert again.tobytes() == fresh.tobytes()
        for work in (scratch.padded, *scratch.arrays):
            assert not np.shares_memory(again, work)

    def test_scratch_of_another_shape_is_refused(self):
        with pytest.raises(ValueError):
            curvature(np.zeros((5, 6)), scratch=Scratch((6, 5)))


def curvature_array_reference(phi, spacing=1.0, eta=CURVATURE_ETA):
    """curvature (then named curvature_array) as it was before its stencils
    became flat runs: the same operations in the same order on 2-D views of
    a padded copy, in arrays of its own. curvature must give the same bits."""
    h = spacing
    p = np.pad(phi, 1, mode="edge")
    c = p[1:-1, 1:-1]
    left, right, up, down = p[1:-1, :-2], p[1:-1, 2:], p[:-2, 1:-1], p[2:, 1:-1]
    px, py, pxx, pyy, pxy = (np.empty(phi.shape) for _ in range(5))
    np.subtract(right, left, out=px)
    px /= 2.0 * h
    np.subtract(down, up, out=py)
    py /= 2.0 * h
    for second, plus, minus in ((pxx, right, left), (pyy, down, up)):
        np.multiply(c, 2.0, out=second)
        np.subtract(plus, second, out=second)
        second += minus
        second /= h * h
    np.subtract(p[2:, 2:], p[2:, :-2], out=pxy)
    pxy -= p[:-2, 2:]
    pxy += p[:-2, :-2]
    pxy /= 4.0 * h * h
    out = np.multiply(px, 2.0)
    out *= py
    out *= pxy
    pxx *= py
    pxx *= py
    pxx -= out
    pyy *= px
    pyy *= px
    pxx += pyy
    np.multiply(px, px, out=pyy)
    np.multiply(py, py, out=pxy)
    pyy += pxy
    pyy += eta
    np.sqrt(pyy, out=out)
    out *= pyy
    np.divide(pxx, out, out=out)
    return np.clip(out, -1.0 / h, 1.0 / h, out=out)


# shapes whose rows are short, or fewer than the columns, and spacings != 1
FLAT_RUN_SHAPES = [(3, 3, 1.0), (5, 9, 0.5), (9, 5, 0.5), (40, 24, 2.0)]


class TestFlatRuns:
    """The x-stencils run over the flattened rows and then fix the border
    columns; the results must be the bits of the 2-D formulas."""

    @pytest.mark.parametrize("height, width, spacing", FLAT_RUN_SHAPES)
    def test_curvature_equals_the_reference_bit_for_bit(self, height, width, spacing):
        rng = np.random.default_rng(height * 100 + width)
        scratch = Scratch((height, width))
        for phi in (rng.normal(size=(height, width)) * 5.0,
                    ndsmooth(rng.normal(size=(height, width))) * 40.0):
            expected = curvature_array_reference(phi, spacing).tobytes()
            assert curvature(phi, spacing).tobytes() == expected
            assert curvature(phi, spacing, scratch=scratch).tobytes() == expected
            # a phi that is not row-major is read as it is
            flipped = np.asfortranarray(phi)
            assert curvature(flipped, spacing, scratch=scratch).tobytes() == expected

    @pytest.mark.parametrize("height, width, spacing", FLAT_RUN_SHAPES)
    def test_gradient_into_the_set_equals_numpy(self, height, width, spacing):
        f = np.random.default_rng(height * width).normal(size=(height, width)) * 7.0
        dy, dx = np.gradient(f, spacing)
        scratch = Scratch((height, width))
        scratch.arrays[0].fill(np.nan)  # nothing of an earlier use may show
        g = gradient(f, spacing, out=scratch.arrays[:2])
        assert g.dx is scratch.arrays[0] and g.dy is scratch.arrays[1]
        assert g.dx.tobytes() == dx.tobytes()
        assert g.dy.tobytes() == dy.tobytes()

    def test_gradient_refuses_an_output_that_is_not_row_major(self):
        f = ScalarField(np.zeros((5, 6)))
        with pytest.raises(ValueError):
            gradient(f.data, f.spacing, out=(np.empty((6, 5)).T, np.empty((5, 6))))

    def test_gradients_refuse_an_input_that_is_not_row_major(self):
        f = np.zeros((6, 5)).T
        with pytest.raises(ValueError, match="row-major"):
            gradient(f)
        with pytest.raises(ValueError, match="row-major"):
            gradient_magnitude(f, out=tuple(np.empty((5, 6)) for _ in range(3)))

    def test_fields_are_row_major(self):
        data = np.arange(20.0).reshape(4, 5)
        field = ScalarField(data.T)
        assert field.data.flags.c_contiguous
        assert field.data.tobytes() == np.ascontiguousarray(data.T).tobytes()
        # a row-major float64 array is taken as it is
        assert ScalarField(data).data is data

    def test_set_arrays_are_views_of_its_buffers(self):
        scratch = Scratch((7, 4))
        assert len(scratch.buffers) == len(scratch.arrays) == 5
        for array, buffer in zip(scratch.arrays, scratch.buffers):
            assert array.shape == (7, 4) and array.flags.c_contiguous
            assert buffer.shape == (7 * 6,)
            assert np.shares_memory(array, buffer)


class TestDivideBy:
    @pytest.mark.parametrize("d", [1.0, 2.0, 0.25, 4.0 * 2.5 * 2.5, 2.0 ** -1020,
                                   2.0 ** 1000, 0.74, 3.0, 1e-300, 5e-324])
    def test_equals_the_quotient_bit_for_bit(self, d):
        rng = np.random.default_rng(17)
        a = rng.normal(size=4000) * 10.0 ** rng.integers(-320, 300, size=4000)
        a[:6] = [0.0, -0.0, np.inf, -np.inf, 5e-324, 1.7e308]
        with np.errstate(over="ignore"):  # both sides overflow alike
            expected = a / d
            divide_by(a, d)
        assert a.tobytes() == expected.tobytes()


def ndsmooth(a):
    """Cheap 3x3 box smoothing so random fields have usable stencils."""
    import scipy.ndimage as ndi

    return ndi.uniform_filter(a, size=3, mode="nearest")


class TestHeaviside:
    def test_zero_is_half(self):
        for eps in (0.1, 1.0, 7.5):
            assert heaviside_eps(0.0, eps) == pytest.approx(0.5, abs=1e-15)

    def test_closed_form_value(self):
        # independent evaluation of 1/2 (1 + 2/pi atan(10))
        expected = 0.5 * (1.0 + (2.0 / math.pi) * math.atan(10.0))
        assert heaviside_eps(10.0, 1.0) == pytest.approx(expected, abs=1e-4)
        assert heaviside_eps(10.0, 1.0) == pytest.approx(0.96827, abs=1e-4)

    @given(st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e3))
    def test_symmetry_identity(self, z, eps):
        assert heaviside_eps(z, eps) + heaviside_eps(-z, eps) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_on_grid(self):
        z = np.linspace(-50.0, 50.0, 1000)
        total = heaviside_eps(z, 1.3) + heaviside_eps(-z, 1.3)
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_strictly_increasing(self):
        z = np.linspace(-20.0, 20.0, 400)
        h = heaviside_eps(z, 0.7)
        assert np.all(np.diff(h) > 0)
        assert np.all((h > 0.0) & (h < 1.0))

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            heaviside_eps(0.0, 0.0)


class TestDelta:
    def test_peak_value(self):
        assert delta_eps(0.0, 1.0) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_even_and_positive(self):
        z = np.linspace(-30, 30, 301)
        d = delta_eps(z, 2.0)
        assert np.allclose(d, d[::-1])
        assert np.all(d > 0)
        assert d.argmax() == 150

    @pytest.mark.parametrize("eps", [0.25, 1.0, 3.0])
    def test_quadrature_mass(self, eps):
        # trapezoid quadrature over [-50 eps, 50 eps] as the independent oracle
        z = np.linspace(-50.0 * eps, 50.0 * eps, 200_001)
        mass = np.trapezoid(delta_eps(z, eps), z)
        assert abs(mass - 1.0) <= 0.02

    def test_matches_finite_difference_of_heaviside(self):
        h = 1e-4
        fd = (heaviside_eps(0.7 + h, 1.5) - heaviside_eps(0.7 - h, 1.5)) / (2.0 * h)
        assert abs(fd - delta_eps(0.7, 1.5)) < 1e-6

    def test_derivative_at_random_points(self):
        rng = np.random.default_rng(42)
        z = rng.uniform(-10.0, 10.0, size=100)
        eps = rng.uniform(0.5, 5.0, size=100)
        h = 1e-4
        fd = (heaviside_eps(z + h, eps) - heaviside_eps(z - h, eps)) / (2.0 * h)
        assert np.max(np.abs(fd - delta_eps(z, eps))) < 1e-6


class TestGaussianSmooth:
    def test_preserves_constants(self):
        f = np.full((10, 10), 4.2)
        assert np.allclose(gaussian_smooth(f), 4.2, atol=1e-12)

    def test_reduces_gradient_of_step(self):
        step = np.zeros((16, 16))
        step[:, 8:] = 1.0
        raw = gradient_magnitude(step).max()
        smoothed = gradient_magnitude(gaussian_smooth(step)).max()
        assert smoothed < raw

    def test_solver_import_leaves_scipy_out(self):
        # grid imports scipy.ndimage inside gaussian_smooth, its only user,
        # so a region-model process never loads it; the first call then does
        f = np.random.default_rng(3).random((9, 12))
        probe = ("import sys\n"
                 "import numpy as np\n"
                 "import levelseg.solver\n"
                 "from levelseg.grid import gaussian_smooth\n"
                 "assert 'scipy' not in sys.modules, 'levelseg.solver imported scipy'\n"
                 "f = np.random.default_rng(3).random((9, 12))\n"
                 "print(gaussian_smooth(f).tobytes().hex())\n")
        src = os.path.dirname(os.path.dirname(grid.__file__))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == gaussian_smooth(f).tobytes().hex()


# The parent formulas of the elementwise kernels, before they could write
# into a given array; the in-place versions must give the same bits.
def heaviside_reference(z, eps):
    return 0.5 * (1.0 + (2.0 / math.pi) * np.arctan(z / eps))


def delta_reference(z, eps):
    return (eps / math.pi) / (eps * eps + z * z)


def edge_detector_reference(z):
    return 1.0 / (1.0 + z * z)


class TestWrittenIntoGivenArrays:
    @staticmethod
    def samples():
        rng = np.random.default_rng(17)
        z = rng.normal(size=(37, 53)) * 10.0 ** rng.integers(-4, 5, size=(37, 1))
        z[0, :5] = (0.0, -0.0, 1e-300, -1e300, 1.7e308)
        z[1, 0] = -1.7e308
        return z

    # eps = 1 skips the quotient, and every other eps divides: both must
    # give the bits of z / eps, also at the powers of two 0.5 and 2
    @pytest.mark.parametrize("eps", [0.3, 1.0, 2.5, 0.5, 2.0])
    @pytest.mark.parametrize("kernel, reference", [(heaviside_eps, heaviside_reference),
                                                   (delta_eps, delta_reference)])
    def test_heaviside_and_delta_are_bit_identical(self, kernel, reference, eps):
        z = self.samples()
        out = np.full_like(z, np.nan)
        with np.errstate(over="ignore"):
            expected = reference(z, eps)
            fresh = kernel(z, eps)
            written = kernel(z, eps, out=out)
        assert written is out
        assert fresh.tobytes() == expected.tobytes()
        assert out.tobytes() == expected.tobytes()

    def test_scalars_stay_scalars(self):
        assert heaviside_eps(0.7, 1.5) == heaviside_reference(0.7, 1.5)
        assert delta_eps(0.7, 1.5) == delta_reference(0.7, 1.5)
        assert edge_detector(0.7) == edge_detector_reference(0.7)
        assert isinstance(delta_eps(0.7, 1.5), float)

    def test_edge_detector_is_bit_identical(self):
        z = np.abs(self.samples())
        out = np.empty_like(z)
        with np.errstate(over="ignore"):
            expected = edge_detector_reference(z)
            assert edge_detector(z, out=out) is out
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spacing", [1.0, 0.37])
    def test_gradient_and_magnitude_fill_the_given_arrays(self, spacing):
        f = ScalarField(self.samples()[1:] * 1e-3, spacing)
        dx, dy, m = (np.full_like(f.data, np.nan) for _ in range(3))
        g = gradient(f.data, f.spacing, out=(dx, dy))
        assert g.dx is dx and g.dy is dy
        fresh = gradient(f.data, f.spacing)
        assert dx.tobytes() == fresh.dx.tobytes() and dy.tobytes() == fresh.dy.tobytes()
        assert gradient_magnitude(f.data, f.spacing, out=(dx, dy, m)) is m
        assert m.tobytes() == gradient_magnitude(f.data, f.spacing).tobytes()

    @pytest.mark.filterwarnings("error")
    def test_gradient_of_a_valid_field_is_not_checked_again(self):
        # neighbours 2 * 1.7e308 apart: the differences overflow to Inf, as
        # in curvature, instead of raising; the caller checks
        d = np.full((5, 6), -1.7e308)
        d[:, 3:] = 1.7e308
        f = ScalarField(d)
        with np.errstate(over="ignore"):
            g = gradient(f.data, f.spacing)
            m = gradient_magnitude(f.data, f.spacing,
                                   out=tuple(np.empty_like(d) for _ in range(3)))
        assert np.isinf(g.dx[:, 2:4]).all() and np.isfinite(g.dy).all()
        assert np.isinf(m[:, 2:4]).all()
