"""Model-level checks: region constants, right-hand sides against hand
arithmetic, energy identities, and gradient-flow consistency."""

import numpy as np
import pytest

from levelseg import grid
from levelseg.grid import (
    ScalarField,
    Scratch,
    curvature,
    delta_eps,
    heaviside_eps,
)
from levelseg.levelset import InitShape, extract_contour, signed_distance
from levelseg.models import (
    EvolveParams,
    RegionStats,
    chan_vese_rhs,
    energy_chan_vese,
    energy_geodesic,
    energy_modified,
    geodesic_rhs,
    modified_rhs,
    energy_region,
    region_averages,
    region_rhs,
    region_terms,
)
from levelseg.solver import evolve

from helpers import hausdorff


def disk_image(width=64, height=64, cx=32.0, cy=32.0, r=10.0, inside=200.0, outside=50.0):
    x, y = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    return np.where(np.hypot(x - cx, y - cy) <= r, inside, outside)


def disk_sdf(width=64, height=64, cx=32.0, cy=32.0, r=10.0):
    return signed_distance(InitShape.circle(cx, cy, r), width, height).data


class TestEvolveParams:
    def test_defaults_valid(self):
        EvolveParams().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": -1.0},
            {"lam": 0.0},
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"eps": 0.0},
            {"max_iters": -1},
            {"max_iters": 10.5},
            {"reinit_every": 2.5},
            {"stop_tol": -1e-3},
            {"reinit_every": -1},
            {"mu": float("nan")},
            {"mu": float("inf")},
            {"nu": float("nan")},
            {"nu": float("inf")},
            {"nu": -float("inf")},
            {"lam": float("nan")},
            {"lam": float("inf")},
            {"eps": float("nan")},
            {"eps": float("inf")},
            {"stop_tol": float("nan")},
            {"max_iters": True},
            {"reinit_every": False},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EvolveParams(**kwargs).validate()

    def test_extreme_stop_tol_allowed(self):
        EvolveParams(stop_tol=0.0).validate()
        EvolveParams(stop_tol=np.inf).validate()

    def test_numpy_integer_budgets_allowed(self):
        EvolveParams(max_iters=np.int64(10), reinit_every=np.int32(5)).validate()


class TestRegionAverages:
    def test_constant_image(self):
        u0 = np.full((12, 12), 7.0)
        phi = disk_sdf(12, 12, 6, 6, 2.0)
        stats = region_averages(u0, phi)
        assert stats.c1 == pytest.approx(7.0) and stats.c2 == pytest.approx(7.0)
        assert stats.n_inside != 0 and stats.n_outside != 0

    def test_aligned_disk_exact(self):
        u0 = disk_image()
        stats = region_averages(u0, disk_sdf())
        # phi >= 0 exactly where dist <= r, which is exactly where u0 = 200
        assert abs(stats.c1 - 200.0) < 1e-9
        assert abs(stats.c2 - 50.0) < 1e-9
        assert stats.n_inside + stats.n_outside == 64 * 64
        assert stats.max_intensity == 200.0

    def test_empty_outside_falls_back_to_global_mean(self):
        u0 = disk_image()
        stats = region_averages(u0, np.ones((64, 64)))
        assert stats.n_outside == 0 and stats.n_inside != 0
        assert stats.c2 == pytest.approx(float(u0.mean()))

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["all_inside", "all_outside"])
    def test_empty_region_weighted_constant_is_the_global_mean(self, sign):
        # H_eps rounds to exactly 1 (all inside) or 0 (all outside), so the
        # empty region's weight sum is 0
        u0 = disk_image()
        stats = region_averages(u0, np.full((64, 64), sign * 1e300), 1.0)
        assert (stats.n_inside, stats.n_outside) == ((4096, 0) if sign > 0 else (0, 4096))
        assert stats.c1 == pytest.approx(float(u0.mean()), rel=1e-12)
        assert stats.c2 == pytest.approx(float(u0.mean()), rel=1e-12)

    @pytest.mark.parametrize("phi", [np.zeros((8, 9))], ids=["shape"])
    def test_dimension_mismatch(self, phi):
        with pytest.raises(ValueError):
            region_averages(np.zeros((8, 8)), phi)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        u = rng.uniform(0, 1, size=(12, 12))
        phi = rng.normal(size=(12, 12))
        base = region_averages(u, phi)
        # shuffle pixels within each sign class
        inside = phi >= 0
        u2 = u.copy()
        for mask in (inside, ~inside):
            vals = u2[mask]
            u2[mask] = vals[rng.permutation(len(vals))]
        shuffled = region_averages(u2, phi)
        assert shuffled.c1 == pytest.approx(base.c1, abs=1e-12)
        assert shuffled.c2 == pytest.approx(base.c2, abs=1e-12)


class TestChanVeseRhs:
    def test_constant_image_affine_phi_zero(self):
        u0 = np.full((16, 16), 0.4)
        x, y = np.meshgrid(np.arange(16.0), np.arange(16.0))
        phi = x - 2.0 * y + 3.0
        stats = region_averages(u0, phi)
        params = EvolveParams(mu=0.0, nu=0.0)
        rhs = chan_vese_rhs(u0, phi, stats, params)
        assert np.abs(rhs).max() < 1e-12

    def test_aligned_disk_zero_level_stationary(self):
        # data terms do not cancel pointwise (inside pixels feel +(c1-c2)^2,
        # outside pixels the negative), but the zero level between them is
        # stationary: a small explicit step leaves the contour in place
        u0 = disk_image(inside=1.0, outside=0.0)
        phi = disk_sdf()
        stats = region_averages(u0, phi)
        for lam in (1.0, 1.5):
            params = EvolveParams(mu=0.0, nu=0.0, lam=lam, eps=1.0)
            rhs = chan_vese_rhs(u0, phi, stats, params)
            expected = delta_eps(phi, 1.0) * (-lam * (u0 - stats.c1) ** 2
                                              + (u0 - stats.c2) ** 2)
            assert rhs == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert np.abs(rhs).max() > 0.01  # genuinely nonzero pointwise
            # the flow only sharpens the aligned partition: positive on every
            # inside pixel, negative outside, so no pixel ever changes side
            inside = phi >= 0
            assert np.all(rhs[inside] >= 0)
            assert np.all(rhs[~inside] <= 0)
            stepped = phi + 0.01 * rhs
            moved = hausdorff(extract_contour(phi).vertices(),
                              extract_contour(stepped).vertices())
            assert moved < 0.1

    def test_euler_step_decreases_energy(self):
        # misaligned start: contour displaced from the disk
        u0 = disk_image(inside=1.0, outside=0.0)
        phi = disk_sdf(cx=26, cy=28, r=14)
        params = EvolveParams(mu=5.0, nu=0.0)
        stats = region_averages(u0, phi)
        e0 = energy_chan_vese(u0, phi, stats, params)
        dt = 0.9 / (4.0 * params.mu + 1.0)
        stepped = phi + dt * chan_vese_rhs(u0, phi, stats, params)
        # c1/c2 are the binary-region means (not the H_eps-weighted
        # minimizers), so the descent claim is at fixed constants
        e_fixed = energy_chan_vese(u0, stepped, stats, params)
        assert e_fixed < e0

    def test_dimension_mismatch(self):
        u0 = np.zeros((8, 8))
        phi = np.zeros((9, 8))
        stats = RegionStats(0, 0, 1, 1, 0)
        with pytest.raises(ValueError):
            chan_vese_rhs(u0, phi, stats, EvolveParams())


class TestModifiedRhs:
    def test_constant_image_reduction(self):
        # u0 = K with alpha = 1 and c = K: data terms cancel exactly,
        # leaving delta_eps(phi) * (mu*kappa - nu)
        K = 0.6
        u0 = np.full((24, 24), K)
        phi = disk_sdf(24, 24, 12, 12, 6)
        stats = RegionStats(c1=K, c2=K, n_inside=10, n_outside=10, max_intensity=K)
        params = EvolveParams(mu=3.0, nu=0.25, alpha=1.0)
        rhs = modified_rhs(u0, phi, stats, params)
        expected = delta_eps(phi, params.eps) * (
            params.mu * curvature(phi) - params.nu
        )
        assert np.array_equal(rhs, expected)

    def test_two_blob_data_term_arithmetic(self):
        # raw-unit sanity: M=230, alpha=0.6 -> target 138, outside c=20
        u0 = np.array([[230.0, 90.0, 20.0]] * 3)
        phi = np.zeros((3, 3))
        stats = RegionStats(c1=150.0, c2=20.0, n_inside=5, n_outside=4, max_intensity=230.0)
        params = EvolveParams(mu=0.0, nu=0.0, alpha=0.6)
        rhs = modified_rhs(u0, phi, stats, params)
        delta0 = delta_eps(0.0, params.eps)
        # storm pixels push outward (positive), and noise pixels at 90 also
        # get a positive data term because 90 is closer to 138 than to 20
        assert rhs[0, 0] == pytest.approx(delta0 * (-(230 - 138) ** 2 + (230 - 20) ** 2))
        assert rhs[0, 1] == pytest.approx(delta0 * (-(90 - 138) ** 2 + (90 - 20) ** 2))
        assert rhs[0, 1] == pytest.approx(delta0 * 2596.0)

    def test_matches_chan_vese_when_target_is_inside_mean(self):
        rng = np.random.default_rng(8)
        u0 = rng.uniform(0, 1, size=(20, 20))
        phi = disk_sdf(20, 20, 10, 10, 5)
        stats = region_averages(u0, phi)
        hacked = RegionStats(
            c1=stats.c1, c2=stats.c2, n_inside=stats.n_inside,
            n_outside=stats.n_outside, max_intensity=stats.c1,
        )
        params = EvolveParams(mu=2.0, nu=0.1, lam=1.0, alpha=1.0)
        a = chan_vese_rhs(u0, phi, stats, params)
        b = modified_rhs(u0, phi, hacked, params)
        assert np.array_equal(a, b)

    def test_homogeneity_under_intensity_scaling(self):
        rng = np.random.default_rng(13)
        u = rng.uniform(0, 1, size=(18, 18))
        phi = disk_sdf(18, 18, 9, 9, 4)
        params = EvolveParams(mu=0.0, nu=0.0, alpha=0.55)
        base = modified_rhs(u, phi, region_averages(u, phi), params)
        for s in (2.0, 0.25, 7.5):
            scaled_field = s * u
            stats_s = region_averages(scaled_field, phi)
            assert stats_s.max_intensity == pytest.approx(s * np.max(u), rel=1e-12)
            assert stats_s.c2 == pytest.approx(s * region_averages(u, phi).c2, rel=1e-12)
            scaled = modified_rhs(scaled_field, phi, stats_s, params)
            assert np.allclose(scaled, s * s * base, rtol=1e-10, atol=1e-12)


class TestGeodesicRhs:
    def test_constant_image_affine_phi_zero_interior(self):
        u0 = np.full((16, 16), 0.5)
        x, y = np.meshgrid(np.arange(16.0), np.arange(16.0))
        phi = 0.5 * x + y
        rhs = geodesic_rhs(u0, phi, EvolveParams())
        assert np.abs(rhs[1:-1, 1:-1]).max() < 1e-12

    def test_constant_image_circle_curvature_flow(self):
        import scipy.ndimage as ndi

        u0 = np.full((64, 64), 0.5)
        x, y = np.meshgrid(np.arange(64.0), np.arange(64.0))
        phi = np.hypot(x - 31.5, y - 31.5) - 10.0  # outward positive
        rhs = geodesic_rhs(u0, phi, EvolveParams())
        theta = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        rows = 31.5 + 10.0 * np.sin(theta)
        cols = 31.5 + 10.0 * np.cos(theta)
        on_zero = ndi.map_coordinates(rhs, np.vstack([rows, cols]), order=1)
        assert np.abs(on_zero - 0.1).max() < 0.01  # within 10% of kappa*|grad|

    def test_edge_suppresses_motion(self):
        from levelseg.grid import gaussian_smooth

        u0 = gaussian_smooth(disk_image(inside=1.0, outside=0.0, r=30.0,
                                        width=96, height=96, cx=48, cy=48))
        phi = disk_sdf(96, 96, 48, 48, 30.0)
        rhs = np.abs(geodesic_rhs(u0, phi, EvolveParams()))
        x, y = np.meshgrid(np.arange(96.0), np.arange(96.0))
        dist = np.hypot(x - 48, y - 48)
        at_edge = np.abs(dist - 30.0) < 1.0
        flat = np.abs(dist - 20.0) < 1.0
        assert np.median(rhs[at_edge]) < np.median(rhs[flat])


class TestScratch:
    @pytest.mark.parametrize("model", ["region", "geodesic"])
    def test_rhs_is_the_same_with_a_reused_scratch_set(self, model):
        rng = np.random.default_rng(21)
        u0 = rng.random((24, 40))
        phi = disk_sdf(40, 24, 20.0, 12.0, 7.0) * 0.5
        other = rng.normal(size=(24, 40)) * 9.0
        params = EvolveParams(mu=0.3, nu=0.1, lam=1.5)

        def rhs(f, scratch):
            if model == "geodesic":
                return geodesic_rhs(u0, f, params, 0.5, scratch=scratch)
            return region_rhs(u0, f, 0.8, 0.2, params.lam, params, 0.5, scratch=scratch)

        fresh = rhs(phi, None)
        scratch = Scratch(phi.shape)
        rhs(other, scratch)
        reused = rhs(phi, scratch)
        assert reused.tobytes() == fresh.tobytes()
        for work in (scratch.padded, *scratch.arrays):
            assert not np.shares_memory(reused, work)

    def test_geodesic_step_builds_no_field(self, monkeypatch):
        # its kernels take arrays, so nothing it computes is validated again
        u0, phi = random_fields(3)
        scratch = Scratch(phi.shape)
        geodesic_rhs(u0, phi, EvolveParams(), scratch=scratch)
        built = []
        check = ScalarField.__post_init__

        def counted(field):
            built.append(field.data.shape)
            check(field)

        monkeypatch.setattr(ScalarField, "__post_init__", counted)
        geodesic_rhs(u0, phi, EvolveParams(), scratch=scratch)
        assert built == []
        ScalarField(np.zeros((3, 4)))
        assert built == [(3, 4)]


class TestEnergies:
    def test_zero_on_matching_constants(self):
        u0 = np.full((10, 10), 0.3)
        phi = disk_sdf(10, 10, 5, 5, 2)
        stats = region_averages(u0, phi)
        params = EvolveParams(mu=0.0, nu=0.0)
        assert energy_chan_vese(u0, phi, stats, params) == pytest.approx(0.0, abs=1e-15)

    def test_aligned_disk_matches_direct_summation(self):
        u0 = disk_image(inside=1.0, outside=0.0)
        phi = disk_sdf()
        stats = region_averages(u0, phi)
        params = EvolveParams(mu=0.0, nu=0.0)
        e = energy_chan_vese(u0, phi, stats, params)
        # independent direct summation with the same regularized Heaviside
        import math

        total = 0.0
        for yy in range(64):
            for xx in range(64):
                H = 0.5 * (1.0 + (2.0 / math.pi) * math.atan(phi[yy, xx] / params.eps))
                total += (u0[yy, xx] - stats.c1) ** 2 * H
                total += (u0[yy, xx] - stats.c2) ** 2 * (1.0 - H)
        assert e == pytest.approx(total, rel=0.01)
        assert e > 0.0  # the eps-blur floor is strictly positive

    def test_nu_term_is_linear(self):
        u0 = disk_image(inside=1.0, outside=0.0)
        phi = disk_sdf(cx=30, cy=30, r=12)
        stats = region_averages(u0, phi)
        e0 = energy_chan_vese(u0, phi, stats, EvolveParams(mu=1.0, nu=0.0))
        e1 = energy_chan_vese(u0, phi, stats, EvolveParams(mu=1.0, nu=1.0))
        expected = float(heaviside_eps(phi, 1.0).sum())
        assert e1 - e0 == pytest.approx(expected, rel=1e-9)

    def test_modified_equals_chan_vese_at_inside_mean(self):
        u0 = disk_image(inside=1.0, outside=0.0)
        phi = disk_sdf()
        stats = region_averages(u0, phi)  # c1 = 1.0 = max intensity
        params = EvolveParams(mu=2.0, nu=0.3, lam=1.0, alpha=1.0)
        assert stats.c1 == stats.max_intensity == 1.0
        e_cv = energy_chan_vese(u0, phi, stats, params)
        e_mod = energy_modified(u0, phi, stats, params)
        assert e_mod == e_cv

    def test_geodesic_energy_positive_and_tracks_length(self):
        u0 = np.full((64, 64), 0.2)
        small = disk_sdf(r=6)
        large = disk_sdf(r=14)
        params = EvolveParams()
        e_small = energy_geodesic(u0, small, params)
        e_large = energy_geodesic(u0, large, params)
        assert 0 < e_small < e_large


def random_region_state(rng, n=24):
    """A plausible mid-evolution state: smooth image, SDF-ish phi."""
    import scipy.ndimage as ndi

    u = ndi.gaussian_filter(rng.uniform(0, 1, size=(n, n)), 2.0, mode="nearest")
    u = (u - u.min()) / (u.max() - u.min() + 1e-12)
    cx, cy = rng.uniform(6, n - 6, size=2)
    r = rng.uniform(3, n / 3)
    x, y = np.meshgrid(np.arange(float(n)), np.arange(float(n)))
    phi = r - np.hypot(x - cx, y - cy)
    phi += ndi.gaussian_filter(rng.normal(0, 0.5, size=(n, n)), 2.0, mode="nearest")
    return u, phi


def descent_gap(model, u0, phi, params, s=1e-6):
    """E(phi + s*rhs) - E(phi) at fixed region stats; <= 0 up to tolerance
    for a descent direction."""
    stats = region_averages(u0, phi)
    if model == "chan_vese":
        rhs = chan_vese_rhs(u0, phi, stats, params)
        e0 = energy_chan_vese(u0, phi, stats, params)
        e1 = energy_chan_vese(u0, phi + s * rhs, stats, params)
    else:
        rhs = modified_rhs(u0, phi, stats, params)
        e0 = energy_modified(u0, phi, stats, params)
        e1 = energy_modified(u0, phi + s * rhs, stats, params)
    return e1 - e0


class TestGradientFlowConsistency:
    @pytest.mark.parametrize("model", ["chan_vese", "modified"])
    def test_rhs_is_descent_direction(self, model):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            u0, phi = random_region_state(rng)
            params = EvolveParams(
                mu=rng.uniform(0.0, 5.0),
                nu=rng.uniform(-0.5, 0.5),
                lam=rng.uniform(1.0, 4.0),
                alpha=rng.uniform(0.3, 0.9),
                eps=rng.uniform(0.5, 2.0),
            )
            gap = descent_gap(model, u0, phi, params)
            assert gap <= 1e-8


# The parent formulas of the region statistics and the energies, before they
# were written into the run's work set; the work-set versions must agree.
def region_means_reference(u, phi):
    inside = phi >= 0.0
    mean = float(u.mean())
    return (float(u[inside].mean()) if inside.any() else mean,
            float(u[~inside].mean()) if (~inside).any() else mean)


def weighted_averages_reference(u, phi, eps):
    H = heaviside_eps(phi, eps)
    w_in = H.ravel()
    w_out = 1.0 - w_in
    c1 = float(np.einsum("i,i->", u.ravel(), w_in)) / float(w_in.sum())
    c2 = float(np.einsum("i,i->", u.ravel(), w_out)) / float(w_out.sum())
    return c1, c2, H


def grad_mag_reference(phi, spacing):
    dy, dx = np.gradient(phi, spacing)
    return np.hypot(dx, dy)


def energy_region_reference(u, phi, spacing, inside, outside, lam, params):
    H = heaviside_eps(phi, params.eps)
    delta = delta_eps(phi, params.eps)
    din, dout = u - inside, u - outside
    total = (lam * din * din * H + dout * dout * (1.0 - H)
             + params.mu * delta * grad_mag_reference(phi, spacing) + params.nu * H)
    return float(total.sum() * spacing * spacing)


def energy_geodesic_reference(u, phi, spacing, params):
    g = 1.0 / (1.0 + grad_mag_reference(u, spacing) ** 2)
    delta = delta_eps(phi, params.eps)
    return float((g * delta * grad_mag_reference(phi, spacing)).sum() * spacing * spacing)


def geodesic_rhs_reference(u, phi, spacing):
    # kappa g |grad phi| + grad phi . grad g, in the order the formula reads
    gy, gx = np.gradient(u, spacing)
    z = np.sqrt(gx * gx + gy * gy)
    g = 1.0 / (1.0 + z * z)
    gy, gx = np.gradient(g, spacing)
    py, px = np.gradient(phi, spacing)
    kappa = curvature(phi, spacing)
    return kappa * g * np.sqrt(px * px + py * py) + px * gx + py * gy


def random_fields(seed, shape=(31, 47)):
    rng = np.random.default_rng(seed)
    u = rng.random(shape)
    phi = rng.normal(size=shape) * rng.uniform(0.5, 20.0)
    return u, phi


class TestRegionStepInTheWorkSet:
    @pytest.mark.parametrize("spacing", [1.0, 0.5, 2.5])
    def test_energies_match_the_parent_formulas(self, spacing):
        scratch = Scratch((31, 47))
        for seed in range(8):
            u0, phi = random_fields(seed)
            params = EvolveParams(mu=0.1 + seed, nu=0.3 * seed - 1.0, eps=0.5 + 0.2 * seed)
            terms = (0.7, 0.3, 1.0 + 0.5 * seed)
            want = energy_region_reference(u0, phi, spacing, *terms, params)
            for work in (None, scratch):
                got = energy_region(u0, phi, *terms, params, spacing, scratch=work)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            want = energy_geodesic_reference(u0, phi, spacing, params)
            for work in (None, scratch):
                got = energy_geodesic(u0, phi, params, spacing, scratch=work)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spacing", [1.0, 0.5, 2.5])
    def test_geodesic_rhs_is_bit_identical_to_the_formula(self, spacing):
        scratch = Scratch((31, 47))
        for seed in range(10):
            u0, phi = random_fields(seed)
            want = geodesic_rhs_reference(u0, phi, spacing)
            for work in (None, scratch):
                got = geodesic_rhs(u0, phi, EvolveParams(), spacing, scratch=work)
                assert got.tobytes() == want.tobytes()

    def test_weighted_averages_are_bit_identical_with_a_reused_set(self):
        scratch = Scratch((31, 47))
        for seed in range(5):
            u0, phi = random_fields(seed)
            c1, c2, H = weighted_averages_reference(u0, phi, 1.3)
            for work in (Scratch((31, 47)), scratch):
                stats = region_averages(u0, phi, 1.3, scratch=work)
                got = work.arrays[0]
                assert (stats.c1, stats.c2) == (c1, c2)
                assert got.tobytes() == H.tobytes()
            # H is left in the set, and the energy reads it as it is
            before = got.copy()
            energy = energy_region(u0, phi, stats.c1, stats.c2, 1.0, EvolveParams(eps=1.3),
                                   H=got, scratch=scratch)
            assert got.tobytes() == before.tobytes()
            assert energy == energy_region(u0, phi, stats.c1, stats.c2, 1.0,
                                           EvolveParams(eps=1.3))

    @pytest.mark.parametrize("case", ["mixed", "all_inside", "all_outside"])
    def test_region_averages_match_the_boolean_index_means(self, case):
        for seed in range(5):
            u0, phi = random_fields(seed)
            if case == "all_inside":
                phi = np.abs(phi)
            elif case == "all_outside":
                phi = -np.abs(phi) - 1e-3
            stats = region_averages(u0, phi)
            c1, c2 = region_means_reference(u0, phi)
            assert stats.c1 == pytest.approx(c1, rel=1e-12, abs=1e-15)
            assert stats.c2 == pytest.approx(c2, rel=1e-12, abs=1e-15)
            assert (stats.n_inside == 0) == (case == "all_outside")
            assert (stats.n_outside == 0) == (case == "all_inside")
            assert stats.n_inside + stats.n_outside == u0.size

    def test_stats_and_energy_allocate_no_phi_sized_temporaries(self):
        # tracemalloc sees numpy's buffers. On a reused set, a step's
        # statistics and energies make only boolean masks (an eighth of an
        # array each) and einsum's cast buffer, and either rhs only the new
        # phi, so one more phi-sized temporary in any of them crosses its bound
        import tracemalloc

        u0, phi = random_fields(3, shape=(256, 256))
        params = EvolveParams(mu=0.2)
        scratch = Scratch(phi.shape)

        def stats_and_energy():
            stats = region_averages(u0, phi, params.eps, scratch=scratch)
            return energy_region(u0, phi, stats.c1, stats.c2, 1.0, params,
                                 H=scratch.arrays[0], scratch=scratch)

        def rhs():
            return region_rhs(u0, phi, 0.7, 0.3, 1.0, params, scratch=scratch)

        def geodesic_flow():
            return geodesic_rhs(u0, phi, params, scratch=scratch)

        def geodesic_energy():
            return energy_geodesic(u0, phi, params, scratch=scratch)

        for step, arrays in ((stats_and_energy, 1), (rhs, 2), (geodesic_flow, 2),
                             (geodesic_energy, 1)):
            step()
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < arrays * phi.nbytes, step.__name__


class TestRunMemo:
    """A reused set keeps u0's mean and max and the data terms (u0 - c)^2
    keyed on the image and c; whatever it reuses, the kernels must give
    the bytes of a fresh set."""

    @staticmethod
    def images(shape=(24, 40)):
        rng = np.random.default_rng(31)
        bright = rng.random(shape)
        dim = 0.5 * rng.random(shape)
        return bright, dim

    def test_reused_set_across_images_and_constants(self):
        first, second = self.images()
        phi = disk_sdf(40, 24, 20.0, 12.0, 7.0) * 0.5
        params = EvolveParams(mu=0.3, nu=0.1)
        scratch = Scratch(phi.shape)
        # a constant changes, lam changes, lam comes back, the image changes
        # under the same constants, and then back again
        calls = [(first, 0.8, 0.2, 1.0), (first, 0.8, 0.3, 1.0), (first, 0.6, 0.3, 1.5),
                 (first, 0.6, 0.3, 1.0), (second, 0.6, 0.3, 1.0), (first, 0.6, 0.3, 1.0),
                 (second, 0.6, 0.3, 1.5)]
        for u0, inside, outside, lam in calls:
            terms = (inside, outside, lam)
            fresh = region_rhs(u0, phi, *terms, params, 0.5)
            assert region_rhs(u0, phi, *terms, params, 0.5, scratch=scratch).tobytes() \
                == fresh.tobytes()
            assert energy_region(u0, phi, *terms, params, 0.5, scratch=scratch) \
                == energy_region(u0, phi, *terms, params, 0.5)
            assert region_averages(u0, phi, scratch=scratch) == region_averages(u0, phi)

    @pytest.mark.parametrize("model, lam", [("chan_vese", 1.0), ("chan_vese", 1.7),
                                            ("modified", 1.0)])
    def test_reused_set_across_region_steps(self, model, lam):
        # the solver's order: stats and energy at phi, then the rhs with
        # the same terms, then a step; the energy's H and 1 - H are region_averages'
        u0 = self.images()[0]
        phi = disk_sdf(40, 24, 18.0, 11.0, 6.0)
        params = EvolveParams(mu=0.3, lam=lam)
        scratch = Scratch(phi.shape)
        for _ in range(6):
            assert region_averages(u0, phi, scratch=scratch) == region_averages(u0, phi)
            stats = region_averages(u0, phi, params.eps, scratch=scratch)
            assert stats == region_averages(u0, phi, params.eps)
            terms = region_terms(model, stats, params)
            energy = energy_region(u0, phi, *terms, params, H=scratch.arrays[0],
                                   not_H=scratch.arrays[1], scratch=scratch)
            assert energy == energy_region(u0, phi, *terms, params)
            rhs = region_rhs(u0, phi, *terms, params, scratch=scratch)
            assert rhs.tobytes() == region_rhs(u0, phi, *terms, params).tobytes()
            phi = phi + 0.5 * rhs

    def test_data_terms_are_built_once_per_key(self):
        u0 = self.images()[0]
        scratch = Scratch(u0.shape)
        a = scratch.data_term(1, u0, 0.25)
        assert scratch.data_term(1, u0, 0.25) is a
        assert a.tobytes() == ((u0 - 0.25) ** 2).tobytes()
        b = scratch.data_term(0, u0, 0.5)
        assert b.tobytes() == ((u0 - 0.5) ** 2).tobytes()
        assert b is not a and scratch.data_term(1, u0, 0.25) is a
        # the two terms live beside the five arrays, not in them
        for term in (a, b):
            assert not any(np.shares_memory(term, buf)
                           for buf in (scratch.padded, *scratch.buffers))

    def test_lambda_builds_no_more_data_terms(self, monkeypatch):
        # the energy and the rhs ask for the same inside term whatever lam
        # is, so a step at lam 1.5 builds as many terms as one at lam 1
        u0 = disk_image(32, 32, 16.0, 16.0, 8.0, inside=1.0, outside=0.0)
        phi0 = disk_sdf(32, 32, 15.0, 16.0, 6.0)
        builds = []

        def counted(*args):
            builds.append(args)
            return data_term_rows(*args)

        data_term_rows = grid._data_term_rows
        monkeypatch.setattr(grid, "_data_term_rows", counted)
        counts = []
        for lam in (1.0, 1.5):
            builds.clear()
            evolve("chan_vese", ScalarField(u0), ScalarField(phi0),
                   EvolveParams(mu=0.2, lam=lam, max_iters=20, stop_tol=0.0))
            counts.append(len(builds))
        assert counts == [42, 42]
