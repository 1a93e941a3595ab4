"""Solver behavior: stability bound, stopping rules, trace bookkeeping,
determinism, and the aligned-phantom fixed point."""

import numpy as np
import pytest
import scipy.ndimage as ndi

from levelseg.grid import ScalarField, heaviside_eps
from levelseg.levelset import InitShape, extract_contour, signed_distance
from levelseg.models import EvolveParams
from levelseg.solver import (
    SegmentationResult,
    _crossings,
    _interface_motion,
    _shared_keys,
    evolve,
    stability_dt,
    trace_csv,
)

from helpers import hausdorff


def normalized_disk(width=64, height=64, cx=32.0, cy=32.0, r=10.0):
    x, y = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    return ScalarField(np.where(np.hypot(x - cx, y - cy) <= r, 1.0, 0.0))


class TestStabilityDt:
    def test_zero_mu_bound(self):
        assert stability_dt(EvolveParams(mu=0.0, nu=0.0, lam=1.0), "chan_vese") == pytest.approx(0.9)

    def test_mu_five_formula(self):
        params = EvolveParams(mu=5.0, nu=0.0, lam=1.0)
        assert stability_dt(params, "chan_vese") == pytest.approx(0.9 / (20.0 + 1.0))

    def test_lambda_enters_data_bound(self):
        slow = stability_dt(EvolveParams(mu=0.0, lam=3.0), "chan_vese")
        assert slow == pytest.approx(0.9 / 3.0)
        # modified model ignores lambda
        assert stability_dt(EvolveParams(mu=0.0, lam=3.0), "modified") == pytest.approx(0.9)

    def test_monotone_in_mu(self):
        lo = stability_dt(EvolveParams(mu=2.0), "chan_vese")
        hi = stability_dt(EvolveParams(mu=4.0), "chan_vese")
        assert hi < lo

    def test_geodesic_bound(self):
        assert stability_dt(EvolveParams(), "geodesic") == pytest.approx(0.25)
        assert stability_dt(EvolveParams(), "geodesic", spacing=0.5) == pytest.approx(0.0625)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            stability_dt(EvolveParams(), "snake")


class TestEvolveBasics:
    def test_max_iters_zero_is_noop(self):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        res = evolve("chan_vese", u0, phi0, EvolveParams(max_iters=0))
        assert res.stop_reason == "max_iters"
        assert res.iterations_run == 0
        assert len(res.energy_trace) == 1
        assert np.array_equal(res.phi_final.data, phi0.data)

    def test_rejects_unnormalized_image(self):
        u0 = ScalarField(np.full((16, 16), 50.0))
        phi0 = signed_distance(InitShape.circle(8, 8, 3), 16, 16)
        with pytest.raises(ValueError):
            evolve("chan_vese", u0, phi0, EvolveParams(max_iters=1))

    def test_rejects_unknown_model(self):
        u0 = normalized_disk(16, 16, 8, 8, 3)
        phi0 = signed_distance(InitShape.circle(8, 8, 3), 16, 16)
        with pytest.raises(ValueError):
            evolve("snake", u0, phi0, EvolveParams())

    def test_stop_tol_infinite_fires_after_window(self):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        res = evolve("chan_vese", u0, phi0, EvolveParams(stop_tol=np.inf, max_iters=50))
        assert res.stop_reason == "converged"
        assert res.iterations_run == 5

    def test_stop_tol_zero_runs_to_max(self):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        res = evolve("chan_vese", u0, phi0, EvolveParams(stop_tol=0.0, max_iters=12))
        assert res.stop_reason == "max_iters"
        assert res.iterations_run == 12

    def test_dt_clamp_recorded(self):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        res = evolve("chan_vese", u0, phi0, EvolveParams(dt=10.0, max_iters=2))
        assert res.dt_clamped
        assert res.dt_used == pytest.approx(stability_dt(EvolveParams(), "chan_vese"))
        assert res.energy_trace[0].event == "clamp"
        small = evolve("chan_vese", u0, phi0, EvolveParams(dt=1e-3, max_iters=2))
        assert not small.dt_clamped and small.dt_used == pytest.approx(1e-3)

    def test_mask_matches_phi_sign(self):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        res = evolve("chan_vese", u0, phi0, EvolveParams(max_iters=20))
        assert np.array_equal(res.mask, res.phi_final.data >= 0)

    def test_reinit_steps_marked(self):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        res = evolve("chan_vese", u0, phi0,
                     EvolveParams(max_iters=10, reinit_every=4, stop_tol=0.0))
        events = [e.event for e in res.energy_trace]
        assert events[4] == "reinit" and events[8] == "reinit"
        assert events[1] == "step"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stalled_on_blowup(self):
        # a wildly out-of-scale phi overflows the curvature stencil
        u0 = normalized_disk()
        phi0 = ScalarField(signed_distance(InitShape.circle(32, 32, 10), 64, 64).data * 1e160)
        res = evolve("chan_vese", u0, phi0, EvolveParams(max_iters=30, reinit_every=0))
        assert res.stop_reason == "stalled"
        assert res.diagnostics is not None
        assert len(res.energy_trace) >= 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", ["chan_vese", "modified", "geodesic"])
    def test_stalled_when_neighbours_differ_by_more_than_the_largest_float(self, model):
        # a finite phi0 of +-1.7e308: its gradient overflows in the first
        # energy, which must reach the finiteness check rather than raise
        u0 = normalized_disk()
        sdf = signed_distance(InitShape.circle(32, 32, 10), 64, 64).data
        phi0 = ScalarField(np.where(sdf >= 0.0, 1.7e308, -1.7e308))
        res = evolve(model, u0, phi0, EvolveParams(mu=0.2, max_iters=30))
        assert res.stop_reason == "stalled"
        assert "non-finite at iteration 1" in res.diagnostics
        assert len(res.energy_trace) == 1
        assert np.array_equal(res.mask, sdf >= 0.0)

    def test_aligned_disk_is_fixed_point(self):
        # mu=5, nu=0 on the already-aligned phantom: converges fast and the
        # contour stays within 1 px of where it started
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        res = evolve("chan_vese", u0, phi0, EvolveParams(mu=5.0, nu=0.0, max_iters=50))
        assert res.stop_reason == "converged"
        assert res.iterations_run <= 50
        moved = hausdorff(extract_contour(phi0).vertices(), res.contour.vertices())
        assert moved <= 1.0

    def test_subpixel_motion_is_not_still(self):
        # from the signed distance of the disk grown by 4 px the geodesic flow
        # moves the zero level ~0.025 px per iteration while pixels flip only
        # at iterations 4 and 11, so a rule counting flipped pixels would stop
        # this run at iteration 9
        u0 = normalized_disk()
        grown = ndi.distance_transform_edt(u0.data == 0.0) <= 4.0
        phi0 = ScalarField(ndi.distance_transform_edt(grown) - ndi.distance_transform_edt(~grown))
        res = evolve("geodesic", u0, phi0, EvolveParams(max_iters=15))
        assert res.stop_reason == "max_iters"
        assert res.iterations_run == 15

    def test_determinism(self):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle_grid(2, 2, 7, 64, 64), 64, 64)
        params = EvolveParams(mu=1.0, max_iters=40)
        r1 = evolve("chan_vese", u0, phi0, params)
        r2 = evolve("chan_vese", u0, phi0, params)
        assert np.array_equal(r1.phi_final.data, r2.phi_final.data)
        assert np.array_equal(r1.mask, r2.mask)
        assert trace_csv(r1.energy_trace) == trace_csv(r2.energy_trace)

    def test_concurrent_runs_match_sequential_ones(self):
        # each evolve owns its work arrays, so runs in threads, which numpy
        # lets overlap, must give the same bits as one after another
        import sys
        from concurrent.futures import ThreadPoolExecutor

        u0 = normalized_disk()
        jobs = [(model, signed_distance(InitShape.circle(32, 32, r), 64, 64))
                for model in ("chan_vese", "modified", "geodesic") for r in (9, 14)]
        params = EvolveParams(mu=0.5, max_iters=30, reinit_every=7, stop_tol=0.0)
        expected = [evolve(model, u0, phi0, params).phi_final.data for model, phi0 in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [pool.submit(evolve, model, u0, phi0, params) for model, phi0 in jobs]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for res, want in zip(results, expected):
            assert res.phi_final.data.tobytes() == want.tobytes()

    def test_phi_stays_finite_across_models(self):
        u0 = normalized_disk()
        for model in ("chan_vese", "modified", "geodesic"):
            phi0 = signed_distance(InitShape.circle(32, 32, 14), 64, 64)
            res = evolve(model, u0, phi0, EvolveParams(max_iters=60))
            assert np.all(np.isfinite(res.phi_final.data)), model


def degenerate_case(case):
    """(u0, phi0) of a degenerate input: a tiny, non-square or non-unit-spacing
    grid with a disk phi, a constant image, or a phi of uniform sign."""
    shape, spacing, image, phi_sign = {
        "3x3": ((3, 3), 1.0, "noise", 0),
        "5x9": ((5, 9), 1.0, "noise", 0),
        "9x5_h0.5": ((9, 5), 0.5, "noise", 0),
        "40x24_h2": ((40, 24), 2.0, "noise", 0),
        "constant_0.5": ((16, 16), 1.0, 0.5, 0),
        "constant_0": ((16, 16), 1.0, 0.0, 0),
        "phi_all_inside": ((16, 16), 1.0, "noise", 1),
        "phi_all_outside": ((16, 16), 1.0, "noise", -1),
    }[case]
    height, width = shape
    rng = np.random.default_rng(height * 100 + width)
    u = rng.random(shape) if image == "noise" else np.full(shape, image)
    x, y = np.meshgrid(np.arange(width) * spacing, np.arange(height) * spacing)
    dist = np.hypot(x - x.mean(), y - y.mean())
    if phi_sign:
        phi = phi_sign * (1.0 + dist)
    else:
        phi = min(width, height) * spacing / 4.0 - dist
    return ScalarField(u, spacing), ScalarField(phi, spacing)


class TestDegenerateInputs:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", ["3x3", "5x9", "9x5_h0.5", "40x24_h2", "constant_0.5",
                                      "constant_0", "phi_all_inside", "phi_all_outside"])
    @pytest.mark.parametrize("model", ["chan_vese", "modified", "geodesic"])
    def test_evolve_ends_cleanly(self, model, case):
        u0, phi0 = degenerate_case(case)
        res = evolve(model, u0, phi0, EvolveParams(mu=0.2, max_iters=60, reinit_every=4))
        assert np.all(np.isfinite(res.phi_final.data))
        assert res.stop_reason in ("converged", "max_iters")
        assert np.array_equal(res.mask, res.phi_final.data >= 0.0)
        assert len(res.energy_trace) == res.iterations_run + 1


class TestInterfaceMotion:
    @staticmethod
    def ramp(x0):
        # zero level on the vertical line x = x0 of a 6x5 grid
        x = np.tile(np.arange(6.0), (5, 1))
        return x - x0

    def test_crossings_are_subpixel(self):
        (h_keys, h_t), (v_keys, v_t) = _crossings(self.ramp(2.3))
        assert np.array_equal(h_keys, np.arange(5) * 6 + 2)
        assert np.allclose(h_t, 0.3)
        assert len(v_keys) == 0 and len(v_t) == 0

    def test_motion_is_mean_shift_in_px(self):
        assert _interface_motion(_crossings(self.ramp(2.3)), _crossings(self.ramp(2.5))) \
            == pytest.approx(0.2)
        assert _interface_motion(_crossings(self.ramp(2.3)), _crossings(self.ramp(2.3))) == 0.0

    def test_crossing_that_changes_edge_counts_one_px(self):
        # every crossing leaves its edge for the next one: 5 vanish, 5 appear
        assert _interface_motion(_crossings(self.ramp(2.3)), _crossings(self.ramp(3.2))) == 1.0

    def test_no_contour_is_still(self):
        flat = np.ones((5, 6))
        assert _interface_motion(_crossings(flat), _crossings(flat)) == 0.0


class TestSharedKeys:
    @staticmethod
    def reference(keys0, keys1):
        return np.intersect1d(keys0, keys1, assume_unique=True, return_indices=True)[1:]

    @staticmethod
    def keys(rng, n, top):
        return np.flatnonzero(rng.random(top) < n / top)

    def test_equals_intersect1d_bytewise(self):
        rng = np.random.default_rng(5)
        empty = np.flatnonzero(np.zeros(10, dtype=bool))
        cases = [(empty, empty), (empty, np.arange(4)), (np.arange(4), empty),
                 (np.arange(0, 20, 2), np.arange(1, 20, 2)),  # disjoint, interleaved
                 (np.arange(5), np.arange(10, 15)),  # disjoint, one before the other
                 (np.arange(3, 9), np.arange(3, 9))]  # identical
        for _ in range(50):
            top = int(rng.integers(1, 400))
            cases.append((self.keys(rng, rng.integers(0, top + 1), top),
                          self.keys(rng, rng.integers(0, top + 1), top)))
        for keys0, keys1 in cases:
            got = _shared_keys(keys0, keys1)
            want = self.reference(keys0, keys1)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestEnergyDescent:
    @pytest.mark.parametrize("model", ["chan_vese", "modified"])
    def test_trace_mostly_non_increasing(self, model):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle(32, 32, 16), 64, 64)
        res = evolve(model, u0, phi0, EvolveParams(mu=2.0, alpha=0.8, max_iters=150))
        trace = res.energy_trace
        bad = 0
        checked = 0
        for prev, cur in zip(trace, trace[1:]):
            if cur.event == "reinit":
                continue
            checked += 1
            if cur.energy > prev.energy + 1e-6 * (abs(prev.energy) + 1.0):
                bad += 1
        assert checked > 0
        assert bad <= 0.05 * checked


class TestRegionConstants:
    @pytest.mark.parametrize("model", ["chan_vese", "modified"])
    def test_trace_constants_are_heaviside_weighted(self, model):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle(32, 32, 14), 64, 64)
        params = EvolveParams(max_iters=0)
        res = evolve(model, u0, phi0, params)
        H = heaviside_eps(phi0.data, params.eps)
        c1 = (u0.data * H).sum() / H.sum()
        c2 = (u0.data * (1.0 - H)).sum() / (1.0 - H).sum()
        entry = res.energy_trace[0]
        assert entry.c_outside == pytest.approx(c2, rel=1e-12)
        if model == "chan_vese":
            assert entry.c_inside == pytest.approx(c1, rel=1e-12)
        # counts still come from the hard partition
        assert res.stats_final.n_inside == int((phi0.data >= 0).sum())

    def test_uniform_sign_falls_back_to_global_mean(self):
        # H underflows to exactly 0 everywhere, so the inside weight sum is 0
        u0 = normalized_disk()
        phi0 = ScalarField(np.full((64, 64), -1e300))
        res = evolve("chan_vese", u0, phi0, EvolveParams(max_iters=0))
        assert res.stats_final.empty_inside
        assert res.stats_final.c1 == pytest.approx(u0.data.mean())


class TestTraceCsv:
    def test_format_and_geodesic_blanks(self):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        res = evolve("geodesic", u0, phi0, EvolveParams(max_iters=3, stop_tol=0.0))
        text = trace_csv(res.energy_trace)
        lines = text.strip().split("\n")
        assert lines[0] == "iter,energy,c1_or_alphaM,c2,event"
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "" and first[3] == ""
        assert first[4] in ("step", "clamp")

    def test_modified_records_alpha_target(self):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        params = EvolveParams(alpha=0.7, max_iters=2, stop_tol=0.0)
        res = evolve("modified", u0, phi0, params)
        assert res.energy_trace[0].c_inside == pytest.approx(0.7 * 1.0)
