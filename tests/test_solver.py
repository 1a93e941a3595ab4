"""Solver behavior: stability bound, stopping rules, trace bookkeeping,
determinism, and the aligned-phantom fixed point."""

import json

import numpy as np
import pytest
import scipy.ndimage as ndi

from levelseg import models
from levelseg.grid import (
    ScalarField,
    Scratch,
    curvature,
    edge_detector,
    gaussian_smooth,
    gradient,
    gradient_magnitude,
    heaviside_eps,
    magnitude,
)
from levelseg.levelset import (
    InitShape,
    default_seed_grid,
    edge_crossings,
    extract_contour,
    signed_distance,
)
from levelseg.models import EvolveParams, RegionStats
from levelseg.solver import (
    EDGE_PERCENTILE,
    STOP_WINDOW,
    SegmentationResult,
    TraceEntry,
    _edge_image,
    _interface_motion,
    evolve,
    stability_dt,
)

from helpers import hausdorff


def normalized_disk(width=64, height=64, cx=32.0, cy=32.0, r=10.0):
    x, y = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    return ScalarField(np.where(np.hypot(x - cx, y - cy) <= r, 1.0, 0.0))


def three_disc_image():
    """A noisy 128^2 image of three discs of intensity 0.7-0.9 on 0.1,
    min-max normalized, and its truth mask."""
    y, x = np.mgrid[0:128, 0:128].astype(float)
    u = np.full((128, 128), 0.1)
    truth = np.zeros((128, 128), dtype=bool)
    for cx, cy, r, level in ((36, 40, 14, 0.9), (88, 36, 10, 0.7), (64, 92, 18, 0.8)):
        disc = np.hypot(x - cx, y - cy) <= r
        u[disc] = level
        truth |= disc
    u += np.random.default_rng(4).normal(0.0, 0.08, u.shape)
    return ScalarField((u - u.min()) / (u.max() - u.min())), truth


def grown_start(mask, px=4.0):
    """Euclidean signed distance of ``mask`` grown by ``px``, positive inside."""
    grown = ndi.distance_transform_edt(~mask) <= px
    return ScalarField(ndi.distance_transform_edt(grown) - ndi.distance_transform_edt(~grown))


def iou(a, b):
    return (a & b).sum() / (a | b).sum()


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

    @pytest.mark.parametrize("model", models.MODEL_NAMES)
    def test_rejects_image_and_level_set_on_different_spacings(self, model):
        u0 = normalized_disk()
        phi0 = ScalarField(signed_distance(InitShape.circle(32, 32, 10), 64, 64).data,
                           spacing=0.25)
        with pytest.raises(ValueError, match="grids differ"):
            evolve(model, u0, phi0, EvolveParams(max_iters=2))

    @pytest.mark.parametrize("model", models.MODEL_NAMES)
    def test_steps_at_the_bound_of_its_grid(self, model):
        u0 = ScalarField(normalized_disk().data, spacing=0.5)
        phi0 = ScalarField(signed_distance(InitShape.circle(32, 32, 10), 64, 64).data,
                           spacing=0.5)
        params = EvolveParams(max_iters=2)
        assert evolve(model, u0, phi0, params).dt_used == stability_dt(params, model, 0.5)

    @pytest.mark.parametrize("model", models.MODEL_NAMES)
    @pytest.mark.parametrize("max_iters", [0, 30])
    def test_phi0_is_read_only_and_not_shared(self, model, max_iters):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle(30, 33, 8), 64, 64)
        before = phi0.data.tobytes()
        res = evolve(model, u0, phi0,
                     EvolveParams(max_iters=max_iters, reinit_every=10, stop_tol=0.0))
        assert res.iterations_run == max_iters
        assert phi0.data.tobytes() == before
        assert not np.shares_memory(res.phi_final.data, phi0.data)

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

    def test_defaults_segment_a_normalized_image(self):
        # the data terms of [0, 1] input are at most 1, so the default length
        # weight must leave them room to move the contour onto the discs
        n = 64
        y, x = np.mgrid[0:n, 0:n].astype(float)
        truth = (np.hypot(x - 19.2, y - 22.4) <= 9.6) | (np.hypot(x - 43.5, y - 39.7) <= 12.8)
        u = np.where(truth, 0.8, 0.1) + np.random.default_rng(5).normal(0.0, 0.08, (n, n))
        u = (u - u.min()) / (u.max() - u.min())
        phi0 = signed_distance(default_seed_grid(n, n), n, n)
        res = evolve("modified", ScalarField(u), phi0, EvolveParams())
        assert res.stop_reason == "converged"
        assert iou(res.mask, truth) >= 0.95

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", ["chan_vese", "modified", "geodesic"])
    def test_stalled_on_a_saddle_whose_corners_sum_past_the_largest_float(self, model):
        # the run stops at the first step; the final contour, traced after
        # the loop's errstate block, resolves the saddle without an overflow
        phi = np.full((8, 8), -1.0)
        phi[3, 3] = phi[4, 4] = 1.7e308
        u0 = normalized_disk(8, 8, 3.5, 3.5, 2.0)
        res = evolve(model, u0, ScalarField(phi), EvolveParams(mu=0.2, max_iters=30))
        assert res.stop_reason == "stalled"
        assert "non-finite at iteration 1" in res.diagnostics
        assert res.contour.closed == [True]

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
        # this run at iteration 9. The disc's edges cover under a tenth of
        # the 96^2 pixels, so the edge image is unscaled (_edge_image)
        u0 = normalized_disk(96, 96, 48.0, 48.0, 10.0)
        res = evolve("geodesic", u0, grown_start(u0.data > 0.0), EvolveParams(max_iters=15))
        assert res.stop_reason == "max_iters"
        assert res.iterations_run == 15

    def test_default_start_reaches_a_disc_no_seed_circle_touches(self):
        # the 4 x 4 circles of radius 12.8 on 128^2 leave (32, 32) 22.6 px
        # from the nearest centre; from them the run converged with nothing
        # of the disc inside. The periodic default has a zero level within
        # 2.5 px of every pixel
        u0 = normalized_disk(128, 128, 32.0, 32.0, 7.0)
        truth = u0.data > 0.5
        for cx, cy in InitShape.circle_grid(4, 4, 12.8, 128, 128).centers:
            assert np.hypot(cx - 32.0, cy - 32.0) > 12.8 + 7.0
        phi0 = signed_distance(default_seed_grid(128, 128), 128, 128)
        res = evolve("modified", u0, phi0, EvolveParams(mu=0.2, max_iters=1500))
        assert res.stop_reason == "converged"
        assert res.iterations_run < 300
        assert iou(res.mask, truth) >= 0.95

    def test_determinism(self):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle_grid(2, 2, 7, 64, 64), 64, 64)
        params = EvolveParams(mu=1.0, max_iters=40)
        r1 = evolve("chan_vese", u0, phi0, params)
        r2 = evolve("chan_vese", u0, phi0, params)
        assert np.array_equal(r1.phi_final.data, r2.phi_final.data)
        assert np.array_equal(r1.mask, r2.mask)
        assert r1.energy_trace == r2.energy_trace

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

    def test_concurrent_large_runs_share_the_slab_workers(self, monkeypatch):
        # at 512^2 each run splits its passes into four row slabs, and the
        # four runs share grid's three workers: a run that finds none idle
        # runs the slab itself. The bits must be those of runs one by one.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from levelseg import grid

        monkeypatch.setattr(grid, "_cpu_count", lambda: 4)
        u0 = normalized_disk(512, 512, 256.0, 256.0, 90.0)
        jobs = [(model, signed_distance(InitShape.circle(256, 256, r), 512, 512))
                for model, r in (("chan_vese", 110), ("modified", 80),
                                 ("geodesic", 100), ("modified", 120))]
        params = EvolveParams(mu=0.5, max_iters=12, reinit_every=5, stop_tol=0.0)
        expected = [evolve(model, u0, phi0, params).phi_final.data for model, phi0 in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [pool.submit(evolve, model, u0, phi0, params) for model, phi0 in jobs]
                results = [f.result(timeout=120) for f in futures]
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


class TestEdgeImage:
    """The geodesic image: G*u0 divided by its gradient level beta."""

    def test_flow_stops_at_the_edges(self):
        # unscaled, g stays near 1 on [0, 1] input and this run ends
        # max_iters at IoU ~0.59
        u0, truth = three_disc_image()
        res = evolve("geodesic", u0, grown_start(truth), EvolveParams(mu=0.2, max_iters=400))
        score = iou(res.mask, truth)
        print(f"geodesic from the grown truth: IoU {score:.4f} after "
              f"{res.iterations_run} iterations ({res.stop_reason})")
        assert res.stop_reason == "converged"
        assert score >= 0.98
        # the advection term <grad g, grad phi> moves the zero level by at
        # most dt * max|grad g| px per step, with |grad phi| ~ 1
        edge = _edge_image(u0, Scratch(u0.data.shape))
        g = edge_detector(gradient_magnitude(edge.data))
        assert res.dt_used * magnitude(*gradient(g)).max() < 0.5

    def test_contrast_does_not_change_the_run(self):
        # a power-of-two factor passes exactly through the smoothing, the
        # gradients, the percentile and the division by beta
        u0, truth = three_disc_image()
        params = EvolveParams(mu=0.2, max_iters=60, stop_tol=0.0)
        runs = [evolve("geodesic", u, grown_start(truth), params).phi_final.data
                for u in (u0, u0.like(0.5 * u0.data))]
        assert runs[0].tobytes() == runs[1].tobytes()

    def test_gradient_level_is_one(self):
        u0, _ = three_disc_image()
        edge = _edge_image(u0, Scratch(u0.data.shape))
        level = np.percentile(gradient_magnitude(edge.data), EDGE_PERCENTILE)
        assert level == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("image", [
        np.full((128, 128), 0.5),
        # edges on ~7 % of the pixels: the 90th percentile of |grad| is 0
        normalized_disk(128, 128, 64.0, 64.0, 25.0).data,
    ], ids=["constant", "clean_disc"])
    def test_unscaled_without_a_gradient_level(self, image):
        u0 = ScalarField(image)
        edge = _edge_image(u0, Scratch(image.shape))
        assert edge.data.tobytes() == gaussian_smooth(u0).data.tobytes()


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
        (h_keys, h_t, _), (v_keys, v_t, _) = edge_crossings(self.ramp(2.3))
        assert np.array_equal(h_keys, np.arange(5) * 6 + 2)
        assert np.allclose(h_t, 0.3)
        assert len(v_keys) == 0 and len(v_t) == 0

    def test_motion_is_mean_shift_in_px(self):
        assert _interface_motion(edge_crossings(self.ramp(2.3)),
                                 edge_crossings(self.ramp(2.5))) \
            == pytest.approx(0.2)
        assert _interface_motion(edge_crossings(self.ramp(2.3)),
                                 edge_crossings(self.ramp(2.3))) == 0.0

    def test_crossing_that_changes_edge_counts_one_px(self):
        # every crossing leaves its edge for the next one: 5 vanish, 5 appear
        assert _interface_motion(edge_crossings(self.ramp(2.3)),
                                 edge_crossings(self.ramp(3.2))) == 1.0

    def test_no_contour_is_still(self):
        flat = np.ones((5, 6))
        assert _interface_motion(edge_crossings(flat), edge_crossings(flat)) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_crossings_near_the_largest_float_sit_halfway(self):
        # phi_a - phi_b of a +-1.7e308 disk is beyond the largest float; the
        # halved values are not, so every crossing is halfway along its edge
        sdf = signed_distance(InitShape.circle(32, 32, 10), 64, 64).data
        phi = np.where(sdf >= 0.0, 1.7e308, -1.7e308)
        for keys, t, _ in edge_crossings(phi):
            assert len(keys) > 0 and np.all(t == 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, b", [(0.0, -5e-324), (-5e-324, 0.0)])
    def test_zero_next_to_the_smallest_subnormal_crosses_at_zero(self, a, b):
        # halving rounds -5e-324 to -0, so both halves of the edge are 0 and
        # t = 0/0; the crossing is taken at pixel a instead of NaN
        phi = np.full((4, 4), -1.0)
        phi[1, 1], phi[1, 2] = a, b
        (h_keys, h_t, _), _ = edge_crossings(phi)
        assert np.all(np.isfinite(h_t))
        assert h_t[list(h_keys).index(5)] == 0.0
        assert np.all(np.isfinite(extract_contour(ScalarField(phi)).vertices()))


class TestOneStencil:
    @pytest.mark.parametrize("model", ["chan_vese", "modified", "geodesic"])
    def test_each_step_calls_the_curvature_of_models_once(self, monkeypatch, model):
        # the stencil runs under the name the benchmark times it by
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return curvature(*args, **kwargs)

        monkeypatch.setattr(models, "curvature", counted)
        phi0 = signed_distance(InitShape.circle(32, 32, 14), 64, 64)
        res = evolve(model, normalized_disk(), phi0,
                     EvolveParams(mu=0.2, stop_tol=0.0, max_iters=7, reinit_every=3))
        assert res.iterations_run == 7
        assert calls == [(64, 64)] * 7


class TestSharedKeys:
    @staticmethod
    def reference(keys0, keys1):
        return np.intersect1d(keys0, keys1, assume_unique=True, return_indices=True)[1:]

    @staticmethod
    def keys(rng, n, top):
        return np.flatnonzero(rng.random(top) < n / top)

    def test_equals_intersect1d_bytewise(self):
        # the stop rule pairs two iterations' edges by gathering each one's
        # keys through the other's crossed mask, built here from the keys
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
            crossed0, crossed1 = np.zeros(400, dtype=bool), np.zeros(400, dtype=bool)
            crossed0[keys0], crossed1[keys1] = True, True
            got = np.flatnonzero(crossed1[keys0]), np.flatnonzero(crossed0[keys1])
            want = self.reference(keys0, keys1)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def searched_motion(phi0, phi1):
    """The stop rule's motion as it was before the crossed masks: row-end
    edges dropped by their keys' column, and the edges crossed both times
    found by binary search."""
    def crossings(phi):
        flat, width = phi.ravel(), phi.shape[1]
        inside = flat >= 0.0
        found = []
        for step in (1, width):
            keys = np.flatnonzero(inside[:-step] != inside[step:])
            if step == 1:
                keys = keys[keys % width != width - 1]
            a = flat[keys] * 0.5
            gap = a - flat[keys + step] * 0.5
            found.append((keys, np.divide(a, gap, out=np.zeros_like(a), where=gap != 0.0)))
        return found

    moved, edges = 0.0, 0
    for (keys0, t0), (keys1, t1) in zip(crossings(phi0), crossings(phi1)):
        i0 = np.searchsorted(keys0, keys1)
        found = i0 < len(keys0)
        found[found] = keys0[i0[found]] == keys1[found]
        i1 = np.flatnonzero(found)
        i0 = i0[i1]
        once = len(keys0) + len(keys1) - 2 * len(i0)
        moved += float(np.abs(t1[i1] - t0[i0]).sum()) + once
        edges += len(i0) + once
    return moved / edges if edges else 0.0


def motion_pair(case):
    rng = np.random.default_rng(9)
    if case == "periodic start, one step":
        phi0 = signed_distance(default_seed_grid(64, 64), 64, 64)
        res = evolve("modified", normalized_disk(), phi0, EvolveParams(mu=0.2, max_iters=1))
        return phi0.data, res.phi_final.data
    if case == "shifted circles":
        circles = InitShape.circle_grid(2, 2, 6.3, 48, 40)
        shifted = InitShape("circles", tuple((x + 0.37, y - 0.21) for x, y in circles.centers),
                            circles.radius)
        return signed_distance(circles, 48, 40).data, signed_distance(shifted, 48, 40).data
    if case == "noise with zeros":
        # halves on a coarse scale: many exact zeros, inside by the sign rule
        return (np.round(rng.normal(size=(40, 48)) * 2.0) / 2.0,
                np.round(rng.normal(size=(40, 48)) * 2.0) / 2.0)
    if case == "uniform sign":
        return np.ones((6, 7)), -np.ones((6, 7))
    if case == "row ends":
        # each row's last pixel inside, the next row's first outside; then
        # the first column inside as well
        phi0 = -np.ones((6, 7))
        phi0[:, -1] = 1.0
        phi1 = phi0.copy()
        phi1[:, 0] = 0.25
        return phi0, phi1
    phi0 = np.full((4, 4), -1.0)  # smallest subnormal next to a zero
    phi1 = phi0.copy()
    phi0[1, 1], phi0[1, 2] = 0.0, -5e-324
    phi1[1, 1], phi1[1, 2] = -5e-324, 0.0
    return phi0, phi1


class TestMaskedPairing:
    @pytest.mark.parametrize("case", ["periodic start, one step", "shifted circles",
                                      "noise with zeros", "uniform sign", "row ends",
                                      "smallest subnormal"])
    def test_equals_the_searched_motion_bit_for_bit(self, case):
        phi0, phi1 = motion_pair(case)
        for a, b in ((phi0, phi1), (phi1, phi0), (phi0, phi0)):
            got = _interface_motion(edge_crossings(a), edge_crossings(b))
            assert got.hex() == searched_motion(a, b).hex()

    def test_row_ends_stay_uncrossed(self):
        phi0, phi1 = motion_pair("row ends")
        for phi in (phi0, phi1):
            (keys, _, crossed), _ = edge_crossings(phi)
            assert not crossed[6::7].any() and not np.any(keys % 7 == 6)
        # the 6 edges into the last column stay, and 6 from the first column appear
        assert _interface_motion(edge_crossings(phi0), edge_crossings(phi1)) == 6 / 12


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
        # as the run builds them: u0 and H in float32, summed in float64
        u = u0.data.astype(np.float32).astype(np.float64)
        H32 = heaviside_eps(phi0.data, params.eps, out=np.empty(phi0.data.shape, np.float32))
        H, not_H = H32.astype(np.float64), (1.0 - H32).astype(np.float64)
        c1 = (u * H).sum() / H.sum()
        c2 = (u * not_H).sum() / not_H.sum()
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
        # and H rounds to exactly 1, so the outside weight sum is 0
        res = evolve("chan_vese", u0, phi0.like(-phi0.data), EvolveParams(max_iters=0))
        assert res.stats_final.empty_outside and not res.stats_final.empty_inside
        assert res.stats_final.c2 == pytest.approx(u0.data.mean())


class TestTraceRows:
    def test_modified_records_alpha_target(self):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        params = EvolveParams(alpha=0.7, max_iters=2, stop_tol=0.0)
        res = evolve("modified", u0, phi0, params)
        assert res.energy_trace[0].c_inside == pytest.approx(0.7 * 1.0)

    def test_rows_carry_the_motion_that_stopped_the_run(self):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle(32, 32, 14), 64, 64)
        params = EvolveParams(mu=0.2)
        res = evolve("modified", u0, phi0, params)
        assert res.stop_reason == "converged"
        trace = res.energy_trace
        assert trace[0].moved is None
        assert all(row.moved < params.stop_tol for row in trace[-STOP_WINDOW:])
        assert not trace[-STOP_WINDOW - 1].moved < params.stop_tol

    @pytest.mark.parametrize("model", ["chan_vese", "geodesic"])
    def test_rows_count_the_inside_and_the_crossings(self, model):
        u0 = normalized_disk()
        phi0 = signed_distance(InitShape.circle(30, 33, 15), 64, 64)
        res = evolve(model, u0, phi0, EvolveParams(mu=0.2, max_iters=8, stop_tol=0.0))
        first, last = res.energy_trace[0], res.energy_trace[-1]
        assert first.n_inside == np.count_nonzero(phi0.data >= 0.0)
        assert first.crossings == len(extract_contour(phi0).vertices())
        # every crossing is a vertex of exactly one loop of the contour
        assert last.n_inside == res.stats_final.n_inside == np.count_nonzero(res.mask)
        assert last.crossings == len(res.contour.vertices())
        assert first.n_inside != last.n_inside


class TestToJson:
    def report(self, model, phi0, params, u0=None):
        res = evolve(model, normalized_disk() if u0 is None else u0, phi0, params)
        return res, json.loads(res.to_json())

    def test_fields_leave_out_phi_final(self):
        phi0 = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        res, report = self.report("chan_vese", phi0, EvolveParams(max_iters=3))
        assert set(report) == {"stop_reason", "iterations_run", "dt_used", "diagnostics",
                               "stats_final", "energy_trace", "contour"}
        assert report["stop_reason"] == res.stop_reason
        assert report["iterations_run"] == res.iterations_run == 3
        assert report["diagnostics"] is None

    def test_geodesic_rows_have_no_region_constants(self):
        phi0 = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        _, report = self.report("geodesic", phi0, EvolveParams(max_iters=3, stop_tol=0.0))
        first = report["energy_trace"][0]
        assert first["iteration"] == 0 and first["event"] == "step"
        assert first["c_inside"] is None and first["c_outside"] is None

    def test_modified_rows_carry_alpha_target(self):
        phi0 = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        params = EvolveParams(alpha=0.7, max_iters=2, stop_tol=0.0)
        _, report = self.report("modified", phi0, params)
        assert [row["c_inside"] for row in report["energy_trace"]] == [0.7 * 1.0] * 3

    def test_phi_of_one_sign_has_no_loops(self):
        phi0 = ScalarField(np.full((64, 64), -5.0))
        _, report = self.report("chan_vese", phi0, EvolveParams(max_iters=0))
        assert report["contour"] == {"loops": [], "closed": []}

    @pytest.mark.parametrize("model", ["chan_vese", "modified", "geodesic"])
    def test_stalled_run_reports_nan_energy(self, model):
        sdf = signed_distance(InitShape.circle(32, 32, 10), 64, 64).data
        phi0 = ScalarField(np.where(sdf >= 0.0, 1.7e308, -1.7e308))
        _, report = self.report(model, phi0, EvolveParams(mu=0.2, max_iters=30))
        assert report["stop_reason"] == "stalled"
        assert "non-finite at iteration 1" in report["diagnostics"]
        assert np.isnan(report["energy_trace"][0]["energy"])

    @pytest.mark.parametrize("model", ["modified", "geodesic"])
    def test_rows_and_loops_round_trip_bit_equal(self, model):
        u0, _ = three_disc_image()
        phi0 = signed_distance(default_seed_grid(128, 128), 128, 128)
        params = EvolveParams(mu=0.2, max_iters=25, reinit_every=10)
        res, report = self.report(model, phi0, params, u0)
        assert [TraceEntry(**row) for row in report["energy_trace"]] == res.energy_trace
        assert RegionStats(**report["stats_final"]) == res.stats_final
        assert report["dt_used"] == res.dt_used
        loops, closed = report["contour"]["loops"], report["contour"]["closed"]
        assert len(loops) == len(res.contour) > 0 and closed == res.contour.closed
        for loop, expected in zip(loops, res.contour.loops):
            assert np.array(loop).tobytes() == expected.tobytes()
