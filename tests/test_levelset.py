"""Signed-distance initializers, reinitialization, and contour extraction."""

import numpy as np
import pytest

from levelseg.grid import Scratch, gradient_magnitude
from levelseg.levelset import (
    PERIOD,
    Contour,
    InitShape,
    default_seed_grid,
    edge_crossings,
    extract_contour,
    mask_inside,
    reinitialize,
    signed_distance,
)

from helpers import circle_points, hausdorff


class TestSignedDistance:
    def test_circle_center_value(self):
        phi = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        assert phi.data[32, 32] == pytest.approx(10.0)

    def test_circle_outside_value(self):
        phi = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        # (x=32, y=52) is 20 px from the center, 10 px beyond the boundary
        assert phi.data[52, 32] == pytest.approx(-10.0)

    def test_circle_gradient_is_unit(self):
        phi = signed_distance(InitShape.circle(32, 32, 10), 64, 64)
        mag = gradient_magnitude(phi.data, phi.spacing)
        x, y = np.meshgrid(np.arange(64.0), np.arange(64.0))
        dist = np.hypot(x - 32, y - 32)
        away = (dist > 2.0) & (np.abs(dist - 10.0) > 2.0)
        ok = np.abs(mag[away] - 1.0) < 0.05
        assert ok.mean() >= 0.95

    def test_grid_is_pointwise_max(self):
        shape = InitShape.circle_grid(2, 2, 6, 64, 64)
        phi = signed_distance(shape, 64, 64).data
        singles = [
            signed_distance(InitShape.circle(cx, cy, 6), 64, 64).data
            for cx, cy in shape.centers
        ]
        assert np.array_equal(phi, np.max(singles, axis=0))

    def test_one_circle_is_a_one_by_one_grid(self):
        circle = InitShape.circle(30, 21, 7.5)
        grid = InitShape.circle_grid(1, 1, 7.5, 60, 42)
        assert circle == grid
        assert (signed_distance(circle, 64, 48).data.tobytes()
                == signed_distance(grid, 64, 48).data.tobytes())

    @pytest.mark.parametrize("nx, ny", [(0, 2), (2, 0), (2.5, 2), (2, 2.0), (True, 2)])
    def test_circle_grid_rejects_counts_that_are_not_integers_from_1(self, nx, ny):
        with pytest.raises(ValueError):
            InitShape.circle_grid(nx, ny, 4, 64, 64)

    # each side of the margin alone, and the corner the left side catches first
    @pytest.mark.parametrize("cx, cy", [(10, 10), (9, 32), (32, 9), (55, 32), (32, 55)],
                             ids=["top-left", "left", "top", "right", "bottom"])
    def test_rejects_border_touch(self, cx, cy):
        with pytest.raises(ValueError, match=rf"circle \({cx}\.0, {cy}\.0\) of radius 9\.0"):
            signed_distance(InitShape.circle(cx, cy, 9), 64, 64)

    @pytest.mark.parametrize("shape, match", [
        (InitShape.circle(np.nan, 20, 5), r"circle \(nan, 20\.0\)"),
        (InitShape.circle(20, np.nan, 5), r"circle \(20\.0, nan\)"),
        (InitShape.circle(np.inf, 20, 5), r"circle \(inf, 20\.0\)"),
        (InitShape.circle(20, -np.inf, 5), r"circle \(20\.0, -inf\)"),
        (InitShape.circle(20, 20, np.nan), r"circle radius .* got nan"),
        (InitShape.circle(20, 20, np.inf), r"circle radius .* got inf"),
        (InitShape.circle(20, 20, 0), r"circle radius .* got 0\.0"),
        (InitShape("circles", (), 5.0), r"needs at least one centre"),
        (InitShape("rect"), r"unknown init shape kind: 'rect'"),
    ], ids=["nan-cx", "nan-cy", "inf-cx", "minus-inf-cy", "nan-radius", "inf-radius",
            "zero-radius", "no-centres", "rect-kind"])
    def test_rejects_shapes_that_cannot_be_drawn(self, shape, match):
        with pytest.raises(ValueError, match=match):
            signed_distance(shape, 40, 40)

    @pytest.mark.parametrize("shape", [InitShape("periodic"), InitShape.circle(20, 20, 5)],
                             ids=["periodic", "circle"])
    @pytest.mark.parametrize("width, height, match", [
        (-5, 64, r"width must be an integer >= 3, got -5"),
        (64, 0, r"height must be an integer >= 3, got 0"),
        (2, 64, r"width must be an integer >= 3, got 2"),
        (64.5, 64, r"width must be an integer >= 3, got 64\.5"),
        (64, 40.0, r"height must be an integer >= 3, got 40\.0"),
        (True, 64, r"width must be an integer >= 3, got True"),
    ], ids=["negative-width", "zero-height", "width-2", "float-width", "whole-float-height",
            "bool-width"])
    def test_rejects_sizes_that_are_not_counts(self, shape, width, height, match):
        with pytest.raises(ValueError, match=match):
            signed_distance(shape, width, height)

    def test_one_lipschitz(self):
        phi = signed_distance(InitShape.circle_grid(3, 3, 5, 60, 60), 60, 60).data
        rng = np.random.default_rng(9)
        idx = rng.integers(0, 60, size=(200, 4))
        for y1, x1, y2, x2 in idx:
            lhs = abs(phi[y1, x1] - phi[y2, x2])
            assert lhs <= np.hypot(x1 - x2, y1 - y2) + 1e-9

    def test_default_seed_grid(self):
        shape = default_seed_grid(128, 128)
        assert shape == InitShape("periodic")
        signed_distance(shape, 128, 128)  # needs no margin

    @pytest.mark.parametrize("width, height", [(64, 64), (100, 100), (64, 200), (300, 90)])
    def test_default_seed_grid_fits_small_grids(self, width, height):
        shape = default_seed_grid(width, height)
        assert shape.kind == "periodic"
        assert signed_distance(shape, width, height).data.shape == (height, width)

    def test_default_seed_grid_too_small(self):
        # the periodic default has no size floor
        signed_distance(default_seed_grid(24, 24), 24, 24)


class TestPeriodicInit:
    """phi0 = (p/pi) sin(pi x/p) sin(pi y/p), the region models' default start."""

    SIZES = pytest.mark.parametrize("width, height", [(3, 3), (24, 24), (300, 90)])

    @SIZES
    def test_bounded_by_period_over_pi(self, width, height):
        phi = signed_distance(default_seed_grid(width, height), width, height).data
        assert phi.shape == (height, width)
        assert np.all(np.abs(phi) <= PERIOD / np.pi)

    @SIZES
    def test_one_lipschitz(self, width, height):
        phi = signed_distance(default_seed_grid(width, height), width, height).data
        rng = np.random.default_rng(width * height)
        idx = rng.integers(0, [height, width, height, width], size=(400, 4))
        for y1, x1, y2, x2 in idx:
            lhs = abs(phi[y1, x1] - phi[y2, x2])
            assert lhs <= np.hypot(x1 - x2, y1 - y2) + 1e-9
        # neighbours, where the bound is tightest
        assert np.all(np.abs(np.diff(phi, axis=0)) <= 1.0)
        assert np.all(np.abs(np.diff(phi, axis=1)) <= 1.0)

    @pytest.mark.parametrize("width, height", [(24, 24), (300, 90)])
    def test_both_signs(self, width, height):
        inside = mask_inside(signed_distance(default_seed_grid(width, height), width, height).data)
        assert inside.any() and not inside.all()

    def test_zero_level_on_every_fifth_line(self):
        phi = signed_distance(default_seed_grid(24, 24), 24, 24).data
        assert np.all(np.abs(phi[::5]) < 1e-14)
        assert np.all(np.abs(phi[:, ::5]) < 1e-14)
        assert phi[2, 2] == pytest.approx(5.0 / np.pi * np.sin(0.4 * np.pi) ** 2)


class TestMaskInside:
    def test_uniform_fields(self):
        plus = np.full((8, 8), 1.0)
        minus = np.full((8, 8), -1.0)
        assert mask_inside(plus).all()
        assert not mask_inside(minus).any()

    def test_disk_area(self):
        phi = signed_distance(InitShape.circle(32, 32, 10), 64, 64).data
        count = mask_inside(phi).sum()
        assert abs(count - np.pi * 100.0) <= 0.03 * np.pi * 100.0

    def test_partition(self):
        rng = np.random.default_rng(2)
        phi = rng.normal(size=(16, 16))
        inside = mask_inside(phi)
        flipped = mask_inside(-phi)
        both = inside & flipped
        assert (inside | flipped).all()
        assert np.array_equal(both, phi == 0.0)


def extract_contour_reference(phi: np.ndarray) -> Contour:
    """The marching-squares walk as first written, over a dict of neighbour
    lists built cell by cell; extract_contour must give the same loops, in
    the same order, with the same vertex bytes and closed flags."""
    segments = {
        0: [], 15: [],
        1: [(3, 0)], 14: [(3, 0)],
        2: [(0, 1)], 13: [(0, 1)],
        4: [(1, 2)], 11: [(1, 2)],
        8: [(2, 3)], 7: [(2, 3)],
        3: [(3, 1)], 12: [(3, 1)],
        6: [(0, 2)], 9: [(0, 2)],
    }
    d = phi
    h, w = d.shape
    inside = d >= 0.0
    if inside.all() or not inside.any():
        return Contour()
    (h_keys, h_t, _), (v_keys, v_t, _) = edge_crossings(d)
    ids = np.concatenate((h_keys, v_keys + h * w))
    points = np.empty((len(ids), 2))
    points[:len(h_keys), 0] = h_keys % w + h_t
    points[:len(h_keys), 1] = h_keys // w
    points[len(h_keys):, 0] = v_keys % w
    points[len(h_keys):, 1] = v_keys // w + v_t
    cell = (
        inside[:-1, :-1].astype(np.uint8)
        | inside[:-1, 1:].astype(np.uint8) << 1
        | inside[1:, 1:].astype(np.uint8) << 2
        | inside[1:, :-1].astype(np.uint8) << 3
    )
    ys, xs = np.nonzero((cell != 0) & (cell != 15))
    links: dict = {}

    def link(k1, k2):
        links.setdefault(k1, []).append(k2)
        links.setdefault(k2, []).append(k1)

    for y, x in zip(ys.tolist(), xs.tolist()):
        case = int(cell[y, x])
        if case in (5, 10):
            center = 0.25 * (d[y, x] + d[y, x + 1] + d[y + 1, x + 1] + d[y + 1, x])
            if case == 5:
                pairs = [(0, 1), (2, 3)] if center >= 0 else [(3, 0), (1, 2)]
            else:
                pairs = [(3, 0), (1, 2)] if center >= 0 else [(0, 1), (2, 3)]
        else:
            pairs = segments[case]
        k = y * w + x
        edges = (k, h * w + k + 1, k + w, h * w + k)
        for e1, e2 in pairs:
            link(edges[e1], edges[e2])

    seen = set()
    loops, closed = [], []
    for start in sorted(links, key=lambda k: len(links[k])):
        if start in seen:
            continue
        seen.add(start)
        chain = [start]
        while nexts := [k for k in links[chain[-1]] if k not in seen]:
            seen.add(nexts[0])
            chain.append(nexts[0])
        loops.append(points[np.searchsorted(ids, chain)])
        closed.append(len(links[start]) == 2)
    return Contour(loops=loops, closed=closed)


def assert_same_contour(phi: np.ndarray) -> None:
    contour, expected = extract_contour(phi), extract_contour_reference(phi)
    assert [loop.tobytes() for loop in contour.loops] == [loop.tobytes() for loop in expected.loops]
    assert contour.closed == expected.closed


class TestExtractContour:
    def test_circle_radius(self):
        phi = signed_distance(InitShape.circle(32, 32, 10), 64, 64).data
        contour = extract_contour(phi)
        assert len(contour) == 1
        radii = np.hypot(*(contour.loops[0] - np.array([32.0, 32.0])).T)
        assert abs(radii.mean() - 10.0) <= 0.2

    def test_circle_vertices_near_analytic(self):
        phi = signed_distance(InitShape.circle(32, 32, 10), 64, 64).data
        verts = extract_contour(phi).vertices()
        dist = np.abs(np.hypot(verts[:, 0] - 32.0, verts[:, 1] - 32.0) - 10.0)
        assert dist.max() < 0.5

    def test_uniform_sign_empty(self):
        assert extract_contour(np.full((8, 8), 2.0)).empty
        assert extract_contour(np.full((8, 8), -2.0)).empty

    def test_negation_same_vertices(self):
        # same zero set; orientation and duplicate handling may differ, in
        # particular where phi is exactly zero on a grid point, so compare
        # the vertex sets
        phi = signed_distance(InitShape.circle_grid(2, 2, 6, 48, 48), 48, 48).data
        v1 = extract_contour(phi).vertices()
        v2 = extract_contour(-phi).vertices()
        s1 = set(map(tuple, np.round(v1, 9)))
        s2 = set(map(tuple, np.round(v2, 9)))
        assert s1 == s2

    def test_vertices_interpolate_to_zero(self):
        d = signed_distance(InitShape.circle(20, 22, 9.3), 44, 44).data
        contour = extract_contour(d)
        for x, y in contour.vertices():
            x0, y0 = int(np.floor(x)), int(np.floor(y))
            fx, fy = x - x0, y - y0
            if fx > 0:  # vertex on a horizontal edge
                val = (1 - fx) * d[y0, x0] + fx * d[y0, x0 + 1]
            else:
                val = (1 - fy) * d[y0, x0] + fy * d[y0 + 1, x0]
            assert abs(val) < 1e-9

    @pytest.mark.parametrize("field", ["circles", "corner pixel", "noise"])
    def test_vertices_are_the_edge_crossings(self, field):
        # the contour and the solver's stop rule place a crossing by one rule,
        # and every crossing is a vertex of one chain, also of a 2-vertex chain
        # around a lone inside pixel in a grid corner
        if field == "circles":
            phi = signed_distance(InitShape.circle_grid(2, 2, 6.3, 48, 40), 48, 40).data
        elif field == "corner pixel":
            phi = np.full((5, 5), -1.0)
            phi[0, 0] = 1.0
        else:
            phi = np.random.default_rng(2).normal(size=(40, 48))
        w = phi.shape[1]
        (h_keys, h_t, _), (v_keys, v_t, _) = edge_crossings(phi)
        expected = sorted([(k % w + t, k // w) for k, t in zip(h_keys, h_t)]
                          + [(k % w, k // w + t) for k, t in zip(v_keys, v_t)])
        assert sorted(map(tuple, extract_contour(phi).vertices().tolist())) == expected

    @pytest.mark.filterwarnings("error")
    def test_saddle_centre_near_the_largest_float(self):
        # the saddle's corners sum past the largest float; their quarters do not
        phi = np.full((8, 8), -1.0)
        phi[3, 3] = phi[4, 4] = 1.7e308
        contour = extract_contour(phi)
        assert contour.closed == [True]
        assert len(contour.loops[0]) == 8  # one loop around both pixels

    def test_grid_of_circles_yields_loops(self):
        phi = signed_distance(InitShape.circle_grid(2, 2, 6, 64, 64), 64, 64).data
        contour = extract_contour(phi)
        assert len(contour.loops) == 4
        assert all(contour.closed)

    def test_border_chain_is_open_and_walked_first(self):
        x = np.arange(20, dtype=float)
        phi = signed_distance(InitShape.circle(13, 8, 4), 20, 16).data
        phi = np.maximum(phi, 4.5 - x)  # inside band along the left border
        contour = extract_contour(phi)
        assert contour.closed == [False, True]
        line, loop = contour.loops
        assert np.all(line[:, 0] == 4.5)
        assert np.all(np.abs(np.diff(line[:, 1])) == 1.0)  # one vertex per row, in order
        steps = np.hypot(*np.diff(np.vstack([loop, loop[:1]]), axis=0).T)
        assert steps.max() <= np.sqrt(2.0)  # consecutive vertices share a cell

    @pytest.mark.parametrize("chunk", range(3))
    def test_equals_the_reference_walk_on_random_fields(self, chunk):
        # 100 fields per chunk; in every third, some pixels are exactly 0
        rng = np.random.default_rng(chunk)
        for i in range(100):
            height, width = rng.integers(3, 41, size=2)
            d = rng.normal(size=(height, width))
            if i % 3 == 0:
                d[rng.random(d.shape) < 0.3] = 0.0
            assert_same_contour(d)

    @pytest.mark.parametrize("n, start", [(256, "circles"), (128, "periodic"),
                                          (256, "periodic"), (512, "periodic")])
    def test_equals_the_reference_walk_on_the_starts(self, n, start):
        shape = (InitShape.circle_grid(4, 4, n / 10, n, n) if start == "circles"
                 else default_seed_grid(n, n))
        assert_same_contour(signed_distance(shape, n, n).data)


def reinitialize_reference(d0: np.ndarray, iterations: int, h: float = 1.0) -> np.ndarray:
    """The Godunov sweep as first written, with padded copies and both
    one-sided differences; reinitialize must give the same bits."""
    sign = d0 / np.sqrt(d0 * d0 + h * h)
    positive = d0 > 0
    negative = d0 < 0
    d = d0.copy()
    dt = 0.5 * h
    for _ in range(iterations):
        p = np.pad(d, 1, mode="edge")
        bx = (d - p[1:-1, :-2]) / h
        fx = (p[1:-1, 2:] - d) / h
        by = (d - p[:-2, 1:-1]) / h
        fy = (p[2:, 1:-1] - d) / h
        g_pos = np.sqrt(
            np.maximum(np.maximum(bx, 0.0) ** 2, np.minimum(fx, 0.0) ** 2)
            + np.maximum(np.maximum(by, 0.0) ** 2, np.minimum(fy, 0.0) ** 2)
        )
        g_neg = np.sqrt(
            np.maximum(np.minimum(bx, 0.0) ** 2, np.maximum(fx, 0.0) ** 2)
            + np.maximum(np.minimum(by, 0.0) ** 2, np.maximum(fy, 0.0) ** 2)
        )
        grad = np.where(positive, g_pos, np.where(negative, g_neg, 0.0))
        d = d - dt * sign * (grad - 1.0)
    return d


class TestReinitialize:
    # 5x9 and 9x5 have short rows, or fewer rows than columns, for the
    # x-differences that run over the flattened rows
    @pytest.mark.parametrize("height, width, spacing", [
        (3, 3, 1.0), (7, 11, 0.37), (64, 200, 2.5), (40, 24, 2.0), (5, 9, 0.5), (9, 5, 0.5),
    ])
    def test_equals_the_reference_sweep_bit_for_bit(self, height, width, spacing):
        rng = np.random.default_rng(height + width)
        d = rng.normal(size=(height, width)) * 3.0
        d[rng.random(d.shape) < 0.1] = 0.0  # pixels on the zero level
        d[0, 0] = -0.0
        expected = reinitialize_reference(d, 12, spacing).tobytes()
        assert reinitialize(d, 12, spacing).tobytes() == expected
        scratch = Scratch(d.shape)
        assert reinitialize(d, 12, spacing, scratch=scratch).tobytes() == expected
        # a set reused for another phi keeps nothing of it
        reinitialize(5.0 - 2.0 * d, 3, spacing, scratch=scratch)
        out = reinitialize(d, 12, spacing, scratch=scratch)
        assert out.tobytes() == expected
        assert not any(np.shares_memory(out, work) for work in scratch.arrays)

    def test_zero_sweeps_copy_phi(self):
        phi = signed_distance(InitShape.circle(16, 16, 6), 32, 32).data
        out = reinitialize(phi, 0)
        assert out.tobytes() == phi.tobytes()
        assert not np.shares_memory(out, phi)

    def test_exact_sdf_is_near_fixed_point(self):
        # the discrete stationary state of the upwind relaxation differs
        # from the analytic distance by O(h * curvature), worst at the
        # medial axis; near the interface the field barely moves and the
        # zero level itself is pinned far below the 0.5 px contract
        phi = signed_distance(InitShape.circle(32, 32, 10), 64, 64).data
        out = reinitialize(phi, iterations=10)
        diff = np.abs(out - phi)
        assert diff[np.abs(phi) <= 1.5].max() < 0.1
        moved = hausdorff(extract_contour(phi).vertices(),
                          extract_contour(out).vertices())
        assert moved < 0.1

    def test_restores_unit_gradient(self):
        phi = signed_distance(InitShape.circle(32, 32, 10), 64, 64).data
        scaled = 3.0 * phi
        out = reinitialize(scaled, iterations=40)
        mag = gradient_magnitude(out)
        near = np.abs(phi) < 5.0
        frac = ((mag[near] > 0.9) & (mag[near] < 1.1)).mean()
        assert frac >= 0.9

    def test_zero_level_stays_put(self):
        phi = signed_distance(InitShape.circle(32, 32, 10), 64, 64).data
        scaled = 3.0 * phi
        before = extract_contour(scaled).vertices()
        after = extract_contour(reinitialize(scaled, iterations=40)).vertices()
        assert hausdorff(before, after) < 0.5

    def test_zero_level_stays_put_multi(self):
        phi = signed_distance(InitShape.circle_grid(3, 3, 6, 96, 96), 96, 96).data
        warped = phi * (1.5 + 0.5 * np.tanh(phi / 4.0))
        before = extract_contour(warped).vertices()
        after = extract_contour(reinitialize(warped, iterations=20)).vertices()
        assert hausdorff(before, after) < 0.5

    def test_rejects_negative_iterations(self):
        phi = signed_distance(InitShape.circle(16, 16, 6), 32, 32).data
        with pytest.raises(ValueError):
            reinitialize(phi, iterations=-1)

    @pytest.mark.parametrize("iterations", [True, 2.5, 3.0])
    def test_rejects_iterations_that_are_not_integers(self, iterations):
        phi = signed_distance(InitShape.circle(16, 16, 6), 32, 32).data
        with pytest.raises(ValueError):
            reinitialize(phi, iterations=iterations)

