"""Row slabs: every kernel that grid.split_rows runs on row slabs gives the
bits of its one-slab pass, and split_rows itself waits for every slab,
raises the first slab's error and carries the caller's np.errstate to its
workers.

Each test sets the number of slabs itself (use_slabs), so the slab path
runs, on worker threads, whatever the field's size and the machine's CPU
count.
"""

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
import scipy.ndimage as ndi

from levelseg import grid
from levelseg.grid import (
    ScalarField,
    Scratch,
    curvature,
    delta_eps,
    edge_detector,
    gaussian_smooth,
    gradient,
    gradient_magnitude,
    heaviside_eps,
    magnitude,
    split_rows,
)
from levelseg.levelset import InitShape, reinitialize, signed_distance
from levelseg.models import (
    EvolveParams,
    energy_geodesic,
    energy_region,
    geodesic_flow_rhs,
    region_averages,
    region_rhs,
    weighted_averages,
)
from levelseg.solver import evolve

from test_levelset import reinitialize_reference


def use_slabs(monkeypatch, count):
    """Run every split of the test with ``count`` slabs (fewer on a field of
    fewer rows), whatever the field's size and the machine's CPU count."""
    if count == 1:
        monkeypatch.setattr(grid, "_SLAB_FLOOR", math.inf)
    else:
        monkeypatch.setattr(grid, "_SLAB_FLOOR", 0)
        monkeypatch.setattr(grid, "_cpu_count", lambda: count)


def fields(height, width, spacing):
    """(u0 in [0, 1], phi) on an uneven grid: a smoothed noisy image and the
    signed distance of 4 x 4 circles, whose |phi| reaches 30-50 px (long
    reinitialization fronts, saturated Heaviside tails), with a ripple and
    pixels on the zero level."""
    rng = np.random.default_rng(height * 1000 + width)
    u = np.clip(ndi.uniform_filter(rng.random((height, width)), 5) * 1.6 - 0.3, 0.0, 1.0)
    circles = InitShape.circle_grid(4, 4, min(width, height) / 10, width, height)
    phi = signed_distance(circles, width, height).data * spacing
    phi += 0.3 * np.sin(np.arange(width) * 0.37)[None, :] * np.cos(np.arange(height) * 0.21)[:, None]
    phi[rng.random(phi.shape) < 0.01] = 0.0
    return ScalarField(u, spacing), ScalarField(phi, spacing)


def outputs(kernel, u0, phi):
    """The arrays and numbers a kernel gives on (u0, phi), as one byte string."""
    params = EvolveParams(mu=0.2, nu=0.1, lam=1.5)
    scratch = Scratch(phi.data.shape, phi.data.dtype)
    smooth = gaussian_smooth(u0)
    if kernel == "curvature":
        got = [curvature(phi.data, phi.spacing), curvature(phi.data, phi.spacing,
                                                           scratch=scratch)]
    elif kernel == "gradient":
        got = [*gradient(phi.data, phi.spacing), *gradient(u0.data, u0.spacing)]
    elif kernel == "gradient_magnitude":
        got = [gradient_magnitude(phi.data, phi.spacing),
               gradient_magnitude(smooth.data, smooth.spacing)]
    elif kernel == "heaviside_and_delta":
        eps_rows = np.linspace(0.5, 2.0, phi.height)[:, None]
        got = [f(phi.data, eps) for f in (heaviside_eps, delta_eps)
               for eps in (1.0, 0.5, 0.3, eps_rows)]
    elif kernel == "edge_detector":
        got = [edge_detector(gradient_magnitude(smooth.data, smooth.spacing))]
    elif kernel == "reinitialize":
        got = [reinitialize(phi, 12, scratch=scratch).data]
    elif kernel == "region":
        stats, H = weighted_averages(u0, phi, region_averages(u0, phi), params.eps,
                                     scratch=scratch)
        rhs = region_rhs(u0, phi, stats.c1, stats.c2, params.lam, params, scratch=scratch)
        energy = energy_region(u0, phi, stats.c1, stats.c2, params.lam, params, H=H,
                               scratch=scratch)
        got = [rhs, np.array([stats.c1, stats.c2, energy])]
    elif kernel == "geodesic":
        rhs = geodesic_flow_rhs(smooth, phi, params, scratch=scratch)
        got = [rhs, np.array([energy_geodesic(smooth, phi, params, scratch=scratch)])]
    return b"".join(a.tobytes() for a in got)


KERNELS = ["curvature", "gradient", "gradient_magnitude", "heaviside_and_delta",
           "edge_detector", "reinitialize", "region", "geodesic"]
# uneven slabs: neither height divides by 2, 3 or 4 slabs into equal parts
# at once, and the second grid has h = 0.5 and fewer columns than rows
SHAPES = [(513, 520, 1.0), (517, 300, 0.5)]


def assert_slabs_equal_one_slab(monkeypatch, kernel, u0, phi):
    use_slabs(monkeypatch, 1)
    expected = outputs(kernel, u0, phi)
    for count in (2, 3, 4):
        use_slabs(monkeypatch, count)
        assert outputs(kernel, u0, phi) == expected, f"{count} slabs"


class TestSlabsEqualOneSlab:
    @pytest.mark.parametrize("height, width, spacing", SHAPES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_kernel_is_bit_identical(self, monkeypatch, kernel, height, width, spacing):
        assert_slabs_equal_one_slab(monkeypatch, kernel, *fields(height, width, spacing))

    # the kernels in evolve's working precision, with a float32 set
    @pytest.mark.parametrize("height, width, spacing", SHAPES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_kernel_is_bit_identical_in_float32(self, monkeypatch, kernel, height, width,
                                                spacing):
        u0, phi = (f.like(f.data.astype(np.float32)) for f in fields(height, width, spacing))
        assert_slabs_equal_one_slab(monkeypatch, kernel, u0, phi)

    @pytest.mark.parametrize("height, width, spacing", SHAPES)
    def test_reinitialize_equals_the_reference_sweep(self, monkeypatch, height, width, spacing):
        _, phi = fields(height, width, spacing)
        use_slabs(monkeypatch, 3)
        assert reinitialize(phi, 12).data.tobytes() == reinitialize_reference(phi, 12).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_magnitude_takes_hypot_for_a_peak_in_the_last_slab(self, monkeypatch, count):
        # a component whose square overflows, a NaN and Infs, all in the
        # last rows, which are in the last slab: np.hypot at those pixels
        # only, and the squares everywhere else, in every slab
        rng = np.random.default_rng(5)
        dx, dy = rng.normal(size=(2, 513, 520)) * 1e3
        dy[-1, 7] = -2e300
        dx[-2, 11] = np.nan
        dy[-3, 13] = np.inf
        dx[-1, 20], dy[-1, 20] = np.nan, -np.inf  # np.hypot gives Inf here
        peaks = np.zeros(dx.shape, dtype=bool)
        peaks[[-1, -2, -3, -1], [7, 11, 13, 20]] = True
        with np.errstate(over="ignore"):
            expected = np.where(peaks, np.hypot(dx, dy), np.sqrt(dx * dx + dy * dy))
        use_slabs(monkeypatch, count)
        assert magnitude(dx, dy).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("row", [0, 300, 512])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_field_check_sees_every_slab(self, monkeypatch, row, bad):
        d = np.zeros((513, 520))
        d[row, 11] = bad
        use_slabs(monkeypatch, 3)
        with pytest.raises(ValueError, match="NaN or Inf"):
            ScalarField(d)

    @pytest.mark.parametrize("model", ["chan_vese", "modified", "geodesic"])
    def test_evolve_is_bit_identical(self, monkeypatch, model):
        u0, phi0 = fields(512, 512, 1.0)
        params = EvolveParams(mu=0.2, max_iters=20, reinit_every=10, stop_tol=0.0)
        use_slabs(monkeypatch, 1)
        expected = evolve(model, u0, phi0, params)
        use_slabs(monkeypatch, 3)
        res = evolve(model, u0, phi0, params)
        assert res.phi_final.data.tobytes() == expected.phi_final.data.tobytes()
        assert res.energy_trace == expected.energy_trace

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model", ["chan_vese", "modified", "geodesic"])
    def test_overflow_stalls_without_a_warning(self, monkeypatch, model):
        # the workers must step under the np.errstate of evolve: a worker in
        # numpy's default state would warn, which this test turns into an error
        sdf = signed_distance(InitShape.circle(256, 256, 100), 512, 512).data
        phi0 = ScalarField(np.where(sdf >= 0.0, 1.7e308, -1.7e308))
        u0 = ScalarField((sdf >= 0.0).astype(float))
        use_slabs(monkeypatch, 3)
        res = evolve(model, u0, phi0, EvolveParams(mu=0.2, max_iters=30))
        assert res.stop_reason == "stalled"
        assert "non-finite at iteration 1" in res.diagnostics
        assert len(res.energy_trace) == 1


class TestSplitRows:
    def test_slabs_partition_the_rows(self, monkeypatch):
        use_slabs(monkeypatch, 3)
        seen = []
        split_rows(lambda lo, hi: seen.append((lo, hi)), 10, 100)
        assert sorted(seen) == [(0, 3), (3, 6), (6, 10)]

    def test_one_slab_below_the_floor(self, monkeypatch):
        monkeypatch.setattr(grid, "_cpu_count", lambda: 4)
        seen = []
        split_rows(lambda lo, hi: seen.append((lo, hi, threading.current_thread())), 511, 511 * 512)
        assert seen == [(0, 511, threading.current_thread())]
        split_rows(lambda lo, hi: seen.append((lo, hi)), 512, 512 * 512)
        assert len(seen) == 5

    def test_returns_only_after_every_slab_finishes(self, monkeypatch):
        use_slabs(monkeypatch, 4)
        finished = []

        def body(lo, hi):
            if hi == 8:
                raise ValueError("last slab")
            time.sleep(0.05)
            finished.append(lo)

        with pytest.raises(ValueError, match="last slab"):
            split_rows(body, 8, 64)
        assert sorted(finished) == [0, 2, 4]

    def test_raises_the_first_slab_error(self, monkeypatch):
        use_slabs(monkeypatch, 4)

        def body(lo, hi):
            if lo == 2:
                time.sleep(0.05)
                raise KeyError("second slab")
            if lo >= 4:
                raise ValueError(f"slab at {lo}")

        with pytest.raises(KeyError, match="second slab"):
            split_rows(body, 8, 64)
        split_rows(lambda lo, hi: None, 8, 64)  # the workers are free again

    def test_an_idle_worker_keeps_nothing_of_its_last_slab(self, monkeypatch):
        # a body holds the run's work arrays; a worker that kept it would
        # keep them alive into the next run
        use_slabs(monkeypatch, 3)

        class Body:
            def __call__(self, lo, hi):
                pass

        body = Body()
        gone = weakref.ref(body)
        split_rows(body, 9, 81)
        del body
        # a worker that woke after the caller had run every slab lets go
        # of the split once it finds nothing left to run
        deadline = time.monotonic() + 10.0
        while gone() is not None and time.monotonic() < deadline:
            time.sleep(0.001)
        assert gone() is None

    @pytest.mark.filterwarnings("error")
    def test_workers_step_under_the_callers_errstate(self, monkeypatch):
        # a worker outside the caller's errstate would warn, which this test
        # turns into an error
        use_slabs(monkeypatch, 3)
        a = np.full((9, 4), 1e300)
        out = np.empty_like(a)
        with np.errstate(over="ignore"):
            threads = slab_threads(lambda lo, hi: np.multiply(a[lo:hi], a[lo:hi], out=out[lo:hi]))
        assert np.isinf(out).all() and len(threads) > 1
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            slab_threads(lambda lo, hi: np.multiply(a[lo:hi], a[lo:hi], out=out[lo:hi]))

    def test_no_thread_before_the_first_split(self):
        probe = ("import threading, numpy as np\n"
                 "from levelseg.grid import ScalarField, curvature\n"
                 "n = threading.active_count()\n"
                 "curvature(np.zeros((256, 256)))\n"
                 "print(n, threading.active_count())\n")
        src = os.path.dirname(os.path.dirname(grid.__file__))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == ["1", "1"], out.stderr

    def test_a_forked_child_starts_its_own_workers(self, monkeypatch):
        # the parent's workers are threads the child does not have; slabs
        # handed to them would never run, and their tasks never be freed
        use_slabs(monkeypatch, 3)
        assert len(slab_threads(lambda lo, hi: None)) > 1
        child = multiprocessing.get_context("fork").Process(target=_split_in_child)
        child.start()
        child.join(timeout=30)
        alive = child.is_alive()
        if alive:
            child.kill()
        assert not alive and child.exitcode == 0

    def test_concurrent_splits_run_every_slab_once(self, monkeypatch):
        # the callers share the workers and their task queue; each split's
        # slabs must still run once each, and each call return
        use_slabs(monkeypatch, 3)
        ran = []

        def caller(name):
            for call in range(300):
                split_rows(lambda lo, hi: ran.append((name, call, lo)), 9, 81)

        callers = [threading.Thread(target=caller, args=(name,)) for name in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to find a lost slab
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert sorted(ran) == [(name, call, lo) for name in range(4)
                               for call in range(300) for lo in (0, 3, 6)]

    @pytest.mark.parametrize("count", [2, 3])
    def test_a_split_of_n_slabs_starts_n_minus_1_workers(self, count):
        # in a fresh process, since the workers live as long as the process
        probe = ("import sys, threading\n"
                 "from levelseg import grid\n"
                 "sys.setswitchinterval(1e-6)\n"
                 f"grid._SLAB_FLOOR, grid._cpu_count = 0, lambda: {count}\n"
                 "def caller():\n"
                 "    for _ in range(200):\n"
                 "        grid.split_rows(lambda lo, hi: None, 9, 81)\n"
                 "callers = [threading.Thread(target=caller) for _ in range(4)]\n"
                 "for thread in callers:\n"
                 "    thread.start()\n"
                 "for thread in callers:\n"
                 "    thread.join()\n"
                 "print(sum(t.name == 'levelseg-slab' for t in threading.enumerate()))\n")
        src = os.path.dirname(os.path.dirname(grid.__file__))
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == [str(count - 1)], out.stderr


def slab_threads(body, rows=9):
    """split_rows(body) over ``rows`` rows, each slab slow enough that a
    worker claims one; returns the threads that ran slabs."""
    threads = set()

    def slow(lo, hi):
        threads.add(threading.get_ident())
        time.sleep(0.2)
        body(lo, hi)

    split_rows(slow, rows, rows * rows)
    return threads


def _split_in_child():
    sys.exit(0 if len(slab_threads(lambda lo, hi: None)) > 1 else 1)
