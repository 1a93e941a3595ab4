"""Regular-grid scalar fields and the finite-difference building blocks.

Everything downstream (contour evolution, energies, reinitialization)
consumes these primitives: gradients, mean curvature of level sets, the
regularized Heaviside/delta pair, and the gradient-based edge detector.
All operations are deterministic; the only state they write is a Scratch
work set or an ``out`` array that the caller passes in.

Every kernel below solver.evolve, here and in models and levelset, takes
raw arrays and one grid spacing and validates nothing: a phi that
overflows a stencil gives NaN or Inf, which the caller checks for.
ScalarField validates at the package's doors only: the fields that
solver.evolve takes, the phi0 that levelset.signed_distance builds, and
the result's phi_final.

On a field of at least 2^18 pixels, the row-local passes run on row slabs,
one per usable CPU (at most four): split_rows puts a pass's slabs on a
queue, from which the calling thread and the module's worker threads take
them one at a time. The workers, which start on the first split that needs
them, serve one task queue that each split feeds. Each slab writes only
its own rows of an output or of the Scratch set, so every result has the
bits of the one-slab pass. A pass that reads rows a neighbouring slab
writes in the same pass is split in two at that point (a join), or
recomputes the row it needs, as curvature and levelset.reinitialize do.
Sums and dot products stay whole-array passes: a split would change their
summation order. A slab runs in a copy of the caller's context, so that
the np.errstate the caller set holds on the workers too. Slab bodies are
private functions that allocate no field-sized array (magnitude's does
where a result overflows) and call no public kernel of this package.

A kernel works in the dtype it is given (float32, else float64) or in its
Scratch's. A float32 pass takes Python floats as constants: under NEP 50 a
float64 array, even 0-d, makes it a float64 loop. Sums are in float64.
"""

from __future__ import annotations

import contextvars
import functools
import math
import numbers
import os
import queue
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

# Guard added to |grad phi|^2 inside the curvature denominator; keeps the
# stencil branch-free where the gradient vanishes.
CURVATURE_ETA = 1e-8

# A field of fewer pixels runs as one slab: at 256^2 and 384^2, where the
# arrays fit in one core's cache, two slabs measured slower than one.
_SLAB_FLOOR = 1 << 18
_MAX_SLABS = 4


def _cpu_count() -> int:
    # the CPUs this process may run on, which taskset or a cpuset can narrow
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _slab_count(rows: int, pixels: int) -> int:
    if pixels < _SLAB_FLOOR:
        return 1
    return max(1, min(_cpu_count(), _MAX_SLABS, rows))


def _no_workers():
    # the task queue the worker threads serve, and how many have started:
    # none until the first split. A forked child has none of its parent's
    # threads, and a start lock that another thread held at the fork would
    # never be released there, so the child starts afresh
    global _tasks, _started, _start_lock
    _tasks, _started, _start_lock = queue.SimpleQueue(), 0, threading.Lock()


_no_workers()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_no_workers)


def _serve(tasks):
    while True:
        context, task = tasks.get()
        context.run(task)
        del context, task  # an idle worker keeps nothing of the last split


def split_rows(body: Callable[[int, int], None], rows: int, pixels: int) -> None:
    """Run body(lo, hi) over row slabs [lo, hi) that partition range(rows)
    of a field of ``pixels`` values: one slab under 2^18 pixels, else one
    per usable CPU, at most four. The calling thread and one worker thread
    per further slab take the slabs from a queue one at a time, so the
    caller runs every slab that no worker has taken, and a worker that
    wakes late costs nothing; a worker runs in a copy of the caller's
    contextvars context, where np.errstate lives. It returns only once
    every slab has finished, also when one raises, and then re-raises the
    error of the first slab that raised. With one slab, body(0, rows) is
    the whole call. A body must write only its own rows, allocate no
    field-sized array, and never call split_rows.
    """
    global _started
    n = _slab_count(rows, pixels)
    if n == 1:
        body(0, rows)
        return
    slabs, done = queue.SimpleQueue(), queue.SimpleQueue()
    cuts = [rows * k // n for k in range(n + 1)]
    for slab in zip(cuts[:-1], cuts[1:]):
        slabs.put(slab)

    def take():
        while True:
            try:
                lo, hi = slabs.get_nowait()
            except queue.Empty:
                return
            try:
                body(lo, hi)
                done.put((lo, None))
            except BaseException as error:  # split_rows raises it
                done.put((lo, error))

    if _started < n - 1:
        with _start_lock:
            while _started < n - 1:
                threading.Thread(target=_serve, args=(_tasks,), name="levelseg-slab",
                                 daemon=True).start()
                _started += 1
    for _ in range(n - 1):
        _tasks.put((contextvars.copy_context(), take))
    take()
    errors = dict(done.get() for _ in range(n))
    for lo in cuts[:-1]:
        if errors[lo] is not None:
            raise errors[lo]


def rowwise(body: Callable, out: np.ndarray, *args) -> np.ndarray:
    """body(out, *args) for an elementwise ``body``, run by split_rows over
    row slabs of ``out``, which it returns. An argument with out's rows
    (out's number of dimensions and length) is cut into the same slabs;
    any other, a scalar or an array that broadcasts, is passed whole.
    """
    if out.ndim == 0 or _slab_count(len(out), out.size) == 1:
        body(out, *args)
        return out
    rows = len(out)
    cut = [np.ndim(a) == out.ndim and len(a) == rows for a in args]

    def slab(lo, hi):
        body(out[lo:hi], *[a[lo:hi] if c else a for a, c in zip(args, cut)])

    split_rows(slab, rows, out.size)
    return out


@dataclass(frozen=True)
class ScalarField:
    """A width x height grid of real values (the image u0 or the level-set
    function phi), stored row-major as a float32, or else float64, array of
    shape (height, width). ``spacing`` is the grid step h.
    """

    data: np.ndarray
    spacing: float = 1.0

    def __post_init__(self):
        if np.iscomplexobj(self.data):  # float64 would drop the imaginary part
            raise ValueError("field data must be real, got complex values")
        # row-major, so that the stencils can run over the rows as one flat run
        arr = _working(self.data, order="C")
        if arr.ndim != 2:
            raise ValueError(f"field data must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 3 or arr.shape[1] < 3:
            raise ValueError(
                f"field must be at least 3x3 (stencils need an interior ring), "
                f"got {arr.shape[1]}x{arr.shape[0]}"
            )
        if not _all_finite(arr):
            raise ValueError("field contains NaN or Inf values")
        if not (0 < self.spacing < math.inf):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        object.__setattr__(self, "data", arr)


def _working(a, order=None) -> np.ndarray:
    # a as a float32 array if it is one, else as a float64 array
    dtype = np.float32 if getattr(a, "dtype", None) == np.float32 else np.float64
    return np.asarray(a, dtype, order=order)


def _all_finite(a: np.ndarray) -> bool:
    # finite when the max and min are: a NaN anywhere makes both NaN
    finite = []

    def slab(lo, hi):
        rows = a[lo:hi]
        finite.append(bool(np.isfinite(rows.max()) and np.isfinite(rows.min())))

    split_rows(slab, len(a), a.size)
    return all(finite)


class Gradient(NamedTuple):
    """The (dx, dy) arrays of gradient, same shape as the source field."""

    dx: np.ndarray
    dy: np.ndarray


def magnitude(dx: np.ndarray, dy: np.ndarray, out: np.ndarray | None = None,
              dy_squared: np.ndarray | None = None) -> np.ndarray:
    """sqrt(dx^2 + dy^2) as a raw array: ``out``, with dy^2 in
    ``dy_squared`` (new arrays when None; ``dy_squared`` may be dy itself).
    Within 1 ulp of np.hypot, which is 2-3x slower on an image's gradients,
    except below 1e-154, where the squares underflow. np.hypot takes over
    at each pixel whose result is not finite: where a square or the sum
    overflowed, or a component is NaN or Inf. The rule is per pixel, so
    every slab count gives the same bits. When dy_squared is dy, the
    squares have overwritten dy by then, so np.hypot takes |dy| as
    sqrt(dy^2): the same bits wherever dy^2 is finite, and Inf where it
    overflowed. In float32 the squares underflow below about 1e-19 and
    overflow above about 1.8e19.
    """
    out = np.empty_like(dx) if out is None else out
    dy_squared = np.empty_like(dy) if dy_squared is None else dy_squared
    return rowwise(_magnitude_rows, out, dx, dy, dy_squared)


def _magnitude_rows(m, dx, dy, dy_squared):
    with np.errstate(over="ignore"):
        np.multiply(dx, dx, out=m)
        m += np.multiply(dy, dy, out=dy_squared)
    np.sqrt(m, out=m)
    if not np.isfinite(m.max(initial=0.0)):  # a NaN anywhere makes the max NaN
        bad = ~np.isfinite(m)
        y = np.sqrt(dy_squared[bad]) if np.shares_memory(dy, dy_squared) else dy[bad]
        m[bad] = np.hypot(dx[bad], y)


def divide_by(a: np.ndarray, d: float) -> None:
    """a /= d in place, for a positive constant d. When d is a power of two
    whose reciprocal is a float, a * (1 / d) rounds to the same bits as
    a / d, and a multiply costs about a third of a divide (nothing when d
    is 1); that is how the stencils divide by 2h, h^2 or 4h^2.
    """
    mantissa, exponent = math.frexp(d)
    if mantissa != 0.5 or exponent <= -1021:
        a /= d
    elif d != 1.0:
        a *= 1.0 / d


def _flat(a: np.ndarray) -> np.ndarray:
    # a row-major array as one 1-D run over its rows, without a copy
    if not a.flags.c_contiguous:
        raise ValueError("array must be row-major (C-contiguous)")
    return a.reshape(-1)


def gradient(f: np.ndarray, spacing: float = 1.0, *,
             out: tuple[np.ndarray, np.ndarray] | None = None) -> Gradient:
    """First derivatives of the row-major array ``f``: central differences
    at interior pixels, one-sided at the borders, divided by the grid
    spacing. x runs along columns, y along rows. Bit-identical to
    np.gradient(f, spacing), but written straight into ``out`` = (dx, dy),
    row-major arrays, or new arrays when None, and returned as a Gradient of
    those arrays. Where neighbours differ by more than the largest float the
    differences are Inf, as in curvature, and the caller checks.

    dx is taken as one pass over the flattened rows, which also differences
    across the end of each row; the first and last column are then
    overwritten with their one-sided differences.
    """
    dx, dy = (np.empty_like(f), np.empty_like(f)) if out is None else out
    _flat(f), _flat(dx)  # refuses an f or a dx that is not row-major
    split_rows(functools.partial(_gradient_rows, f, spacing, dx, dy), len(f), f.size)
    return Gradient(dx, dy)


def _gradient_rows(d, h, dx, dy, lo, hi):
    last = len(d) - 1
    top, bottom = max(lo, 1), min(hi, last)  # the slab's interior rows
    np.subtract(d[top + 1:bottom + 1], d[top - 1:bottom - 1], out=dy[top:bottom])
    divide_by(dy[top:bottom], 2.0 * h)
    if lo == 0:
        np.subtract(d[1], d[0], out=dy[0])
        dy[0] /= h
    if hi == last + 1:
        np.subtract(d[-1], d[-2], out=dy[-1])
        dy[-1] /= h
    # the run starts after the slab's first pixel and ends before its last,
    # which are border columns, so it reads no other slab's pixels
    width = d.shape[1]
    run, dx_run = _flat(d), _flat(dx)
    start, stop = lo * width + 1, hi * width - 1
    np.subtract(run[start + 1:stop + 1], run[start - 1:stop - 1], out=dx_run[start:stop])
    divide_by(dx_run[start:stop], 2.0 * h)
    rows = slice(lo, hi)
    np.subtract(d[rows, 1], d[rows, 0], out=dx[rows, 0])
    np.subtract(d[rows, -1], d[rows, -2], out=dx[rows, -1])
    dx[rows, 0] /= h
    dx[rows, -1] /= h


def gradient_magnitude(f: np.ndarray, spacing: float = 1.0, *,
                       out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                       ) -> np.ndarray:
    """Per-pixel magnitude of gradient(f, spacing) as a raw array, not
    validated: Inf where the gradient overflows, and also where |dy|
    passes about 1.3e154, since dy^2 takes dy's array (see magnitude).
    With ``out`` = (dx, dy, magnitude), the gradient is written into the
    first two, with dy^2 in the second at the end, and the magnitude into
    the third; new arrays when None.
    """
    grad_out, m = (None, None) if out is None else (out[:2], out[2])
    g = gradient(f, spacing, out=grad_out)
    return magnitude(g.dx, g.dy, m, dy_squared=g.dy)


def _result(shape: tuple, out: np.ndarray | None, dtype) -> np.ndarray:
    # the array an elementwise kernel writes into: ``out``, or a new one
    return np.empty(shape, dtype) if out is None else out


def edge_detector(z, *, out: np.ndarray | None = None):
    """g(z) = 1 / (1 + z^2) for z >= 0: equals 1 on flat regions and decays
    toward 0 where the (smoothed) image gradient is large. On the unscaled
    gradient of the benchmark's [0, 1] phantoms it stays >= 0.949, which is
    why solver.evolve first divides the gradient by its own level. Accepts
    scalars or arrays; an array result is written into ``out`` when given.
    """
    z = _working(z)
    out = rowwise(_edge_detector_rows, _result(z.shape, out, z.dtype), z)
    return out if out.ndim else float(out)


def _edge_detector_rows(out, z):
    np.multiply(z, z, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)


class Scratch:
    """Work arrays of one run on one grid shape. evolve makes one per run
    and passes it to every kernel of the step, which run one after another,
    so that a step reuses the same memory instead of faulting in fresh
    temporaries. A set is for one caller at a time; concurrent runs each
    need their own. Within a kernel, the row slabs of split_rows write
    disjoint rows of the set's arrays, in the caller's np.errstate. A pass
    that reads rows another slab writes waits for every slab of the pass
    before it: curvature's differences read the neighbours' rows of
    ``padded``, which its cross term then overwrites, and a reinitialize
    sweep reads the rows of phi next to its slab's, which the sweep
    updates. The -f shift in y of reinitialize takes the next slab's first
    row again from phi instead.

    ``buffers`` are five flat arrays of h * (w + 2) values, and ``arrays``
    the five (h, w) row-major views of their first h * w values.
    ``padded`` is (h + 2) x (w + 2), and the fifth buffer is its first
    h * (w + 2) values, so the set holds about five fields, not six.
    curvature lays buffers 0-3 out as rows of w + 2 values, one per
    row of ``padded``, so that each stencil is one flat run through all
    rows, and keeps its fifth difference in the array it returns; once its
    differences are taken, ``padded`` is free and holds the cross term.
    Apart from that:

    - levelset.reinitialize uses all five arrays;
    - region_rhs takes array 2 for delta_eps and, once curvature has
      returned, array 0 for lam * (u - c)^2 when lam is not 1;
    - weighted_averages writes H_eps into array 0 and 1 - H_eps into array 1,
      and returns array 0 as H, which energy_region reads and leaves as is;
    - geodesic_rhs builds g, grad g, grad phi and |grad phi| in arrays
      0-4, once curvature has returned;
    - energy_region and energy_geodesic use arrays 1-4 (energy_geodesic
      array 0 as well);
    - before a geodesic run's first step, solver._edge_image takes the
      smoothed image's gradient magnitude in arrays 0-2.

    Apart from that H, no kernel returns one of these arrays.

    The set also keeps what depends only on the image: the mean and max of
    the image (image_stats) and two data-term arrays (u - c)^2
    (data_term), made on first use, so only region runs have them. Each is
    keyed on the image array object, and the terms on c as well, and is
    rebuilt only when its key changes. The contract: a set serves
    one run, and the image is not changed in place while it does. Its
    arrays, and those a kernel given the set makes, are of its ``dtype``.
    """

    def __init__(self, shape: tuple, dtype=np.float64):
        h, w = shape
        self.shape = (h, w)
        self.dtype = np.dtype(dtype)
        self.padded = np.empty((h + 2, w + 2), dtype)
        run = h * (w + 2)
        self.buffers = (*(np.empty(run, dtype) for _ in range(4)), self.padded.reshape(-1)[:run])
        self.arrays = tuple(b[:h * w].reshape(h, w) for b in self.buffers)
        self._image = None  # (image, mean, max)
        self._terms = [None, None]  # ((image, c), array) per data term

    @classmethod
    def ensure(cls, scratch: "Scratch | None", a: np.ndarray) -> "Scratch":
        """``scratch``, or a fresh set in a's shape and dtype when it is
        None; the shapes must agree."""
        if scratch is None:
            return cls(a.shape, a.dtype)
        if scratch.shape != a.shape:
            raise ValueError(f"scratch is for shape {scratch.shape}, not {a.shape}")
        return scratch

    def image_stats(self, u: np.ndarray) -> tuple[float, float]:
        """image_stats(u), computed once per image array."""
        if self._image is None or self._image[0] is not u:
            self._image = (u, *image_stats(u))
        return self._image[1:]

    def data_term(self, which: int, u: np.ndarray, c: float) -> np.ndarray:
        """(u - c)^2 in data-term array ``which`` (0 or 1), rebuilt only
        when u or c differ from that array's last call; do not write into
        it.
        """
        entry = self._terms[which]
        if entry is not None:
            (image, c_was), term = entry
            if image is u and c_was == c:
                return term
        term = np.empty(self.shape, self.dtype) if entry is None else entry[1]
        rowwise(_data_term_rows, term, u, c)
        self._terms[which] = ((u, c), term)
        return term


def _data_term_rows(term, u, c):
    np.subtract(u, c, out=term)
    term *= term


def image_stats(u: np.ndarray) -> tuple[float, float]:
    """(mean, max) of an image over all its pixels, summed in float64."""
    flat = u.ravel()
    return float(flat.mean(dtype=np.float64)), float(flat.max())


def _rows_of(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    # the (h, w) pixels of a buffer laid out as h rows of w + 2 values
    h, w = shape
    return buffer[:h * (w + 2)].reshape(h, w + 2)[:, 1:-1]


def curvature(phi: np.ndarray, spacing: float = 1.0, *,
              scratch: Scratch | None = None) -> np.ndarray:
    """Mean curvature of the level sets, div(grad(phi)/|grad(phi)|), via the
    second-order stencil

        k = (pxx*py^2 - 2*px*py*pxy + pyy*px^2) / (px^2 + py^2 + eta)^(3/2)

    with eta = CURVATURE_ETA and edge-replicated borders. Output is clamped
    to +-1/spacing, which is the finest curvature the grid can represent,
    so that explicit stepping stays stable where the gradient nearly
    vanishes.

    It is computed in ``scratch`` (a fresh set when None) and returned in a
    new array, the only one it allocates. The power 3/2 is taken as
    den * sqrt(den), within 1 ulp of den ** 1.5; every other operation is
    done in the order the formula reads. The result is not validated: a phi
    so steep that the stencil overflows gives NaN or Inf, which the caller
    checks for.

    Every array operation is one flat run over the rows of the padded copy
    of phi, from its first pixel to its last: a neighbour is the same run
    shifted by 1 (x), by a padded row (y) or by both (the diagonals). The
    run also passes the border columns between rows; what it writes there
    is never read. The new array holds h * (w + 2) values: it takes pxy as
    such a run, and once pxy is used, the curvature in its first h * w.
    On row slabs (split_rows) each slab takes the part of the run that
    holds its rows, in four splits: the padding; the differences, which
    read the padded rows around the slab; the cross term, which then
    overwrites them; and the rest, whose rows of the result lie over pxy
    of the slabs before.
    """
    s = Scratch.ensure(scratch, phi)
    rows, width = phi.shape
    run = np.empty(rows * (width + 2), s.dtype)
    for body in (_pad_rows, _difference_rows, _cross_rows, _curvature_rows):
        split_rows(functools.partial(body, phi, spacing, s, run), rows, phi.size)
    return run[:phi.size].reshape(phi.shape)


def _pad_rows(phi, h, s, run, lo, hi):
    # edge-replicated border, as np.pad(phi, 1, mode="edge"): padded rows
    # lo + 1 .. hi, and the border row next to the slab's first or last row
    p = s.padded
    p[lo + 1:hi + 1, 1:-1] = phi[lo:hi]
    top, bottom = lo + 1, hi + 1
    if lo == 0:
        p[0, 1:-1] = phi[0]
        top = 0
    if hi == len(phi):
        p[-1, 1:-1] = phi[-1]
        bottom += 1
    p[top:bottom, 0] = p[top:bottom, 1]
    p[top:bottom, -1] = p[top:bottom, -2]


def _stencil_runs(phi, s, run, lo, hi):
    # the parts for rows lo .. hi - 1 of the flat runs of px, py, pxx, pyy
    # (buffers 0-3) and pxy (run): pixel (i, j) sits at i * (w + 2) + j + 1
    # of each, as in _rows_of, and the runs are n = rows * (w + 2) - 2 long
    row = phi.shape[1] + 2
    first, stop = lo * row, min(hi * row, len(phi) * row - 2)
    return first, stop, [b[1 + first:1 + stop] for b in (*s.buffers[:4], run)]


def _difference_rows(phi, h, s, run, lo, hi):
    row = phi.shape[1] + 2
    first, stop, (px, py, pxx, pyy, pxy) = _stencil_runs(phi, s, run, lo, hi)
    flat = s.padded.reshape(-1)

    def shifted(offset):
        return flat[row + 1 + offset + first:row + 1 + offset + stop]

    c, left, right = shifted(0), shifted(-1), shifted(1)
    up, down = shifted(-row), shifted(row)
    np.subtract(right, left, out=px)
    divide_by(px, 2.0 * h)
    np.subtract(down, up, out=py)
    divide_by(py, 2.0 * h)
    # pxx = (right - 2c + left) / h^2 and pyy = (down - 2c + up) / h^2
    np.multiply(c, 2.0, out=pxx)
    np.subtract(down, pxx, out=pyy)
    pyy += up
    divide_by(pyy, h * h)
    np.subtract(right, pxx, out=pxx)
    pxx += left
    divide_by(pxx, h * h)
    np.subtract(shifted(row + 1), shifted(row - 1), out=pxy)
    pxy -= shifted(1 - row)
    pxy += shifted(-row - 1)
    divide_by(pxy, 4.0 * h * h)


def _cross_rows(phi, h, s, run, lo, hi):
    # the differences are taken, so the padded buffer takes the cross term
    first, stop, (px, py, _, _, pxy) = _stencil_runs(phi, s, run, lo, hi)
    cross = s.padded.reshape(-1)[1 + first:1 + stop]
    np.multiply(px, 2.0, out=cross)
    cross *= py
    cross *= pxy


def _curvature_rows(phi, h, s, run, lo, hi):
    first, stop, (px, py, pxx, pyy, _) = _stencil_runs(phi, s, run, lo, hi)
    flat = s.padded.reshape(-1)
    cross = flat[1 + first:1 + stop]
    # num = pxx*py*py - 2*px*py*pxy + pyy*px*px, built in pxx
    pxx *= py
    pxx *= py
    pxx -= cross
    pyy *= px
    pyy *= px
    pxx += pyy
    # den = px*px + py*py + eta, built in pyy, with py*py in cross
    np.multiply(px, px, out=pyy)
    np.multiply(py, py, out=cross)
    pyy += cross
    pyy += CURVATURE_ETA
    np.sqrt(pyy, out=cross)
    cross *= pyy
    k = run[:phi.size].reshape(phi.shape)[lo:hi]
    np.divide(_rows_of(s.buffers[2], phi.shape)[lo:hi], _rows_of(flat, phi.shape)[lo:hi],
              out=k)
    bound = 1.0 / h
    np.clip(k, -bound, bound, out=k)


def _check_count(name: str, value, low: int = 0) -> None:
    # an integer >= low; numpy integers pass, bools and floats do not
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _positive_eps(eps) -> np.ndarray:
    eps = np.asarray(eps, dtype=np.float64)
    if not np.all(eps > 0):
        raise ValueError("eps must be positive")
    return eps


def heaviside_eps(z, eps, *, out: np.ndarray | None = None):
    """Smooth step H_eps(z) = 1/2 (1 + (2/pi) arctan(z/eps)): strictly
    increasing, H_eps(0) = 1/2, limits 0 and 1. Accepts scalars or arrays;
    an array result is written into ``out`` when given, in the operation
    order of the formula. A scalar eps of 1 skips the quotient z / eps,
    which is z itself; any other eps takes the dtype of the result.
    """
    eps = _positive_eps(eps)
    z = _working(z)
    out = _result(np.broadcast_shapes(z.shape, eps.shape), out, z.dtype)
    rowwise(_heaviside_rows, out, z,
            None if eps.ndim == 0 and eps == 1.0 else eps.astype(out.dtype))
    return out if out.ndim else float(out)


def _heaviside_rows(out, z, eps):
    np.arctan(z if eps is None else np.divide(z, eps, out=out), out=out)
    out *= 2.0 / math.pi
    out += 1.0
    out *= 0.5


def delta_eps(z, eps, *, out: np.ndarray | None = None):
    """Exact derivative of heaviside_eps: (1/pi) eps / (eps^2 + z^2).
    Even in z, strictly positive, peaks at z = 0. An array result is written
    into ``out`` when given, in the operation order of the formula, with
    eps^2 and eps / pi in the dtype of the result.
    """
    eps = _positive_eps(eps)
    z = _working(z)
    out = _result(np.broadcast_shapes(z.shape, eps.shape), out, z.dtype)
    rowwise(_delta_rows, out, z, *(c.astype(out.dtype) for c in (eps * eps, eps / math.pi)))
    return out if out.ndim else float(out)


def _delta_rows(out, z, eps_squared, eps_over_pi):
    np.multiply(z, z, out=out)
    out += eps_squared
    np.divide(eps_over_pi, out, out=out)


# 5x5 Gaussian (sigma = 1), normalized to unit sum; used to pre-smooth the
# image before the edge detector sees its gradients.
_G5 = np.exp(-0.5 * np.arange(-2.0, 3.0) ** 2)
_KERNEL5 = np.outer(_G5, _G5) / np.outer(_G5, _G5).sum()


def gaussian_smooth(f: np.ndarray) -> np.ndarray:
    """Convolve with the fixed 5x5 sigma=1 Gaussian, edge-replicated borders."""
    # imported on the first call: only the geodesic flow smooths, and the
    # import about doubles the resident memory of a region-model process
    import scipy.ndimage as ndi
    return ndi.convolve(f, _KERNEL5, mode="nearest")
