"""Regular-grid scalar fields and the finite-difference building blocks.

Everything downstream (contour evolution, energies, reinitialization)
consumes these primitives: gradients, mean curvature of level sets, the
regularized Heaviside/delta pair, and the gradient-based edge detector.
All operations are deterministic; the only state they write is a Scratch
work set or an ``out`` array that the caller passes in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.ndimage as ndi

# Guard added to |grad phi|^2 inside the curvature denominator; keeps the
# stencil branch-free where the gradient vanishes.
CURVATURE_ETA = 1e-8


@dataclass(frozen=True)
class ScalarField:
    """A width x height grid of real values (the image u0 or the level-set
    function phi), stored row-major as a float64 array of shape
    (height, width). ``spacing`` is the grid step h.
    """

    data: np.ndarray
    spacing: float = 1.0

    def __post_init__(self):
        # row-major, so that the stencils can run over the rows as one flat run
        arr = np.asarray(self.data, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise ValueError(f"field data must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 3 or arr.shape[1] < 3:
            raise ValueError(
                f"field must be at least 3x3 (stencils need an interior ring), "
                f"got {arr.shape[1]}x{arr.shape[0]}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("field contains NaN or Inf values")
        if not (self.spacing > 0):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def like(self, data: np.ndarray) -> "ScalarField":
        """A new field with the same spacing."""
        return ScalarField(data, self.spacing)


class Gradient(NamedTuple):
    """The (dx, dy) arrays of gradient, same shape as the source field."""

    dx: np.ndarray
    dy: np.ndarray


# Below this, the squares of both components and their sum stay finite.
_SQUARE_SAFE = 1e153


def magnitude(dx: np.ndarray, dy: np.ndarray, out: np.ndarray | None = None,
              dy_squared: np.ndarray | None = None) -> np.ndarray:
    """sqrt(dx^2 + dy^2) as a raw array: ``out``, with dy^2 in
    ``dy_squared`` (new arrays when None; ``dy_squared`` may be dy itself).
    Within 1 ulp of np.hypot, which is 2-3x slower on an image's gradients,
    except below 1e-154, where the squares underflow. np.hypot takes over
    when a component reaches 1e153, where a square could overflow; it reads
    dx and dy as given.
    """
    peak = np.max([dx.max(initial=0.0), -dx.min(initial=0.0),
                   dy.max(initial=0.0), -dy.min(initial=0.0)])
    if not peak < _SQUARE_SAFE:
        return np.hypot(dx, dy, out=out)
    m = np.multiply(dx, dx, out=out)
    m += np.multiply(dy, dy, out=dy_squared)
    return np.sqrt(m, out=m)


def divide_by(a: np.ndarray, d: float) -> None:
    """a /= d in place, for a positive constant d. When d is a power of two
    its reciprocal is exact, so a * (1 / d) rounds to the same bits as
    a / d, and a multiply costs about a third of a divide (nothing when d
    is 1); that is how the stencils divide by 2h, h^2 or 4h^2.
    """
    mantissa, exponent = math.frexp(d)
    if mantissa == 0.5 and exponent > -1021:  # d = 2^k with 1 / d a float
        if d != 1.0:
            a *= 1.0 / d
    else:
        a /= d


def _flat(a: np.ndarray) -> np.ndarray:
    # a row-major array as one 1-D run over its rows, without a copy
    if not a.flags.c_contiguous:
        raise ValueError("array must be row-major (C-contiguous)")
    return a.reshape(-1)


def gradient(f: ScalarField, *,
             out: tuple[np.ndarray, np.ndarray] | None = None) -> Gradient:
    """First derivatives: central differences at interior pixels, one-sided
    at the borders, divided by the grid spacing. x runs along columns,
    y along rows. Bit-identical to np.gradient(f.data, f.spacing), but
    written straight into ``out`` = (dx, dy), row-major arrays, or new
    arrays when None, and returned as a Gradient of those arrays. The
    differences of the validated ``f`` are not checked again: where
    neighbours differ by more than the largest float they are Inf, as in
    curvature_array, and the caller checks.

    dx is taken as one pass over the flattened rows, which also differences
    across the end of each row; the first and last column are then
    overwritten with their one-sided differences.
    """
    d = f.data
    h = f.spacing
    dx, dy = (np.empty_like(d), np.empty_like(d)) if out is None else out
    np.subtract(d[2:], d[:-2], out=dy[1:-1])
    divide_by(dy[1:-1], 2.0 * h)
    np.subtract(d[1], d[0], out=dy[0])
    np.subtract(d[-1], d[-2], out=dy[-1])
    dy[0] /= h
    dy[-1] /= h
    run, dx_run = _flat(d), _flat(dx)
    np.subtract(run[2:], run[:-2], out=dx_run[1:-1])
    divide_by(dx_run[1:-1], 2.0 * h)
    np.subtract(d[:, 1], d[:, 0], out=dx[:, 0])
    np.subtract(d[:, -1], d[:, -2], out=dx[:, -1])
    dx[:, 0] /= h
    dx[:, -1] /= h
    return Gradient(dx, dy)


def gradient_magnitude(f: ScalarField, *,
                       out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                       ) -> np.ndarray:
    """Per-pixel magnitude of gradient(f) as a raw array, not validated: Inf
    where the gradient overflows. With ``out`` = (dx, dy, magnitude), the
    gradient is written into the first two, with dy^2 in the second at the
    end, and the magnitude into the third; new arrays when None.
    """
    grad_out, m = (None, None) if out is None else (out[:2], out[2])
    g = gradient(f, out=grad_out)
    return magnitude(g.dx, g.dy, m, dy_squared=g.dy)


def _result(shape: tuple, out: np.ndarray | None) -> np.ndarray:
    # the array an elementwise kernel writes into: ``out``, or a new one
    return np.empty(shape) if out is None else out


def edge_detector(z, *, out: np.ndarray | None = None):
    """g(z) = 1 / (1 + z^2) for z >= 0: equals 1 on flat regions and decays
    toward 0 where the (smoothed) image gradient is large. Accepts scalars
    or arrays; an array result is written into ``out`` when given.
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.multiply(z, z, out=_result(z.shape, out))
    out += 1.0
    np.divide(1.0, out, out=out)
    return out if out.ndim else float(out)


class Scratch:
    """Work arrays of one run on one grid shape. evolve makes one per run
    and passes it to every kernel of the step, which run one after another,
    so that a step reuses the same memory instead of faulting in fresh
    temporaries. A set is for one caller at a time; concurrent runs each
    need their own.

    ``buffers`` are five flat arrays of h * (w + 2) values, and ``arrays``
    the five (h, w) row-major views of their first h * w values.
    ``padded`` is (h + 2) x (w + 2). curvature_array lays the buffers out
    as rows of w + 2 values, one per row of ``padded``, so that each
    stencil is one flat run through all rows; once its differences are
    taken, ``padded`` is free and holds the cross term. Apart from that:

    - levelset.reinitialize uses all five arrays;
    - region_rhs takes array 2 for delta_eps and, to build a data term with
      a lambda other than 1, array 0, once curvature_array has returned;
    - weighted_averages writes H_eps into array 0 and 1 - H_eps into array 1,
      and returns array 0 as H, which energy_region reads and leaves as is;
    - geodesic_flow_rhs builds g, grad g, grad phi and |grad phi| in arrays
      0-4, once curvature_array has returned;
    - energy_region and energy_geodesic use arrays 1-4 (energy_geodesic
      array 0 as well).

    Apart from that H, no kernel returns one of these arrays.

    The set also keeps what depends only on the image: the mean and max of
    the image (image_stats) and two data-term arrays lam * (u - c)^2
    (data_term), made on first use, so only region runs have them. Each is
    keyed on the image array object, and the terms on c and lam as well,
    and is rebuilt only when its key changes. The contract: a set serves
    one run, and the image is not changed in place while it does.
    """

    def __init__(self, shape: tuple):
        h, w = shape
        self.shape = (h, w)
        self.padded = np.empty((h + 2, w + 2))
        self.buffers = tuple(np.empty(h * (w + 2)) for _ in range(5))
        self.arrays = tuple(b[:h * w].reshape(h, w) for b in self.buffers)
        self._image = None  # (image, mean, max)
        self._terms = [None, None]  # ((image, c, lam), array) per data term

    @classmethod
    def ensure(cls, scratch: "Scratch | None", shape: tuple) -> "Scratch":
        """``scratch``, or a fresh set when it is None; the shapes must agree."""
        if scratch is None:
            return cls(shape)
        if scratch.shape != tuple(shape):
            raise ValueError(f"scratch is for shape {scratch.shape}, not {tuple(shape)}")
        return scratch

    def image_stats(self, u: np.ndarray) -> tuple[float, float]:
        """image_stats(u), computed once per image array."""
        if self._image is None or self._image[0] is not u:
            self._image = (u, *image_stats(u))
        return self._image[1:]

    def data_term(self, which: int, u: np.ndarray, c: float, lam: float = 1.0, *,
                  work: np.ndarray | None = None) -> np.ndarray:
        """lam * (u - c)^2 in data-term array ``which`` (0 or 1), rebuilt
        only when u, c or lam differ from that array's last call; do not
        write into it. Built as (u - c) * ((u - c) * lam), which is
        bitwise ((u - c) * lam) * (u - c), and (u - c)^2 when lam is 1. A
        lam other than 1 takes (u - c) * lam in ``work``, an (h, w) array
        it overwrites (a new one when None).
        """
        entry = self._terms[which]
        if entry is not None:
            (image, c_was, lam_was), term = entry
            if image is u and c_was == c and lam_was == lam:
                return term
        term = np.empty(self.shape) if entry is None else entry[1]
        np.subtract(u, c, out=term)
        if lam == 1.0:
            term *= term
        else:
            term *= np.multiply(term, lam, out=work)
        self._terms[which] = ((u, c, lam), term)
        return term


def image_stats(u: np.ndarray) -> tuple[float, float]:
    """(mean, max) of an image over all its pixels."""
    flat = u.ravel()
    return float(flat.mean()), float(flat.max())


def curvature(phi: ScalarField, eta: float = CURVATURE_ETA) -> ScalarField:
    """Mean curvature of the level sets, div(grad(phi)/|grad(phi)|), via the
    second-order stencil

        k = (pxx*py^2 - 2*px*py*pxy + pyy*px^2) / (px^2 + py^2 + eta)^(3/2)

    with edge-replicated borders. Output is clamped to +-1/spacing, which is
    the finest curvature the grid can represent, so that explicit stepping
    stays stable where the gradient nearly vanishes.
    """
    return phi.like(curvature_array(phi.data, phi.spacing, eta))


def _rows_of(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    # the (h, w) pixels of a buffer laid out as h rows of w + 2 values
    h, w = shape
    return buffer[:h * (w + 2)].reshape(h, w + 2)[:, 1:-1]


def curvature_array(phi: np.ndarray, spacing: float = 1.0,
                    eta: float = CURVATURE_ETA, *,
                    scratch: Scratch | None = None) -> np.ndarray:
    """The stencil of ``curvature`` on a raw array, computed in ``scratch``
    (a fresh set when None) and returned in a new array, the only one it
    allocates. The power 3/2 is taken as den * sqrt(den), within 1 ulp of
    den ** 1.5; every other operation is done in the order the formula
    reads. The result is not validated: a phi so steep that the stencil
    overflows gives NaN or Inf, which the caller checks for.

    Every array operation is one flat run over the rows of the padded copy
    of phi, from its first pixel to its last: a neighbour is the same run
    shifted by 1 (x), by a padded row (y) or by both (the diagonals). The
    run also passes the border columns between rows; what it writes there
    is never read.
    """
    if not (eta > 0):
        raise ValueError(f"eta must be positive, got {eta}")
    h = spacing
    s = Scratch.ensure(scratch, phi.shape)
    p = s.padded
    # edge-replicated border, as np.pad(phi, 1, mode="edge")
    p[1:-1, 1:-1] = phi
    p[0, 1:-1] = phi[0]
    p[-1, 1:-1] = phi[-1]
    p[:, 0] = p[:, 1]
    p[:, -1] = p[:, -2]
    row = p.shape[1]
    first, n = row + 1, phi.shape[0] * row - 2
    flat = p.reshape(-1)

    def shifted(offset):
        return flat[first + offset:first + offset + n]

    c, left, right = shifted(0), shifted(-1), shifted(1)
    up, down = shifted(-row), shifted(row)
    # pixel (i, j) sits at i * row + j + 1 of every buffer, as in _rows_of
    px, py, pxx, pyy, pxy = (b[1:n + 1] for b in s.buffers)
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

    # the differences are taken, so the padded buffer takes the cross term
    cross = flat[1:n + 1]
    np.multiply(px, 2.0, out=cross)
    # num = pxx*py*py - 2*px*py*pxy + pyy*px*px, built in pxx
    cross *= py
    cross *= pxy
    pxx *= py
    pxx *= py
    pxx -= cross
    pyy *= px
    pyy *= px
    pxx += pyy
    # den = px*px + py*py + eta, built in pyy
    np.multiply(px, px, out=pyy)
    np.multiply(py, py, out=pxy)
    pyy += pxy
    pyy += eta
    np.sqrt(pyy, out=cross)
    cross *= pyy
    out = np.divide(_rows_of(s.buffers[2], phi.shape), _rows_of(flat, phi.shape),
                    out=np.empty(phi.shape))
    bound = 1.0 / h
    return np.clip(out, -bound, bound, out=out)


def _positive_eps(eps) -> np.ndarray:
    eps = np.asarray(eps, dtype=np.float64)
    if not np.all(eps > 0):
        raise ValueError("eps must be positive")
    return eps


def heaviside_eps(z, eps, *, out: np.ndarray | None = None):
    """Smooth step H_eps(z) = 1/2 (1 + (2/pi) arctan(z/eps)): strictly
    increasing, H_eps(0) = 1/2, limits 0 and 1. Accepts scalars or arrays;
    an array result is written into ``out`` when given, in the operation
    order of the formula.
    """
    eps = _positive_eps(eps)
    z = np.asarray(z, dtype=np.float64)
    out = np.divide(z, eps, out=_result(np.broadcast_shapes(z.shape, eps.shape), out))
    np.arctan(out, out=out)
    out *= 2.0 / math.pi
    out += 1.0
    out *= 0.5
    return out if out.ndim else float(out)


def delta_eps(z, eps, *, out: np.ndarray | None = None):
    """Exact derivative of heaviside_eps: (1/pi) eps / (eps^2 + z^2).
    Even in z, strictly positive, peaks at z = 0. An array result is written
    into ``out`` when given, in the operation order of the formula.
    """
    eps = _positive_eps(eps)
    z = np.asarray(z, dtype=np.float64)
    out = np.multiply(z, z, out=_result(np.broadcast_shapes(z.shape, eps.shape), out))
    out += eps * eps
    np.divide(eps / math.pi, out, out=out)
    return out if out.ndim else float(out)


# 5x5 Gaussian (sigma = 1), normalized to unit sum; used to pre-smooth the
# image before the edge detector sees its gradients.
_G5 = np.exp(-0.5 * np.arange(-2.0, 3.0) ** 2)
_KERNEL5 = np.outer(_G5, _G5) / np.outer(_G5, _G5).sum()


def gaussian_smooth(f: ScalarField) -> ScalarField:
    """Convolve with the fixed 5x5 sigma=1 Gaussian, edge-replicated borders."""
    return f.like(ndi.convolve(f.data, _KERNEL5, mode="nearest"))
