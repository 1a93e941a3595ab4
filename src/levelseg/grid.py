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
        arr = np.asarray(self.data, dtype=np.float64)
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


def _diff_rows(d: np.ndarray, out: np.ndarray, h: float) -> None:
    # np.gradient along axis 0 with uniform spacing h, written into out
    np.subtract(d[2:], d[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * h
    np.subtract(d[1], d[0], out=out[0])
    np.subtract(d[-1], d[-2], out=out[-1])
    out[0] /= h
    out[-1] /= h


def gradient(f: ScalarField, *,
             out: tuple[np.ndarray, np.ndarray] | None = None) -> Gradient:
    """First derivatives: central differences at interior pixels, one-sided
    at the borders, divided by the grid spacing. x runs along columns,
    y along rows. Bit-identical to np.gradient(f.data, f.spacing), but
    written straight into ``out`` = (dx, dy), or new arrays when None, and
    returned as a Gradient of those arrays. The differences of the
    validated ``f`` are not checked again: where neighbours differ by more
    than the largest float they are Inf, as in curvature_array, and the
    caller checks.
    """
    d = f.data
    dx, dy = (np.empty_like(d), np.empty_like(d)) if out is None else out
    _diff_rows(d, dy, f.spacing)
    _diff_rows(d.T, dx.T, f.spacing)
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
    """Work arrays of one step on one grid shape: ``padded``, (h+2) x (w+2),
    and five (h, w) ``arrays``. evolve makes one per run and passes it to
    every kernel of the step, which run one after another, so that a step
    reuses the same memory instead of faulting in fresh temporaries:

    - curvature_array and levelset.reinitialize use all of them;
    - region_rhs takes arrays 0-1 for its data terms and 2 for delta_eps,
      once curvature_array has returned;
    - weighted_averages writes H_eps into array 0 and 1 - H_eps into array 1,
      and returns array 0 as H, which energy_region reads and leaves as is;
    - geodesic_flow_rhs builds g, grad g, grad phi and |grad phi| in arrays
      0-4, once curvature_array has returned;
    - energy_region and energy_geodesic use arrays 1-4 (energy_geodesic
      array 0 as well).

    Apart from that H, no kernel returns one of these arrays. A set is for
    one caller at a time; concurrent runs each need their own.
    """

    def __init__(self, shape: tuple):
        h, w = shape
        self.shape = (h, w)
        self.padded = np.empty((h + 2, w + 2))
        self.arrays = tuple(np.empty((h, w)) for _ in range(5))

    @classmethod
    def ensure(cls, scratch: "Scratch | None", shape: tuple) -> "Scratch":
        """``scratch``, or a fresh set when it is None; the shapes must agree."""
        if scratch is None:
            return cls(shape)
        if scratch.shape != tuple(shape):
            raise ValueError(f"scratch is for shape {scratch.shape}, not {tuple(shape)}")
        return scratch


def curvature(phi: ScalarField, eta: float = CURVATURE_ETA) -> ScalarField:
    """Mean curvature of the level sets, div(grad(phi)/|grad(phi)|), via the
    second-order stencil

        k = (pxx*py^2 - 2*px*py*pxy + pyy*px^2) / (px^2 + py^2 + eta)^(3/2)

    with edge-replicated borders. Output is clamped to +-1/spacing, which is
    the finest curvature the grid can represent, so that explicit stepping
    stays stable where the gradient nearly vanishes.
    """
    return phi.like(curvature_array(phi.data, phi.spacing, eta))


def curvature_array(phi: np.ndarray, spacing: float = 1.0,
                    eta: float = CURVATURE_ETA, *,
                    scratch: Scratch | None = None) -> np.ndarray:
    """The stencil of ``curvature`` on a raw array, computed in ``scratch``
    (a fresh set when None) and returned in a new array. The power 3/2 is
    taken as den * sqrt(den), within 1 ulp of den ** 1.5; every other
    operation is done in the order the formula reads. The result is not
    validated: a phi so steep that the stencil overflows gives NaN or Inf,
    which the caller checks for.
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
    c = p[1:-1, 1:-1]
    left, right, up, down = p[1:-1, :-2], p[1:-1, 2:], p[:-2, 1:-1], p[2:, 1:-1]
    px, py, pxx, pyy, pxy = s.arrays
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
    # num = pxx*py*py - 2*px*py*pxy + pyy*px*px, built in pxx
    out *= py
    out *= pxy
    pxx *= py
    pxx *= py
    pxx -= out
    pyy *= px
    pyy *= px
    pxx += pyy
    # den = px*px + py*py + eta, built in pyy
    np.multiply(px, px, out=pyy)
    np.multiply(py, py, out=pxy)
    pyy += pxy
    pyy += eta
    np.sqrt(pyy, out=out)
    out *= pyy
    np.divide(pxx, out, out=out)
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
