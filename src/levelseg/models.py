"""Per-step right-hand sides and discrete energies of the three evolution
models: geodesic active contour, Chan-Vese with a weighted inside term, and
the modified Chan-Vese whose inside target is frozen at alpha * max(u0).

The two region models share one right-hand side (region_rhs) and one energy
(energy_region); region_terms is the only place where they differ.

Intensities are expected in normalized [0, 1] units for end-to-end runs
(min-max normalize u0 to [0, 1]); the operations themselves are
scale-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .grid import (
    Scratch,
    _check_count,
    _magnitude_rows,
    curvature,
    delta_eps,
    edge_detector,
    gradient,
    gradient_magnitude,
    heaviside_eps,
    image_stats,
    rowwise,
)

MODEL_NAMES = ("geodesic", "chan_vese", "modified")


@dataclass
class EvolveParams:
    """All model parameters.

    mu: length-penalty weight (>= 0), scaled for u0 normalized to [0, 1]
    nu: area-penalty weight (any sign)
    lam: weight of the inside data term, Chan-Vese variant only (> 0)
    alpha: inside-target fraction of max intensity, modified model only
    eps: Heaviside/delta regularization width (> 0)
    max_iters: iteration cap (an integer >= 0)
    stop_tol: interface-motion threshold of the stopping rule, in px per
        iteration: an iteration is still when the zero crossings on the grid
        edges moved less than this on average (see solver.evolve), at the
        step of solver.stability_dt: mu, lam, nu and the spacing h set the
        evolution time of an iteration, and so of the tolerance
    reinit_every: reinitialize every N steps (an integer; 0 disables)
    """

    mu: float = 0.2
    nu: float = 0.0
    lam: float = 1.0
    alpha: float = 0.7
    eps: float = 1.0
    max_iters: int = 500
    stop_tol: float = 5e-3
    reinit_every: int = 25

    def validate(self) -> None:
        for name in ("mu", "nu", "lam", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mu < 0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if not (self.lam > 0):
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (self.eps > 0):
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if not (self.stop_tol >= 0):  # NaN fails; inf makes every iteration still
            raise ValueError(f"stop_tol must be >= 0, got {self.stop_tol}")
        _check_count("max_iters", self.max_iters)
        _check_count("reinit_every", self.reinit_every)


@dataclass
class RegionStats:
    """Region constants of the current partition: c1 inside, c2 outside,
    the pixel counts of {phi >= 0} and {phi < 0}, and the global intensity
    maximum used by the modified model's inside target. An empty region has
    the global mean as its constant and a count of 0, which its flag reads.
    region_terms turns them into the constants a region model steps with.

    region_averages gives c1 and c2 as plain means over {phi >= 0} and
    {phi < 0}; weighted_averages replaces them with the H_eps-weighted means
    that evolve steps and traces the region models with.
    """

    c1: float
    c2: float
    n_inside: int
    n_outside: int
    max_intensity: float

    @property
    def empty_inside(self) -> bool:
        return self.n_inside == 0

    @property
    def empty_outside(self) -> bool:
        return self.n_outside == 0


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) over all pixels in float64, with no product array. einsum,
    not the @ of a threaded BLAS, whose threads spin on a vector this short.
    """
    return float(np.einsum("i,i->", a.ravel(), b.ravel(), dtype=np.float64))


def region_averages(u: np.ndarray, phi: np.ndarray, *,
                    scratch: Optional[Scratch] = None) -> RegionStats:
    """Mean intensity inside {phi >= 0} and outside {phi < 0}.

    A transiently empty region gets the global mean instead of NaN so the
    evolution can continue; its count of 0 records the degeneracy. The global
    mean and max come from ``scratch`` when given, which computes them once
    per image.
    """
    inside = phi.ravel() >= 0.0
    n_in = int(np.count_nonzero(inside))
    n_out = u.size - n_in
    global_mean, max_intensity = (image_stats(u) if scratch is None
                                  else scratch.image_stats(u))
    # sums over the mask as dot products, without copying u[inside]
    c1 = _dot(u, inside) / n_in if n_in else global_mean
    np.logical_not(inside, out=inside)
    c2 = _dot(u, inside) / n_out if n_out else global_mean
    return RegionStats(
        c1=c1,
        c2=c2,
        n_inside=n_in,
        n_outside=n_out,
        max_intensity=max_intensity,
    )


def weighted_averages(u: np.ndarray, phi: np.ndarray, stats: RegionStats,
                      eps: float, *, scratch: Optional[Scratch] = None
                      ) -> tuple[RegionStats, np.ndarray]:
    """The region constants that minimize the region energies at fixed phi
    (Chan & Vese 2001, eq. 6): c1 = sum(u H) / sum(H) and
    c2 = sum(u (1 - H)) / sum(1 - H), with H = heaviside_eps(phi, eps).

    Returns ``stats`` with c1 and c2 replaced, and H, so that the energy at
    the same phi need not compute it again. H and 1 - H are written into
    arrays 0 and 1 of ``scratch`` (a fresh set when None), and the H
    returned is array 0 of that set; energy_region can take array 1 as
    not_H. Pixel counts stay those of the hard partition in ``stats``. A
    weight sum is 0 only when that region is empty, since H_eps >= 1/2
    where phi >= 0 and 1 - H_eps >= 1/2 where phi < 0; its constant then
    stays the one of ``stats``, which region_averages sets to the global
    mean.
    """
    H, not_H = Scratch.ensure(scratch, phi).arrays[:2]
    heaviside_eps(phi, eps, out=H)
    rowwise(_complement_rows, not_H, H)
    sum_in, sum_out = float(H.sum(dtype=np.float64)), float(not_H.sum(dtype=np.float64))
    c1 = _dot(u, H) / sum_in if sum_in > 0 else stats.c1
    c2 = _dot(u, not_H) / sum_out if sum_out > 0 else stats.c2
    return replace(stats, c1=c1, c2=c2), H


def _complement_rows(not_H, H):
    np.subtract(1.0, H, out=not_H)


def region_terms(model: str, stats: RegionStats,
                 params: EvolveParams) -> tuple[float, float, float]:
    """(inside target, outside constant, lambda) of a region model: Chan-Vese
    fits both constants, (c1, c2, lam); the modified model freezes the inside
    target at alpha * max(u0) and drops the weight, (alpha * M, c2, 1).
    """
    if model == "modified":
        return params.alpha * stats.max_intensity, stats.c2, 1.0
    return stats.c1, stats.c2, params.lam


def region_rhs(u: np.ndarray, phi: np.ndarray, inside_target: float,
               outside_const: float, lam: float, params: EvolveParams,
               spacing: float = 1.0, *, scratch: Optional[Scratch] = None) -> np.ndarray:
    """Shared core of both region models:
    delta_eps(phi) * (mu*kappa - nu - lam*(u - inside)^2 + (u - outside)^2).

    The terms are summed in that order into the new array that curvature
    returns, with ``scratch`` (a fresh set when None) as work space: its
    data_term arrays for the squares (u - c)^2, which a reused set builds
    only when their constant changes, array 2 for delta_eps, and, when lam
    is not 1, array 0 for lam * (u - inside)^2. The result is not
    validated, so a phi that overflows the curvature stencil gives NaN or
    Inf here rather than an exception.
    """
    scratch = Scratch.ensure(scratch, phi)
    rhs = curvature(phi, spacing, scratch=scratch)
    delta = delta_eps(phi, params.eps, out=scratch.arrays[2])
    inside = scratch.data_term(0, u, inside_target)
    outside = scratch.data_term(1, u, outside_const)
    return rowwise(_region_sum_rows, rhs, params.mu, params.nu, lam, inside, outside, delta,
                   scratch.arrays[0])


def _region_sum_rows(rhs, mu, nu, lam, inside, outside, delta, weighted):
    rhs *= mu
    rhs -= nu
    rhs -= inside if lam == 1.0 else np.multiply(inside, lam, out=weighted)
    rhs += outside
    rhs *= delta


def chan_vese_rhs(u: np.ndarray, phi: np.ndarray, stats: RegionStats,
                  params: EvolveParams, spacing: float = 1.0) -> np.ndarray:
    """Descent direction of the weighted Chan-Vese energy at fixed (c1, c2):
    delta_eps(phi) * (mu*kappa - nu - lam*(u-c1)^2 + (u-c2)^2).
    """
    return region_rhs(u, phi, *region_terms("chan_vese", stats, params), params, spacing)


def modified_rhs(u: np.ndarray, phi: np.ndarray, stats: RegionStats,
                 params: EvolveParams, spacing: float = 1.0) -> np.ndarray:
    """Descent direction of the fixed-inside-target energy: the inside
    constant is pinned at alpha * max(u0) instead of the region average, so
    the contour is pulled toward high-intensity structure only.
    """
    return region_rhs(u, phi, *region_terms("modified", stats, params), params, spacing)


def geodesic_rhs(u: np.ndarray, phi: np.ndarray, params: EvolveParams,
                 spacing: float = 1.0, *, scratch: Optional[Scratch] = None) -> np.ndarray:
    """Geodesic active-contour flow g*kappa*|grad phi| + <grad g, grad phi>,
    summed in the order of the formula into the array that curvature
    returns. Once it has, g, grad g, grad phi and |grad phi| are built in
    arrays 0-4 of ``scratch`` (a fresh set when None). Not validated, so
    that a phi that overflows the curvature stencil gives NaN or Inf rather
    than an exception.

    u is expected pre-smoothed (grid.gaussian_smooth) so the edge detector
    sees finite gradients on noisy imagery; solver.evolve also divides it by
    its gradient level, so that g falls toward 0 at the edges.
    """
    scratch = Scratch.ensure(scratch, phi)
    rhs = curvature(phi, spacing, scratch=scratch)
    g, gx, gy, px, py = scratch.arrays
    edge_detector(gradient_magnitude(u, spacing, out=(gx, gy, g)), out=g)
    gradient(g, spacing, out=(gx, gy))
    gradient(phi, spacing, out=(px, py))
    return rowwise(_flow_rows, rhs, g, gx, gy, px, py)


def _flow_rows(rhs, g, gx, gy, px, py):
    rhs *= g
    # the dot product's terms first, so that g's array and py can take |grad phi|
    gx *= px
    gy *= py
    _magnitude_rows(g, px, py, py)
    rhs *= g
    rhs += gx
    rhs += gy


def energy_region(u: np.ndarray, phi: np.ndarray, inside_target: float,
                  outside_const: float, lam: float, params: EvolveParams,
                  spacing: float = 1.0, *, H: Optional[np.ndarray] = None,
                  not_H: Optional[np.ndarray] = None,
                  scratch: Optional[Scratch] = None) -> float:
    """Discrete energy shared by both region models, cell area h^2:

        lam sum (u - inside)^2 H + sum (u - outside)^2 (1 - H)
            + mu sum delta_eps(phi) |grad phi| + nu sum H

    with H = heaviside_eps(phi, eps), or ``H`` if the caller has it already,
    and 1 - H likewise, or ``not_H`` (both are read, not written). Each sum
    is a dot product. The squares (u - c)^2 are the data_term arrays of
    ``scratch`` (a fresh set when None), which a reused set shares with
    region_rhs; H goes into array 0 and 1 - H into array 1 when not given,
    and arrays 1-4 take the length term. Not validated: a phi whose
    gradient overflows gives NaN or Inf.
    """
    s = Scratch.ensure(scratch, phi)
    if H is None:
        H = heaviside_eps(phi, params.eps, out=s.arrays[0])
    weight, dx, dy, work = s.arrays[1:]
    if not_H is None:
        not_H = np.subtract(1.0, H, out=weight)
    inside = _dot(s.data_term(0, u, inside_target), H)
    outside = _dot(s.data_term(1, u, outside_const), not_H)
    area = float(H.sum(dtype=np.float64))
    # length term: delta_eps in weight, |grad phi| in work
    length = _dot(delta_eps(phi, params.eps, out=weight),
                  gradient_magnitude(phi, spacing, out=(dx, dy, work)))
    total = lam * inside + outside + params.mu * length + params.nu * area
    return total * spacing * spacing


def energy_chan_vese(u: np.ndarray, phi: np.ndarray, stats: RegionStats,
                     params: EvolveParams, spacing: float = 1.0) -> float:
    """energy_region with the Chan-Vese constants (c1, c2) and weight lam."""
    return energy_region(u, phi, *region_terms("chan_vese", stats, params), params, spacing)


def energy_modified(u: np.ndarray, phi: np.ndarray, stats: RegionStats,
                    params: EvolveParams, spacing: float = 1.0) -> float:
    """energy_region of the modified model: inside constant frozen at
    alpha * max(u0), outside constant c2, no lambda weighting.
    """
    return energy_region(u, phi, *region_terms("modified", stats, params), params, spacing)


def energy_geodesic(u: np.ndarray, phi: np.ndarray, params: EvolveParams,
                    spacing: float = 1.0, *, scratch: Optional[Scratch] = None) -> float:
    """Discrete edge-weighted contour length sum(g * delta_eps(phi) * |grad phi|) h^2;
    the quantity the geodesic flow shortens. Used for the trace only.
    The fields are built in the arrays of ``scratch`` (a fresh set when
    None), and the sum is a dot product.
    """
    g, delta, dx, dy, grad_mag = Scratch.ensure(scratch, phi).arrays
    edge_detector(gradient_magnitude(u, spacing, out=(dx, dy, g)), out=g)
    rowwise(_product_rows, g, delta_eps(phi, params.eps, out=delta))
    gradient_magnitude(phi, spacing, out=(dx, dy, grad_mag))
    return _dot(g, grad_mag) * spacing * spacing


def _product_rows(a, b):
    a *= b
