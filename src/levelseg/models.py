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

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .grid import (
    ScalarField,
    curvature,  # noqa: F401  not called here; perfbench/tracer.py looks it up in this module
    curvature_array,
    delta_eps,
    edge_detector,
    gradient,
    gradient_magnitude,
    heaviside_eps,
)

MODEL_NAMES = ("geodesic", "chan_vese", "modified")


@dataclass
class EvolveParams:
    """All model parameters.

    mu: length-penalty weight (>= 0)
    nu: area-penalty weight (any sign)
    lam: weight of the inside data term, Chan-Vese variant only (> 0)
    alpha: inside-target fraction of max intensity, modified model only
    eps: Heaviside/delta regularization width (> 0)
    dt: explicit time step; None selects the stability bound automatically
    max_iters: iteration cap
    stop_tol: interface-motion threshold of the stopping rule, in px per
        iteration: an iteration is still when the zero crossings on the grid
        edges moved less than this on average (see solver.evolve)
    reinit_every: reinitialize the level set every N steps (0 disables)
    reinit_sweeps: relaxation sweeps per reinitialization
    """

    mu: float = 5.0
    nu: float = 0.0
    lam: float = 1.0
    alpha: float = 0.7
    eps: float = 1.0
    dt: Optional[float] = None
    max_iters: int = 500
    stop_tol: float = 5e-3
    reinit_every: int = 25
    reinit_sweeps: int = 10

    def validate(self) -> None:
        if self.mu < 0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")
        if not (self.lam > 0):
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (self.eps > 0):
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.dt is not None and not (self.dt > 0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.stop_tol < 0:
            raise ValueError(f"stop_tol must be >= 0, got {self.stop_tol}")
        if self.reinit_every < 0:
            raise ValueError(f"reinit_every must be >= 0, got {self.reinit_every}")
        if self.reinit_sweeps < 0:
            raise ValueError(f"reinit_sweeps must be >= 0, got {self.reinit_sweeps}")


@dataclass
class RegionStats:
    """Region constants of the current partition: c1 inside, c2 outside,
    the pixel counts of {phi >= 0} and {phi < 0}, and the global intensity
    maximum used by the modified model's inside target. Empty regions fall
    back to the global mean and are flagged. region_terms turns them into the
    constants a region model steps with.

    region_averages gives c1 and c2 as plain means over {phi >= 0} and
    {phi < 0}; weighted_averages replaces them with the H_eps-weighted means
    that evolve steps and traces the region models with.
    """

    c1: float
    c2: float
    n_inside: int
    n_outside: int
    max_intensity: float
    empty_inside: bool = False
    empty_outside: bool = False


def _check_dims(u0: ScalarField, phi: ScalarField) -> None:
    if u0.data.shape != phi.data.shape:
        raise ValueError(
            f"image and level set dimensions differ: {u0.data.shape} vs {phi.data.shape}"
        )


def region_averages(u0: ScalarField, phi: ScalarField) -> RegionStats:
    """Mean intensity inside {phi >= 0} and outside {phi < 0}.

    A transiently empty region gets the global mean instead of NaN so the
    evolution can continue; the flag records the degeneracy.
    """
    _check_dims(u0, phi)
    u = u0.data
    inside = phi.data >= 0.0
    n_in = int(inside.sum())
    n_out = u.size - n_in
    global_mean = float(u.mean())
    c1 = float(u[inside].mean()) if n_in else global_mean
    c2 = float(u[~inside].mean()) if n_out else global_mean
    return RegionStats(
        c1=c1,
        c2=c2,
        n_inside=n_in,
        n_outside=n_out,
        max_intensity=float(u.max()),
        empty_inside=n_in == 0,
        empty_outside=n_out == 0,
    )


def weighted_averages(u0: ScalarField, phi: ScalarField, stats: RegionStats,
                      eps: float) -> tuple[RegionStats, np.ndarray]:
    """The region constants that minimize the region energies at fixed phi
    (Chan & Vese 2001, eq. 6): c1 = sum(u0 H) / sum(H) and
    c2 = sum(u0 (1 - H)) / sum(1 - H), with H = heaviside_eps(phi, eps).

    Returns ``stats`` with c1 and c2 replaced, and H, so that the energy at
    the same phi need not compute it again. Pixel counts and empty flags stay
    those of the hard partition in ``stats``; a weight sum that underflows
    to 0 gives the global mean.
    """
    u = u0.data.ravel()
    H = heaviside_eps(phi.data, eps)
    w_in = H.ravel()
    w_out = 1.0 - w_in
    sum_in, sum_out = float(w_in.sum()), float(w_out.sum())
    c1 = float(u @ w_in) / sum_in if sum_in > 0 else float(u.mean())
    c2 = float(u @ w_out) / sum_out if sum_out > 0 else float(u.mean())
    return replace(stats, c1=c1, c2=c2), H


def region_terms(model: str, stats: RegionStats,
                 params: EvolveParams) -> tuple[float, float, float]:
    """(inside target, outside constant, lambda) of a region model: Chan-Vese
    fits both constants, (c1, c2, lam); the modified model freezes the inside
    target at alpha * max(u0) and drops the weight, (alpha * M, c2, 1).
    """
    if model == "modified":
        return params.alpha * stats.max_intensity, stats.c2, 1.0
    return stats.c1, stats.c2, params.lam


def region_rhs(u0: ScalarField, phi: ScalarField, inside_target: float,
               outside_const: float, lam: float, params: EvolveParams) -> np.ndarray:
    """Shared core of both region models as a raw array:
    delta_eps(phi) * (mu*kappa - nu - lam*(u0 - inside)^2 + (u0 - outside)^2).

    The result is not validated, so a phi that overflows the curvature
    stencil gives NaN or Inf here rather than an exception.
    """
    u = u0.data
    kappa = curvature_array(phi.data, phi.spacing)
    delta = delta_eps(phi.data, params.eps)
    din = u - inside_target
    dout = u - outside_const
    return delta * (params.mu * kappa - params.nu - lam * din * din + dout * dout)


def chan_vese_rhs(u0: ScalarField, phi: ScalarField, stats: RegionStats,
                  params: EvolveParams) -> ScalarField:
    """Descent direction of the weighted Chan-Vese energy at fixed (c1, c2):
    delta_eps(phi) * (mu*kappa - nu - lam*(u0-c1)^2 + (u0-c2)^2).
    """
    _check_dims(u0, phi)
    return phi.like(region_rhs(u0, phi, *region_terms("chan_vese", stats, params), params))


def modified_rhs(u0: ScalarField, phi: ScalarField, stats: RegionStats,
                 params: EvolveParams) -> ScalarField:
    """Descent direction of the fixed-inside-target energy: the inside
    constant is pinned at alpha * max(u0) instead of the region average, so
    the contour is pulled toward high-intensity structure only.
    """
    _check_dims(u0, phi)
    return phi.like(region_rhs(u0, phi, *region_terms("modified", stats, params), params))


def geodesic_rhs(u0: ScalarField, phi: ScalarField, params: EvolveParams) -> ScalarField:
    """Geodesic active-contour flow g*kappa*|grad phi| + <grad g, grad phi>.

    u0 is expected pre-smoothed (grid.gaussian_smooth) so the edge detector
    sees finite gradients on noisy imagery.
    """
    _check_dims(u0, phi)
    return phi.like(geodesic_flow_rhs(u0, phi, params))


def geodesic_flow_rhs(u0: ScalarField, phi: ScalarField, params: EvolveParams) -> np.ndarray:
    """geodesic_rhs as a raw array, not validated, so that a phi that
    overflows the curvature stencil gives NaN or Inf rather than an exception.
    """
    g = u0.like(edge_detector(gradient_magnitude(u0).data))
    gg = gradient(g)
    gp = gradient(phi)
    kappa = curvature_array(phi.data, phi.spacing)
    return g.data * kappa * gp.magnitude() + gg.dx * gp.dx + gg.dy * gp.dy


def energy_region(u0: ScalarField, phi: ScalarField, inside_target: float,
                  outside_const: float, lam: float, params: EvolveParams,
                  H: Optional[np.ndarray] = None) -> float:
    """Discrete energy shared by both region models: data terms against the
    inside target and the outside constant, the inside one weighted by lam,
    plus length (mu) and area (nu) penalties, cell area h^2. ``H`` is
    heaviside_eps(phi, eps) if the caller has it already.
    """
    u = u0.data
    h2 = phi.spacing * phi.spacing
    if H is None:
        H = heaviside_eps(phi.data, params.eps)
    delta = delta_eps(phi.data, params.eps)
    grad_mag = gradient_magnitude(phi).data
    din = u - inside_target
    dout = u - outside_const
    total = (
        lam * din * din * H
        + dout * dout * (1.0 - H)
        + params.mu * delta * grad_mag
        + params.nu * H
    )
    return float(total.sum() * h2)


def energy_chan_vese(u0: ScalarField, phi: ScalarField, stats: RegionStats,
                     params: EvolveParams, H: Optional[np.ndarray] = None) -> float:
    """energy_region with the Chan-Vese constants (c1, c2) and weight lam."""
    _check_dims(u0, phi)
    return energy_region(u0, phi, *region_terms("chan_vese", stats, params), params, H)


def energy_modified(u0: ScalarField, phi: ScalarField, stats: RegionStats,
                    params: EvolveParams, H: Optional[np.ndarray] = None) -> float:
    """energy_region of the modified model: inside constant frozen at
    alpha * max(u0), outside constant c2, no lambda weighting.
    """
    _check_dims(u0, phi)
    return energy_region(u0, phi, *region_terms("modified", stats, params), params, H)


def energy_geodesic(u0: ScalarField, phi: ScalarField, params: EvolveParams) -> float:
    """Discrete edge-weighted contour length sum(g * delta_eps(phi) * |grad phi|) h^2;
    the quantity the geodesic flow shortens. Used for trace/stopping only.
    """
    _check_dims(u0, phi)
    g = edge_detector(gradient_magnitude(u0).data)
    delta = delta_eps(phi.data, params.eps)
    grad_mag = gradient_magnitude(phi).data
    return float((g * delta * grad_mag).sum() * phi.spacing * phi.spacing)
