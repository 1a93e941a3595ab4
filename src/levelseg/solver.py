"""Explicit time stepping: ties a model's right-hand side to level-set
updates with per-iteration region constants, periodic reinitialization,
an energy trace, and a windowed stopping rule on the motion of the zero level.

The loop has one model branch: the geodesic flow, or the region model whose
constants models.region_terms gives for Chan-Vese or the modified model.
The region models step with the H_eps-weighted constants that minimize their
energy at fixed phi, so the traced energy does not rise between
reinitializations. The loop calls the array kernels of the models under
np.errstate: a phi that overflows ends the run as 'stalled' instead of
raising or warning.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import levelset
from .grid import (
    ScalarField, Scratch, _all_finite, gaussian_smooth, gradient_magnitude, rowwise)
# evolve calls geodesic_rhs and region_rhs; mask_inside and the wrappers
# chan_vese_rhs, modified_rhs, energy_chan_vese and energy_modified are not
# called here, but stay importable from this module, where
# perfbench/tracer.py looks them up
from .levelset import (  # noqa: F401
    Contour, edge_crossings, extract_contour, mask_inside, reinitialize)
from .models import (  # noqa: F401
    MODEL_NAMES,
    EvolveParams,
    RegionStats,
    chan_vese_rhs,
    energy_chan_vese,
    energy_geodesic,
    energy_modified,
    energy_region,
    geodesic_rhs,
    modified_rhs,
    region_averages,
    region_rhs,
    region_terms,
    weighted_averages,
)

# an iteration is still when the zero crossings on the grid edges moved less
# than stop_tol px on average; this many still iterations in a row converge
STOP_WINDOW = 5
# relaxation sweeps of each reinitialization
REINIT_SWEEPS = 10
# the geodesic flow's edge contrast is this percentile of the smoothed
# image's gradient magnitude (_edge_image)
EDGE_PERCENTILE = 90
# region_terms decides lambda without looking at the region constants
_NO_STATS = RegionStats(c1=0.0, c2=0.0, n_inside=0, n_outside=0, max_intensity=0.0)


@dataclass(slots=True)
class TraceEntry:
    """One row of the energy trace. c_inside and c_outside are the first two
    of models.region_terms: c1 for Chan-Vese or the fixed alpha*M target for
    the modified model, then c2; both are None for geodesic runs. c1 and c2
    are the H_eps-weighted means of models.weighted_averages, not the binary
    means of region_averages. event marks the steps that reinitialized.
    moved is the stop rule's interface motion in px (None on row 0), and
    n_inside and crossings count phi >= 0 pixels and zero-crossing edges.
    """

    iteration: int
    energy: float
    c_inside: Optional[float]
    c_outside: Optional[float]
    event: str  # step | reinit
    moved: Optional[float]
    n_inside: int
    crossings: int


@dataclass
class SegmentationResult:
    """One evolve run: phi_final and its contour, an energy_trace row per
    iteration from 0, stats_final at phi_final, iterations_run steps of
    dt_used, and stop_reason: 'converged', 'max_iters' or 'stalled' (phi
    went non-finite; diagnostics says where). phi_final is float32 once a
    step was taken, and phi0's data, copied, when none was."""

    phi_final: ScalarField
    contour: Contour
    energy_trace: list
    stats_final: RegionStats
    iterations_run: int
    stop_reason: str
    dt_used: float
    diagnostics: Optional[str] = None

    @property
    def mask(self) -> np.ndarray:
        """{phi_final >= 0}, built on each access. It calls
        levelset.mask_inside, not this module's name for it, because the
        tracers of evolve wrap that name, and the mask is no part of a run."""
        return levelset.mask_inside(self.phi_final.data)

    def to_json(self) -> str:
        """Every field but phi_final as one JSON object, the contour as its
        [x, y] loops and closed flags. Floats are written by repr, so they
        read back bit-equal; a NaN energy is written NaN."""
        import json  # numpy has loaded it
        return json.dumps({
            "stop_reason": self.stop_reason, "iterations_run": self.iterations_run,
            "dt_used": self.dt_used, "diagnostics": self.diagnostics,
            "stats_final": asdict(self.stats_final),
            "energy_trace": [asdict(e) for e in self.energy_trace],
            "contour": {"loops": [loop.tolist() for loop in self.contour.loops],
                        "closed": self.contour.closed}})


def stability_dt(params: EvolveParams, model: str, spacing: float = 1.0) -> float:
    """The step evolve takes, the largest safe explicit one:
    dt * (4 mu / h^2 + max data term) <= 0.9 for the region models
    (intensities normalized to [0, 1], so the data term is bounded by
    max(lambda, 1) + |nu|, lambda from models.region_terms), and
    dt <= 0.25 h^2 for the geodesic flow. That bound is the curvature
    term's; on the benchmark's 512^2 phantoms the edge image of evolve
    gives max|grad g| = 0.67-0.72, so the advection term <grad g, grad phi>
    moves the zero level at most 0.18 px per step at dt = 0.25. This is
    where evolve checks the model name.
    """
    if model not in MODEL_NAMES:
        raise ValueError(f"unknown model {model!r}, expected one of {MODEL_NAMES}")
    h2 = spacing * spacing
    if model == "geodesic":
        return 0.25 * h2
    lam = region_terms(model, _NO_STATS, params)[2]
    return 0.9 / (4.0 * params.mu / h2 + max(lam, 1.0) + abs(params.nu))


def _edge_image(u: np.ndarray, spacing: float, scratch: Scratch) -> np.ndarray:
    """The image the geodesic kernels see: G*u (grid.gaussian_smooth)
    divided by beta, the EDGE_PERCENTILE-th percentile of |grad(G*u)|, so
    that their edge detector reads g = 1 / (1 + |grad(G*u)|^2 / beta^2).
    beta is Perona & Malik's contrast K: without it, g stays near 1 on
    [0, 1] input and the flow does not stop at the edges. The magnitude is
    taken in arrays 0-2 of ``scratch``, and the smoothed array is divided
    in place. When beta is 0 (a flat image, or edges on under a tenth of
    the pixels) the smoothed image is returned unscaled.
    """
    smooth = gaussian_smooth(u)
    z = gradient_magnitude(smooth, spacing, out=scratch.arrays[:3])
    beta = float(np.percentile(z, EDGE_PERCENTILE, overwrite_input=True))
    if beta > 0.0:
        np.divide(smooth, beta, out=smooth)
    return smooth


def _stats_and_energy(model, u, u_model, phi, params, h, scratch):
    """Region stats of phi, the region_terms of a region model (None for the
    geodesic flow) and the energy at phi, with ``scratch`` as work space.
    The region models get the H_eps-weighted constants, and their energy
    reuses that H_eps and 1 - H_eps, which weighted_averages leaves in
    arrays 0 and 1 of the set."""
    stats = region_averages(u, phi, scratch=scratch)
    if model == "geodesic":
        return stats, None, energy_geodesic(u_model, phi, params, h, scratch=scratch)
    stats, H = weighted_averages(u, phi, stats, params.eps, scratch=scratch)
    terms = region_terms(model, stats, params)
    return stats, terms, energy_region(u, phi, *terms, params, h, H=H,
                                       not_H=scratch.arrays[1], scratch=scratch)


def _interface_motion(before, after) -> float:
    """Mean displacement of the zero crossings between two iterations, in
    px: |t_after - t_before| on an edge crossed both times (the keys of each
    side gathered through the other's crossed mask), 1 on an edge crossed
    once (a crossing appeared or vanished); 0 when neither phi crosses zero.
    """
    moved, edges = 0.0, 0
    for (keys0, t0, crossed0), (keys1, t1, crossed1) in zip(before, after):
        shift = t1[crossed0[keys1]] - t0[crossed1[keys0]]
        once = len(keys0) + len(keys1) - 2 * len(shift)
        moved += float(np.abs(shift).sum(dtype=np.float64)) + once
        edges += len(shift) + once
    return moved / edges if edges else 0.0


def evolve(model: str, u0: ScalarField, phi0: ScalarField,
           params: EvolveParams) -> SegmentationResult:
    """Run one segmentation: phi <- phi + dt * rhs, with dt the stability_dt
    of the run's grid, region constants refreshed every iteration,
    reinitialization every ``reinit_every`` steps, and an energy entry per
    iteration. The region models use the H_eps-weighted constants of
    models.weighted_averages, which minimize their energy at fixed phi.

    An iteration is still when the zero crossings of phi on the grid edges
    (levelset.edge_crossings, the contour's vertices) moved less than
    ``stop_tol`` px on average (an edge that gained or lost its crossing
    counts as 1 px). The run stops after STOP_WINDOW still
    iterations in a row ('converged'), at ``max_iters``, or if phi goes
    non-finite ('stalled', with a diagnostic and the partial trace); overflow
    warnings on the way there are not raised. The energy is traced but does
    not decide the stop: phi can keep steepening around a contour that has
    stopped moving.

    The run steps in float32 and sums in float64: u0 and the work set are
    float32, and the first step writes phi, read as given, in float32.

    u0 must be normalized to [0, 1] and lie on phi0's grid (same shape and
    spacing); phi0 should be signed-distance-like (grid units) and is not
    written. For the geodesic model u0 is smoothed and divided by its
    gradient level (_edge_image) before its gradients feed the edge
    detector, so that g falls toward 0 at u0's edges.
    """
    params.validate()
    h = u0.spacing
    if u0.data.shape != phi0.data.shape or h != phi0.spacing:
        raise ValueError(
            f"image and level set grids differ: {u0.data.shape} at h = {h} "
            f"vs {phi0.data.shape} at h = {phi0.spacing}"
        )
    if u0.data.min() < -1e-9 or u0.data.max() > 1.0 + 1e-9:
        raise ValueError(
            "u0 must be normalized to [0, 1] (min-max normalize it first); "
            f"got range [{u0.data.min():.4g}, {u0.data.max():.4g}]"
        )

    dt = stability_dt(params, model, h)
    phi = phi0.data
    u = u0.data.astype(np.float32, copy=False)
    # work space of every kernel of the step for this run
    scratch = Scratch(phi.shape, np.float32)
    u_model = _edge_image(u, h, scratch) if model == "geodesic" else u
    stop_reason = "max_iters"
    diagnostics = None
    streak = 0
    iterations_run = 0

    # an overflowing phi must reach the finiteness check as NaN/Inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        stats, terms, energy = _stats_and_energy(model, u, u_model, phi, params, h, scratch)
        crossings = edge_crossings(phi)
        trace = [_row(0, energy, terms, "step", None, stats, crossings)]

        for it in range(1, params.max_iters + 1):
            # the rhs becomes the new phi in place: rhs * dt + phi
            new_data = (geodesic_rhs(u_model, phi, params, h, scratch=scratch)
                        if terms is None
                        else region_rhs(u, phi, *terms, params, h, scratch=scratch))
            rowwise(_advance_rows, new_data, dt, phi)
            # the step's one finiteness check, the one ScalarField runs
            if not _all_finite(new_data):
                stop_reason = "stalled"
                diagnostics = (
                    f"phi went non-finite at iteration {it} "
                    f"(dt={dt:.4g}, model={model}); returning partial result"
                )
                break
            # phi is the step now; a reinit below replaces it, and the
            # step's array must not stay alive into the next step
            phi = new_data
            del new_data
            event = "step"
            if params.reinit_every > 0 and it % params.reinit_every == 0:
                phi = reinitialize(phi, REINIT_SWEEPS, h, scratch=scratch)
                event = "reinit"
            stats, terms, energy = _stats_and_energy(model, u, u_model, phi, params, h, scratch)
            # the last step's crossings against this step's, which replace them
            moved = _interface_motion(crossings, crossings := edge_crossings(phi))
            trace.append(_row(it, energy, terms, event, moved, stats, crossings))
            iterations_run = it
            streak = streak + 1 if moved < params.stop_tol else 0
            if streak >= STOP_WINDOW:
                stop_reason = "converged"
                break

    # phi views the curvature's height x (width + 2) run buffer; the result
    # keeps a copy of its pixels, made once the work set and edge masks are freed
    del scratch, crossings
    phi = phi.copy()
    return SegmentationResult(
        phi_final=ScalarField(phi, h),
        contour=extract_contour(phi),
        energy_trace=trace,
        stats_final=stats,
        iterations_run=iterations_run,
        stop_reason=stop_reason,
        dt_used=dt,
        diagnostics=diagnostics,
    )


def _row(it, energy, terms, event, moved, stats, crossings) -> TraceEntry:
    return TraceEntry(it, energy, *(terms or (None, None))[:2], event, moved,
                      stats.n_inside, sum(len(keys) for keys, _, _ in crossings))


def _advance_rows(rhs, dt, phi):
    rhs *= dt
    rhs += phi
