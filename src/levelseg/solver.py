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

import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import levelset
from .grid import ScalarField, Scratch, gaussian_smooth, gradient_magnitude, rowwise
# mask_inside and the wrappers chan_vese_rhs, modified_rhs, geodesic_rhs,
# energy_chan_vese and energy_modified are not called here; they stay
# importable from this module, where perfbench/tracer.py looks them up
from .levelset import (  # noqa: F401
    Contour, edge_crossings, extract_contour, mask_inside, reinitialize)
from .models import (  # noqa: F401
    MODEL_NAMES,
    EvolveParams,
    RegionStats,
    _check_dims,
    chan_vese_rhs,
    energy_chan_vese,
    energy_geodesic,
    energy_modified,
    energy_region,
    geodesic_flow_rhs,
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
    """

    iteration: int
    energy: float
    c_inside: Optional[float]
    c_outside: Optional[float]
    event: str  # step | reinit


@dataclass
class SegmentationResult:
    phi_final: ScalarField
    contour: Contour
    energy_trace: list
    stats_final: RegionStats
    iterations_run: int
    stop_reason: str  # converged | max_iters | stalled
    dt_used: float
    diagnostics: Optional[str] = None

    @property
    def mask(self) -> np.ndarray:
        """{phi_final >= 0}, built on each access through levelset: tracers
        of evolve wrap this module's name mask_inside."""
        return levelset.mask_inside(self.phi_final)


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


def _edge_image(u0: ScalarField, scratch: Scratch) -> ScalarField:
    """The image the geodesic kernels see: G*u0 (grid.gaussian_smooth)
    divided by beta, the EDGE_PERCENTILE-th percentile of |grad(G*u0)|, so
    that their edge detector reads g = 1 / (1 + |grad(G*u0)|^2 / beta^2).
    beta is Perona & Malik's contrast K: without it, g stays near 1 on
    [0, 1] input and the flow does not stop at the edges. The magnitude is
    taken in arrays 0-2 of ``scratch``, and the smoothed array is divided
    in place. When beta is 0 (a flat image, or edges on under a tenth of
    the pixels) the smoothed image is returned unscaled.
    """
    smooth = gaussian_smooth(u0)
    z = gradient_magnitude(smooth.data, smooth.spacing, out=scratch.arrays[:3])
    beta = float(np.percentile(z, EDGE_PERCENTILE, overwrite_input=True))
    if beta > 0.0:
        np.divide(smooth.data, beta, out=smooth.data)
    return smooth


def _stats_and_energy(model, u0, u_model, phi, params, scratch):
    """Region stats of phi, the region_terms of a region model (None for the
    geodesic flow) and the energy at phi, with ``scratch`` as work space.
    The region models get the H_eps-weighted constants, and their energy
    reuses that H_eps and 1 - H_eps, which weighted_averages leaves in
    arrays 0 and 1 of the set."""
    stats = region_averages(u0, phi, scratch=scratch)
    if model == "geodesic":
        return stats, None, energy_geodesic(u_model, phi, params, scratch=scratch)
    stats, H = weighted_averages(u0, phi, stats, params.eps, scratch=scratch)
    terms = region_terms(model, stats, params)
    return stats, terms, energy_region(u0, phi, *terms, params, H=H,
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
        moved += float(np.abs(shift).sum()) + once
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

    u0 must be normalized to [0, 1] and lie on phi0's grid (same shape and
    spacing); phi0 should be signed-distance-like (grid units) and is not
    written. For the geodesic model u0 is smoothed and divided by its
    gradient level (_edge_image) before its gradients feed the edge
    detector, so that g falls toward 0 at u0's edges.
    """
    params.validate()
    _check_dims(u0, phi0)
    if u0.data.min() < -1e-9 or u0.data.max() > 1.0 + 1e-9:
        raise ValueError(
            "u0 must be normalized to [0, 1] (min-max normalize it first); "
            f"got range [{u0.data.min():.4g}, {u0.data.max():.4g}]"
        )

    dt = stability_dt(params, model, u0.spacing)
    phi = phi0
    # work space of every kernel of the step for this run
    scratch = Scratch(phi.data.shape)
    u_model = _edge_image(u0, scratch) if model == "geodesic" else u0
    stop_reason = "max_iters"
    diagnostics = None
    streak = 0
    iterations_run = 0

    # an overflowing phi must reach the finiteness check as NaN/Inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        stats, terms, energy = _stats_and_energy(model, u0, u_model, phi, params, scratch)
        trace = [TraceEntry(0, energy, *(terms or (None, None))[:2], "step")]
        crossings = edge_crossings(phi.data)

        for it in range(1, params.max_iters + 1):
            # the rhs becomes the new phi in place: rhs * dt + phi
            new_data = (geodesic_flow_rhs(u_model, phi, params, scratch=scratch)
                        if terms is None
                        else region_rhs(u0, phi, *terms, params, scratch=scratch))
            rowwise(_advance_rows, new_data, dt, phi.data)
            try:
                # the field's own check is the step's one finiteness check
                phi = phi.like(new_data)
            except ValueError:
                stop_reason = "stalled"
                diagnostics = (
                    f"phi went non-finite at iteration {it} "
                    f"(dt={dt:.4g}, model={model}); returning partial result"
                )
                break
            # phi holds the step now; a reinit below replaces it, and the
            # step's array must not stay alive into the next step
            del new_data
            event = "step"
            if params.reinit_every > 0 and it % params.reinit_every == 0:
                phi = reinitialize(phi, REINIT_SWEEPS, scratch=scratch)
                event = "reinit"
            stats, terms, energy = _stats_and_energy(model, u0, u_model, phi, params, scratch)
            trace.append(TraceEntry(it, energy, *(terms or (None, None))[:2], event))
            iterations_run = it

            # the last step's crossings against this step's, which replace them
            moved = _interface_motion(crossings, crossings := edge_crossings(phi.data))
            streak = streak + 1 if moved < params.stop_tol else 0
            if streak >= STOP_WINDOW:
                stop_reason = "converged"
                break

    # phi's data is a view of the curvature's h x (w + 2) run buffer; the result
    # keeps an h x w copy, made once the work set and the edge masks are freed
    del scratch, crossings
    phi = phi.like(phi.data.copy())
    return SegmentationResult(
        phi_final=phi,
        contour=extract_contour(phi),
        energy_trace=trace,
        stats_final=stats,
        iterations_run=iterations_run,
        stop_reason=stop_reason,
        dt_used=dt,
        diagnostics=diagnostics,
    )


def _advance_rows(rhs, dt, phi):
    rhs *= dt
    rhs += phi


def trace_csv(trace) -> str:
    """CSV serialization: iter,energy,c1_or_alphaM,c2,event."""
    out = io.StringIO()
    out.write("iter,energy,c1_or_alphaM,c2,event\n")
    for e in trace:
        ci = "" if e.c_inside is None else f"{e.c_inside:.9g}"
        co = "" if e.c_outside is None else f"{e.c_outside:.9g}"
        out.write(f"{e.iteration},{e.energy:.9g},{ci},{co},{e.event}\n")
    return out.getvalue()
