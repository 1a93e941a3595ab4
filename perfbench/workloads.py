"""The benchmark's workloads, and how each one builds its inputs.

Every workload passes mu = 0.2 and leaves the other EvolveParams at their
defaults: at the default mu = 5 every model shrinks every seed to nothing
on [0, 1] input, so nothing would be segmented (see NOTES.md).
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

SRC = Path(__file__).resolve().parent.parent / "src"
MU = 0.2
DILATION_PX = 4.0  # geodesic_512 starts from the truth mask grown by this much
GOLDEN_SEED = 0    # golden masks come from image 0 of this phantom seed


@dataclass(frozen=True)
class Workload:
    model: str
    size: int
    max_iters: int
    iou_floor: float   # a correct segmentation of a phantom reaches this IoU
    init: str          # "seed_grid" or "dilated_truth"


WORKLOADS = {
    # The paper's model on its kind of data; needs about 1000 iterations.
    "modified_256": Workload("modified", 256, 1500, 0.95, "seed_grid"),
    # The same region code with lambda and a moving c1. Not in BENCHMARK.json:
    # on the seed code its early stop fails nearly every phantom, so its
    # end-to-end figures are zero or not steady (see NOTES.md).
    "chan_vese_256": Workload("chan_vese", 256, 1500, 0.95, "seed_grid"),
    # Refinement from a nearby contour at 512^2; the flow never stops on
    # [0, 1] input, so a fixed budget of 250 iterations is the workload.
    "geodesic_512": Workload("geodesic", 512, 250, 0.85, "dilated_truth"),
}


def import_program():
    """Import levelseg from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    modules = {
        name: importlib.import_module(f"levelseg.{name}")
        for name in ("grid", "levelset", "models", "solver")
    }
    for module in modules.values():
        if Path(module.__file__).resolve().parent != SRC / "levelseg":
            raise ImportError(f"{module.__name__} was imported from {module.__file__}, not {SRC}")
    return SimpleNamespace(**modules)


def build_phi0(program, workload: Workload, truth):
    """The initial level set: the default 4 x 4 seed circles through
    levelset.signed_distance, or for refinement the Euclidean signed
    distance of the truth mask dilated by DILATION_PX."""
    n = workload.size
    if workload.init == "seed_grid":
        ls = program.levelset
        return ls.signed_distance(ls.default_seed_grid(n, n), n, n)
    import scipy.ndimage as ndi

    grown = ndi.distance_transform_edt(~truth) <= DILATION_PX
    phi = ndi.distance_transform_edt(grown) - ndi.distance_transform_edt(~grown)
    return program.grid.ScalarField(phi)


def params_for(program, workload: Workload):
    return program.models.EvolveParams(mu=MU, max_iters=workload.max_iters)
