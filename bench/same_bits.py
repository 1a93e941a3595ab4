"""Fingerprints of a fixed set of evolve runs, to tell whether two source
trees give the same bits:

    python bench/same_bits.py SRC_DIR > a.json   # e.g. src, or a base branch's src
    diff a.json b.json

levelseg is imported from SRC_DIR; the phantoms, the start level sets and
the parameters come from this checkout's perfbench (phantom.make_phantom,
workloads.build_phi0 and workloads.params_for), so both trees get the same
inputs. Prints one JSON object: for each case, the iterations run, the stop
reason, and the sha256 of phi_final's bytes and of the result's to_json().
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from phantom import make_phantom  # noqa: E402
from workloads import WORKLOADS, build_phi0, params_for  # noqa: E402

# (workload, phantom seed, image indices, max_iters or None for the workload's)
CASES = (
    ("modified_256", 0, range(10), None),
    ("geodesic_512", 0, range(5), None),
    ("chan_vese_256", 0, range(1), 200),
    ("modified_256", 64, (27,), None),
)


def import_levelseg(src: Path) -> SimpleNamespace:
    """levelseg's modules from ``src``, and from nowhere else."""
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"levelseg.{name}")
               for name in ("grid", "levelset", "models", "solver")}
    for module in modules.values():
        if Path(module.__file__).resolve().parent != src / "levelseg":
            raise ImportError(f"{module.__name__} was imported from {module.__file__}, not {src}")
    return SimpleNamespace(**modules)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    program = import_levelseg(Path(argv[0]).resolve())
    report = {}
    for name, seed, indices, max_iters in CASES:
        workload = WORKLOADS[name]
        params = params_for(program, workload)
        if max_iters is not None:
            params.max_iters = max_iters
        rng = np.random.default_rng(seed)
        for index in range(max(indices) + 1):
            u, truth = make_phantom(workload.size, rng)
            if index not in indices:
                continue
            result = program.solver.evolve(workload.model, program.grid.ScalarField(u),
                                           build_phi0(program, workload, truth), params)
            report[f"{name} seed {seed} image {index} max_iters {params.max_iters}"] = {
                "iterations": result.iterations_run,
                "stop_reason": result.stop_reason,
                "phi_final_sha256": sha256(result.phi_final.data.tobytes()),
                "to_json_sha256": sha256(result.to_json().encode()),
            }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
