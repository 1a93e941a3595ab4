"""Time one set-up of a workload in a fresh interpreter and print it in seconds.

Set-up is importing levelseg and building the workload's initial level
set phi0. numpy and scipy.ndimage are imported before the clock starts:
their import does not depend on levelseg's code and, on a shared machine,
varies from minute to minute by more than the rest of the set-up takes.
Generating the phantom is the benchmark's own work and is not timed.
run.py starts this script several times and reports the median as setup_s.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path


def main(workload_name: str, seed: int) -> float:
    import numpy as np
    import scipy.ndimage  # noqa: F401

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from phantom import make_phantom
    from workloads import WORKLOADS, build_phi0, import_program

    start = time.perf_counter()
    program = import_program()
    imported = time.perf_counter() - start

    workload = WORKLOADS[workload_name]
    _, truth = make_phantom(workload.size, np.random.default_rng(seed))
    start = time.perf_counter()
    build_phi0(program, workload, truth)
    return imported + time.perf_counter() - start


if __name__ == "__main__":
    print(f"{main(sys.argv[1], int(sys.argv[2])):.6f}")
