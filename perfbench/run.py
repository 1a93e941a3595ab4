"""levelseg benchmark: accurate segmentations per minute on seeded phantoms.

Run from the repository root:

    python3 perfbench/run.py --workload modified_256 --seed 1 --seconds 40 --trace 0

The run segments one phantom after another, each generated from --seed,
through the public API (phi0 -> evolve -> SegmentationResult), until
--seconds have passed; it always finishes the image it started. It checks
every result and prints each metric with its unit, then one JSON object as
the last line of standard output.

--trace 0 reports the end-to-end metrics. --trace 1 segments each image
twice, untraced and traced (see tracer.py), and reports per-layer metrics.
Spans and per-image records go to perfbench/out/. NOTES.md explains the
workloads and every metric.

    python3 perfbench/run.py --record-golden

re-records the golden masks in perfbench/golden/ from the current program.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from phantom import iou, make_phantom, phase_symmetric_iou
from tracer import TRACED, Tracer, resolve_targets, self_times, write_spans
from workloads import GOLDEN_SEED, WORKLOADS, build_phi0, import_program, params_for

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
GOLDEN_DIR = BENCH_DIR / "golden"
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60
STOP_REASONS = ("converged", "max_iters", "stalled")
# calls counted per solver iteration, with the metric name each one feeds
PER_ITER_CALLS = {
    "grid.gradient": "grid.gradient.calls_per_iter",
    "grid.gradient_magnitude": "grid.gradient_magnitude.calls_per_iter",
    "grid.edge_detector": "grid.edge_detector.calls_per_iter",
    "grid.delta_eps": "grid.delta_eps.calls_per_iter",
    "grid.heaviside_eps": "grid.heaviside_eps.calls_per_iter",
    "grid.scalarfield_check": "grid.scalarfield_checks_per_iter",
    "models.region_averages": "models.region_averages.calls_per_iter",
}
# self time per segmented image, in ms
PER_IMAGE_SELF = {
    "grid.curvature": "grid.curvature.self_ms",
    "models.rhs": "models.rhs.self_ms",
    "models.energy": "models.energy.self_ms",
    "models.region_averages": "models.region_averages.self_ms",
}
LAYERS = ("grid", "models", "levelset", "solver")
UNITS = {
    "good_per_min": "1/min", "iou_mean": "ratio", "pass_rate": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB",
    **{metric: "count" for metric in PER_ITER_CALLS.values()},
    **{metric: "ms" for metric in PER_IMAGE_SELF.values()},
    **{f"{layer}.self_ms_per_iter": "ms" for layer in LAYERS},
    "levelset.reinitialize.ms_per_call": "ms", "levelset.reinitialize.calls": "count",
    "levelset.extract_contour.ms": "ms", "levelset.signed_distance.ms": "ms",
    "solver.iters_p50": "count", "solver.ms_per_iter": "ms",
    **{f"solver.stops.{reason}": "count" for reason in STOP_REASONS},
    "solver.mask_iou_golden": "ratio", "trace_overhead_pct": "%",
}


def mask_hash(mask: np.ndarray) -> str:
    digest = hashlib.sha256(repr(mask.shape).encode())
    digest.update(np.packbits(mask).tobytes())
    return digest.hexdigest()


def output_problems(result, workload, params) -> list:
    """What is wrong with a SegmentationResult regardless of accuracy."""
    problems = []
    phi = result.phi_final.data
    n = workload.size
    if phi.shape != (n, n):
        problems.append(f"phi_final has shape {phi.shape}, not {(n, n)}")
    elif result.mask.dtype != bool or not np.array_equal(result.mask, phi >= 0.0):
        problems.append("mask is not {phi_final >= 0}")
    if result.stop_reason not in STOP_REASONS:
        problems.append(f"unknown stop reason {result.stop_reason!r}")
    if not 0 <= result.iterations_run <= params.max_iters:
        problems.append(f"iterations_run {result.iterations_run} outside [0, {params.max_iters}]")
    if len(result.energy_trace) != result.iterations_run + 1:
        problems.append("energy trace length is not iterations_run + 1")
    if len(result.contour.closed) != len(result.contour.loops):
        problems.append("contour closed flags do not match its loops")
    verts = result.contour.vertices()
    if np.all(np.isfinite(phi)) and not (np.all(verts >= 0.0) and np.all(verts <= n - 1)):
        problems.append("contour vertices leave the grid")
    return problems


def segment(program, workload, u0, truth, phi0, evolve) -> tuple:
    """Segment one image and judge it: returns (record, result), where the
    result is None if evolve raised. The wall time runs from the evolve
    call to the returned result, which includes the mask and the contour."""
    params = params_for(program, workload)
    score = phase_symmetric_iou if workload.model == "chan_vese" else iou
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    try:
        result = evolve(workload.model, u0, phi0, params)
    except Exception:  # an image that raises is a failure; the run goes on
        wall = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return {"wall_s": wall, "iou": 0.0, "good": False, "problems": [],
                "stop": "raised", "iters": 0, "mask_sha256": None}, None
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    problems = output_problems(result, workload, params)
    value = score(result.mask, truth)
    good = (not problems and result.stop_reason != "stalled"
            and bool(np.all(np.isfinite(result.phi_final.data))) and value >= workload.iou_floor)
    return {"wall_s": wall, "iou": value, "good": good, "problems": problems,
            "stop": result.stop_reason, "iters": result.iterations_run,
            "mask_sha256": mask_hash(result.mask), "minor_faults": faults}, result


def image_stream(workload, seed):
    rng = np.random.default_rng(seed)
    for index in itertools.count():
        u, truth = make_phantom(workload.size, rng)
        yield index, u, truth


def measure_setup(workload_name: str, seed: int) -> float:
    """Median set-up time over fresh interpreters (see setup_probe.py)."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    print("set-up probes (s):", " ".join(f"{t:.4f}" for t in times))
    return statistics.median(times)


def warm_up(program, workload, seed):
    # first calls fault in numpy/scipy code and memory; users pay that once
    _, u, truth = next(image_stream(workload, seed))
    params = params_for(program, workload)
    params.max_iters = 3
    program.solver.evolve(workload.model, program.grid.ScalarField(u),
                          build_phi0(program, workload, truth), params)


def untraced_run(program, workload, args) -> tuple:
    # results are kept to the end of the run, as a caller collecting a batch
    # would; what is alive decides how the allocator behaves (see NOTES.md)
    records, kept = [], []
    start = time.perf_counter()
    for index, u, truth in image_stream(workload, args.seed):
        if records and time.perf_counter() - start >= args.seconds:
            break
        phi0 = build_phi0(program, workload, truth)
        rec, result = segment(program, workload, program.grid.ScalarField(u), truth, phi0,
                              program.solver.evolve)
        rec["image"] = index
        records.append(rec)
        kept.append(result)
    pass_rate = sum(r["good"] for r in records) / len(records)
    metrics = {
        # at the median image time, which leaves out the first evolve of the
        # process while the allocator settles (see NOTES.md)
        "good_per_min": pass_rate * 60.0 / statistics.median(r["wall_s"] for r in records),
        "iou_mean": statistics.fmean(r["iou"] for r in records),
        "pass_rate": pass_rate,
    }
    return records, metrics


def trace_targets(program):
    owners = {
        "levelseg.solver": program.solver,
        "levelseg.models": program.models,
        "levelseg.grid": program.grid,
        "levelseg.grid.ScalarField": program.grid.ScalarField,
    }
    return resolve_targets(owners, TRACED)


def layer_metrics(spans, images) -> dict:
    """Per-layer figures from the spans of traced images. ``images`` is a
    list of (first span index, end span index, iterations run)."""
    selfs = self_times(spans)
    self_ns, calls, total_ns = {}, {}, {}
    loop_calls = {name: 0 for name in PER_ITER_CALLS}
    layer_ns = dict.fromkeys(LAYERS, 0)
    iters = 0
    for first, end, n_iter in images:
        iters += n_iter
        # an iteration starts with the rhs; earlier calls are iteration 0
        loop_start = next((spans[i][1] for i in range(first, end) if spans[i][0] == "models.rhs"), None)
        for i in range(first, end):
            name, start, stop, _ = spans[i]
            self_ns[name] = self_ns.get(name, 0) + selfs[i]
            total_ns[name] = total_ns.get(name, 0) + stop - start
            calls[name] = calls.get(name, 0) + 1
            layer_ns[name.split(".")[0]] += selfs[i]
            if name in loop_calls and loop_start is not None and start >= loop_start:
                loop_calls[name] += 1
    n_img = len(images)
    out = {metric: loop_calls[name] / iters for name, metric in PER_ITER_CALLS.items()}
    out.update({metric: self_ns.get(name, 0) / 1e6 / n_img for name, metric in PER_IMAGE_SELF.items()})
    out.update({f"{layer}.self_ms_per_iter": layer_ns[layer] / 1e6 / iters for layer in LAYERS})
    n_reinit = calls.get("levelset.reinitialize", 0)
    out["levelset.reinitialize.calls"] = n_reinit / n_img
    out["levelset.reinitialize.ms_per_call"] = (
        total_ns.get("levelset.reinitialize", 0) / 1e6 / n_reinit if n_reinit else 0.0)
    out["levelset.extract_contour.ms"] = total_ns.get("levelset.extract_contour", 0) / 1e6 / n_img
    return out


def golden_iou(program, workload_name, workload, kept) -> tuple:
    """IoU and hash match of the golden phantom's mask against the recorded
    one; the result is appended to ``kept``."""
    golden = np.load(GOLDEN_DIR / f"{workload_name}.npz")
    _, u, truth = next(image_stream(workload, GOLDEN_SEED))
    rec, result = segment(program, workload, program.grid.ScalarField(u), truth,
                          build_phi0(program, workload, truth), program.solver.evolve)
    kept.append(result)
    if result is None:
        return 0.0, False
    return iou(result.mask, golden["mask"]), rec["mask_sha256"] == str(golden["sha256"])


def traced_run(program, workload_name, workload, args) -> tuple:
    """Segment each image untraced and traced, in alternating order; the
    untraced runs give the speed, the traced ones the per-layer split."""
    tracer = Tracer()
    targets = trace_targets(program)
    traced_evolve = tracer.wrap("solver.evolve", program.solver.evolve)
    records, images, span_image, phi0_ms, problems, kept = [], [], [], [], [], []
    wall_plain = wall_traced = 0.0
    # first, so that the first evolve of the process is not one of a pair
    golden_value, same_hash = golden_iou(program, workload_name, workload, kept)
    start = time.perf_counter()
    for index, u, truth in image_stream(workload, args.seed):
        if records and time.perf_counter() - start >= args.seconds:
            break
        t0 = time.perf_counter()
        phi0 = build_phi0(program, workload, truth)
        phi0_ms.append((time.perf_counter() - t0) * 1e3)
        u0 = program.grid.ScalarField(u)
        first = len(tracer.spans)
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                with tracer.installed(targets):
                    rec_t, result = segment(program, workload, u0, truth, phi0, traced_evolve)
            else:
                rec, result = segment(program, workload, u0, truth, phi0, program.solver.evolve)
            kept.append(result)
        rec["image"] = index
        rec["traced_wall_s"] = rec_t["wall_s"]
        records.append(rec)
        span_image.extend([index] * (len(tracer.spans) - first))
        problems.extend(rec["problems"] + rec_t["problems"])
        if rec_t["mask_sha256"] != rec["mask_sha256"]:
            problems.append(f"image {index}: tracing changed the final mask")
        if "raised" not in (rec["stop"], rec_t["stop"]):
            wall_plain += rec["wall_s"]
            wall_traced += rec_t["wall_s"]
            images.append((first, len(tracer.spans), rec_t["iters"]))
    if not images:
        raise RuntimeError("every image raised; there is nothing to trace")

    # the self times of an image's spans partition its traced evolve exactly
    selfs = self_times(tracer.spans)
    for first, end, _ in images:
        root = tracer.spans[first]
        if root[0] != "solver.evolve" or sum(selfs[first:end]) != root[2] - root[1]:
            problems.append(f"spans {first}..{end}: self times do not add up to evolve")
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(OUT_DIR / f"{workload_name}-seed{args.seed}-spans.csv", tracer.spans, span_image)

    metrics = layer_metrics(tracer.spans, images)
    iters = sum(n for _, _, n in images)
    metrics["levelset.signed_distance.ms"] = statistics.median(phi0_ms)
    metrics["solver.iters_p50"] = statistics.median(r["iters"] for r in records)
    metrics["solver.ms_per_iter"] = wall_plain * 1e3 / iters
    for reason in STOP_REASONS:
        metrics[f"solver.stops.{reason}"] = sum(r["stop"] == reason for r in records)
    metrics["solver.mask_iou_golden"] = golden_value
    # images pass or fail alike in both runs, so the loss of good_per_min
    # is the loss of speed
    metrics["trace_overhead_pct"] = 100.0 * (1.0 - wall_plain / wall_traced)
    print(f"golden mask hash {'matches' if same_hash else 'differs'}")
    print(f"traced evolve {wall_traced:.3f} s (the sum of layer self times), "
          f"untraced {wall_plain:.3f} s")
    return records, metrics, problems


def record_golden():
    program = import_program()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        _, u, truth = next(image_stream(workload, GOLDEN_SEED))
        rec, result = segment(program, workload, program.grid.ScalarField(u), truth,
                              build_phi0(program, workload, truth), program.solver.evolve)
        np.savez_compressed(GOLDEN_DIR / f"{name}.npz", mask=result.mask,
                            sha256=np.array(rec["mask_sha256"]))
        print(f"{name}: iou {rec['iou']:.4f} iters {rec['iters']} {rec['stop']} {rec['mask_sha256']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]

    program = import_program()
    if args.trace:
        warm_up(program, workload, args.seed)
        records, metrics, problems = traced_run(program, args.workload, workload, args)
    else:
        setup_s = measure_setup(args.workload, args.seed)
        warm_up(program, workload, args.seed)
        records, metrics = untraced_run(program, workload, args)
        problems = [p for r in records for p in r["problems"]]
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = sum(not r["good"] for r in records)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-images.json", "w") as f:
        json.dump(records, f, indent=1)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(records)} images, {failed} failed "
          f"(fail_rate {failed / len(records):.4f})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
