"""Tests of the benchmark itself: the tracer's arithmetic, that tracing leaves
levelseg as it found it, and that the per-iteration call counts are exact.

    python3 -m pytest -q perfbench
"""

import numpy as np
import pytest

import run
from phantom import iou, make_phantom, phase_symmetric_iou
from tracer import Tracer, self_times
from workloads import Workload, build_phi0, import_program, params_for

PROGRAM = import_program()


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0, 100, -1),
        ("b", 10, 60, 0),
        ("c", 20, 30, 1),
        ("d", 70, 80, 0),
    ]
    assert self_times(spans) == [40, 40, 10, 10]
    assert sum(self_times(spans)) == 100


def test_wrapped_calls_nest_and_time_on_the_tracer_clock():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda: leaf(1) + leaf(2))
    assert outer() == 5
    assert tracer.spans == [
        ("outer", 0, 50, -1),
        ("leaf", 10, 20, 0),
        ("leaf", 30, 40, 0),
    ]
    assert self_times(tracer.spans) == [30, 10, 10]


def test_span_is_recorded_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert [s[0] for s in tracer.spans] == ["boom"]


def _small(model):
    # 128 px is the smallest size at which default_seed_grid passes its own
    # margin check; the geodesic workload starts from the truth instead
    if model == "geodesic":
        return Workload("geodesic", 64, 20, 0.0, "dilated_truth")
    return Workload(model, 128, 30, 0.0, "seed_grid")


def _traced(workload, seed=3):
    tracer = Tracer()
    _, u, truth = next(run.image_stream(workload, seed))
    phi0 = build_phi0(PROGRAM, workload, truth)
    evolve = tracer.wrap("solver.evolve", PROGRAM.solver.evolve)
    with tracer.installed(run.trace_targets(PROGRAM)):
        result = evolve(workload.model, PROGRAM.grid.ScalarField(u), phi0,
                        params_for(PROGRAM, workload))
    return tracer, result


def test_wildcards_match_the_model_functions_only():
    solver_attrs = {attr for owner, attr, _ in run.trace_targets(PROGRAM) if owner is PROGRAM.solver}
    assert {"chan_vese_rhs", "modified_rhs", "geodesic_rhs",
            "energy_chan_vese", "energy_modified", "energy_geodesic"} <= solver_attrs
    assert "_rhs" not in solver_attrs and "_energy" not in solver_attrs


def test_tracing_restores_every_original():
    targets = run.trace_targets(PROGRAM)
    originals = [getattr(owner, attr) for owner, attr, _ in targets]
    _traced(_small("geodesic"))
    assert [getattr(owner, attr) for owner, attr, _ in targets] == originals

    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            raise RuntimeError("interrupted")
    assert [getattr(owner, attr) for owner, attr, _ in targets] == originals


def test_tracing_does_not_change_the_result():
    workload = _small("modified")
    _, u, truth = next(run.image_stream(workload, 3))
    phi0 = build_phi0(PROGRAM, workload, truth)
    plain = PROGRAM.solver.evolve(workload.model, PROGRAM.grid.ScalarField(u), phi0,
                                  params_for(PROGRAM, workload))
    _, traced = _traced(workload)
    assert np.array_equal(plain.phi_final.data, traced.phi_final.data)


@pytest.mark.parametrize("model, expected", [
    ("geodesic", {"grid.gradient.calls_per_iter": 5, "grid.gradient_magnitude.calls_per_iter": 3,
                  "grid.edge_detector.calls_per_iter": 2, "grid.delta_eps.calls_per_iter": 1,
                  "grid.heaviside_eps.calls_per_iter": 0,
                  "models.region_averages.calls_per_iter": 1}),
    ("modified", {"grid.gradient.calls_per_iter": 1, "grid.gradient_magnitude.calls_per_iter": 1,
                  "grid.edge_detector.calls_per_iter": 0, "grid.delta_eps.calls_per_iter": 2,
                  "grid.heaviside_eps.calls_per_iter": 1,
                  "models.region_averages.calls_per_iter": 1}),
])
def test_calls_per_iter_are_exact_and_repeat(model, expected):
    runs = []
    for _ in range(2):
        tracer, result = _traced(_small(model))
        runs.append(run.layer_metrics(tracer.spans, [(0, len(tracer.spans), result.iterations_run)]))
    counts = [{k: v for k, v in m.items() if k in run.PER_ITER_CALLS.values()} for m in runs]
    assert counts[0] == counts[1]
    for name, value in expected.items():
        assert counts[0][name] == value


def test_phantom_is_seeded_and_normalized():
    a = make_phantom(128, np.random.default_rng(7))
    b = make_phantom(128, np.random.default_rng(7))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    image, truth = a
    assert image.min() == 0.0 and image.max() == 1.0
    assert 0 < truth.sum() < truth.size
    assert image[truth].mean() > image[~truth].mean()


def test_iou_is_phase_symmetric_only_where_asked():
    truth = np.zeros((4, 4), dtype=bool)
    truth[:2] = True
    assert iou(truth, truth) == 1.0
    assert iou(~truth, truth) == 0.0
    assert phase_symmetric_iou(~truth, truth) == 1.0
