"""Self-tests for the layer trace.

    python3 -m pytest perfbench/test_layertrace.py -q
"""

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import padamp.diagnostics  # noqa: E402
import padamp.harness  # noqa: E402
import padamp.optimizers  # noqa: E402
import workloads  # noqa: E402

TARGETS = [
    (padamp.optimizers, "moment_direction"),
    (padamp.optimizers, "cosine_similarity"),
    (padamp.optimizers, "projection_condition"),
    (padamp.optimizers, "project_tangent"),
    (padamp.diagnostics, "norm_growth_arrays"),
    (padamp.harness, "track_convergence"),
    (padamp.harness, "validate_schedule"),
    (padamp.harness, "write_telemetry"),
    (padamp.harness, "make_step"),
    (padamp.harness, "LemmaMonitor"),
    (padamp.harness, "build_objective"),
]


def _mlp_config(tmp_path):
    over = dict(workloads.overrides("tiny_mlp", 3),
                **{"run.steps": "120", "run.out": str(tmp_path / "t.csv")})
    return padamp.harness.build_config({}, over)


def _traced(fn, args):
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        wrapped = tracer.wrap(ROOTS[fn], fn)
        t0 = time.perf_counter()
        wrapped(*args)
        outer = time.perf_counter() - t0
    finally:
        unrestored = tracer.restore()
    return tracer, outer, unrestored


ROOTS = {
    padamp.harness.run: "harness.run",
    padamp.diagnostics.simulate_norm_growth: "diagnostics.simulate_norm_growth",
}


def _norm_args():
    return (workloads.norm_sim_updates(0)[:5000], 0.9, 1.0, 1.0)


@pytest.fixture(params=["tiny_mlp", "norm_sim"])
def call(request, tmp_path):
    if request.param == "tiny_mlp":
        return padamp.harness.run, (_mlp_config(tmp_path),)
    return padamp.diagnostics.simulate_norm_growth, _norm_args()


def test_wrappers_are_restored(call):
    originals = [getattr(mod, attr) for mod, attr in TARGETS]
    tracer, _, unrestored = _traced(*call)
    assert unrestored == []
    assert [getattr(mod, attr) for mod, attr in TARGETS] == originals
    assert len(tracer.names) > 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_wrappers_are_restored_when_the_run_raises():
    originals = [getattr(mod, attr) for mod, attr in TARGETS]
    bad = dict(workloads.overrides("quad_d20", 0),
               **{"schedule.eta0": "1e300", "run.steps": "50"})
    with pytest.raises((RuntimeError, FloatingPointError)):
        _traced(padamp.harness.run, (padamp.harness.build_config({}, bad),))
    assert [getattr(mod, attr) for mod, attr in TARGETS] == originals


def test_spans_nest_under_the_run_span(call):
    tracer, _, _ = _traced(*call)
    assert tracer.nesting_errors() == []
    root = tracer.parent.index(-1)
    assert tracer.names[root] == ROOTS[call[0]]
    for i in range(len(tracer.names)):
        j = i
        while tracer.parent[j] >= 0:
            j = tracer.parent[j]
        assert j == root


def test_layer_self_times_and_remainder_sum_to_the_run(call):
    tracer, outer, _ = _traced(*call)
    m = tracer.metrics(outer)
    layers = [m[f"{layer}.self_s"] for layer in layertrace.LAYERS]
    assert all(own >= 0.0 for own in layers)
    assert m["trace.unattributed_s"] >= 0.0
    assert sum(layers) + m["trace.unattributed_s"] == pytest.approx(outer, rel=1e-12)


def test_exact_counts_repeat(call):
    first, _, _ = _traced(*call)
    second, _, _ = _traced(*call)
    counts = [{k: t.metrics(1.0)[k] for k in layertrace.COUNT_METRICS}
              for t in (first, second)]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_mlp_counts_match_the_run_loop(tmp_path):
    cfg = _mlp_config(tmp_path)
    tracer, outer, _ = _traced(padamp.harness.run, (cfg,))
    m = tracer.metrics(outer)
    steps = cfg.steps
    windows = steps // cfg.eval_every + (steps % cfg.eval_every != 0)
    assert m["objectives.eval_calls"] == steps
    assert m["objectives.grad_calls"] == steps
    assert m["objectives.window_grad_calls"] == windows * cfg.eval_window
    # eval + grad per step, the window gradients, and the final accuracy pass
    assert m["objectives.forward_passes"] == 2 * steps + windows * cfg.eval_window + 1
    assert m["optimizers.step_calls"] == steps
    assert m["kernels.moment_direction_calls"] == 2 * steps
    assert m["geometry.group_steps"] == 2 * steps
    assert m["geometry.projected_ratio"] == 0.5
    assert m["harness.telemetry_bytes"] == (tmp_path / "t.csv").stat().st_size
