"""Tests of the benchmark's own pieces: span arithmetic, the tracer, the
state checker and the computed flop counts."""

import sys

import numpy as np
import pytest

import run
import spans
import checks

sys.path.insert(0, str(run.SRC))

import acsl  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0.0]


NESTED = [
    _span("bench.op", 0.0, 10.0, -1),
    _span("solver.update_p", 1.0, 4.0, 0),
    _span("numerics.solve_spd", 2.0, 3.0, 1),
    _span("solver.update_f", 5.0, 9.0, 0),
    _span("bench.check", 11.0, 12.0, -1),
    _span("numerics.solve_spd", 11.5, 11.75, 4),
]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(NESTED) == [3.0, 2.0, 1.0, 4.0, 0.75, 0.25]


def test_summarize_groups_spans_by_their_root():
    summary = spans.summarize(NESTED)
    op, check = summary["bench.op"], summary["bench.check"]
    assert op["roots"] == 1 and check["roots"] == 1
    assert op["self"]["numerics.solve_spd"] == 1.0
    assert op["calls"]["numerics.solve_spd"] == 1
    assert check["self"]["numerics.solve_spd"] == 0.25
    assert op["incl"]["solver.update_p"] == 3.0
    assert op["parent_calls"][("numerics.solve_spd", "solver.update_p")] == 1
    assert op["parent_incl"][("solver.update_p", "bench.op")] == 3.0
    assert ("numerics.solve_spd", "bench.check") not in op["parent_calls"]


def test_flop_formulas_on_known_shapes():
    assert spans.solve_spd_flop(3, 2) == pytest.approx(9.0 + 36.0)
    assert spans.eigh_flop(3, 1) == pytest.approx(36.0 + 18.0)
    assert spans.FLOP_MODELS["numerics.solve_spd"](np.eye(6), np.ones(6)) == pytest.approx(
        72.0 + 72.0)
    assert spans.FLOP_MODELS["numerics.solve_spd"](np.eye(6), np.ones((6, 4))) == pytest.approx(
        72.0 + 288.0)
    assert spans.FLOP_MODELS["numerics.smallest_k_eigen"](np.eye(6), 2) == pytest.approx(
        288.0 + 144.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(19)]) is None
    assert run.tail([float(i) for i in range(40)]) == (0.75, 29.0)


def _small_fit():
    dataset, _ = acsl.generate_synthetic(10, 3, [(8, 0.5, 0.5), (6, 0.5, 0.5)], seed=3)
    graphs = [acsl.build_view_affinity(v, 4) for v in dataset.views]
    hp = acsl.Hyperparams(k=3, max_outer_iters=3)
    return acsl.fit(graphs, dataset.stacked, hp), dataset


def test_tracer_catches_calls_inside_the_package_and_uninstalls():
    original = acsl.solver.solve_spd
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("bench.op"):
            _small_fit()
    finally:
        tracer.uninstall()
    assert acsl.solver.solve_spd is original and acsl.fit is acsl.solver.fit
    agg = spans.summarize(tracer.spans)["bench.op"]
    assert agg["calls"]["solver.fit"] == 1
    assert agg["calls"]["solver.update_p"] == 3
    assert agg["parent_calls"][("numerics.solve_spd", "solver.update_p")] >= 3
    assert agg["parent_calls"][("solver.update_f", "solver.initialize")] == 1


def test_state_checker_accepts_a_fit_and_rejects_corruption():
    state, dataset = _small_fit()
    assert checks.state_violations(state, dataset.n, dataset.d, 3) == []

    state.s.matrix[:, 0] *= 1.1
    assert any("simplex" in v for v in checks.state_violations(state, dataset.n, dataset.d, 3))

    state, _ = _small_fit()
    state.f[:, 0] *= 2.0
    assert any("orthonormal" in v for v in checks.state_violations(state, dataset.n, dataset.d, 3))

    state, _ = _small_fit()
    state.objective_trace.append(float("nan"))
    assert any("trace" in v for v in checks.state_violations(state, dataset.n, dataset.d, 3))
