from dataclasses import replace
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import blas
from scipy.sparse import csc_array, csr_array

import acsl
from acsl import numerics, solver
from acsl.errors import ConfigError, NumericError
from acsl.data import zscore_columns
from acsl.graph import AffinityGraph, build_view_affinity, connected_components, laplacian_of
from acsl.numerics import (
    _row_blocks, project_simplex, project_simplex_columns, solve_spd, squared_distances,
)
from acsl.synthetic import generate_synthetic
from acsl.solver import (
    Hyperparams,
    SolverState,
    _dual_solve,
    _embedding_operator,
    _fused_columns,
    _regularized_gram,
    _reweighting_of,
    _solve_projection,
    _update_f_in_place,
    _uses_dual_form,
    _view_grams,
    fit,
    initialize,
    objective,
    update_f,
    update_p,
    update_s,
    update_w,
)

from helpers import (
    blob_problem, check_count_rule, dense, mm_steps, random_affinity, random_orthonormal,
    random_state,
)

TINY_ALPHA = 1e-15
# Blob problem with n=12 samples and d=40 stacked dims: solves with Q take
# the dual (n x n) form.
WIDE = {"n_per_cluster": 4, "d_v": 20}


def regression_objective(x, p, f, gamma):
    resid = x @ p - f
    return float(np.sum(resid * resid) + gamma * np.sqrt(np.sum(p * p, axis=1)).sum())


# ------------------------------------------------------------------ config

def test_hyperparams_validation():
    with pytest.raises(ConfigError):
        Hyperparams(k=1)
    with pytest.raises(ConfigError):
        Hyperparams(k=3, alpha=0.0)
    with pytest.raises(ConfigError):
        Hyperparams(k=3, max_outer_iters=0)


@pytest.mark.parametrize("fields", [
    {"k": 2.0}, {"k": 3, "max_outer_iters": 2.5}, {"k": "3"}, {"k": 3, "max_outer_iters": None},
])
def test_hyperparams_reject_non_integer_counts(fields):
    name = list(fields)[-1]
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        Hyperparams(**fields)


@pytest.mark.parametrize("name, least", [("k", 2), ("max_outer_iters", 1)])
def test_hyperparams_counts_follow_the_count_rule(name, least):
    hp = check_count_rule(lambda v: Hyperparams(**{"k": 3, name: v}), name, least, 3)
    assert getattr(hp, name) == 3


def test_hyperparams_accept_numpy_integer_counts():
    hp = Hyperparams(k=np.int64(3), max_outer_iters=np.int32(2))
    graphs, x, _, _ = blob_problem(3)
    assert fit(graphs, x, hp).iteration == 2


@pytest.mark.parametrize("flag", [True, np.bool_(True)], ids=["bool", "numpy_bool"])
def test_hyperparams_reject_flags_as_counts_and_weights(flag):
    # bool is an Integral, so True once passed as alpha 1 and one iteration.
    with pytest.raises(ConfigError, match="^max_outer_iters must be an integer, got True$"):
        Hyperparams(k=3, alpha=flag, max_outer_iters=True)
    with pytest.raises(ConfigError, match=f"^max_outer_iters must be an integer, got {flag!r}$"):
        Hyperparams(k=3, max_outer_iters=flag)
    with pytest.raises(ConfigError, match=f"^alpha must be positive and finite, got {flag}$"):
        Hyperparams(k=3, alpha=flag)
    with pytest.raises(ConfigError, match="^k must be an integer, got True$"):
        Hyperparams(k=True)


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "epsilon", "tol_rel_objective"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_hyperparams_reject_non_finite_weights(name, value):
    with pytest.raises(ConfigError, match=name):
        Hyperparams(k=3, **{name: value})


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "epsilon", "tol_rel_objective"])
@pytest.mark.parametrize("value", ["1", None])
def test_hyperparams_reject_weights_that_are_not_real_numbers(name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be positive and finite"):
        Hyperparams(k=3, **{name: value})


@pytest.mark.parametrize("value", ["no", 1])
def test_hyperparams_reject_an_adaptive_alpha_that_is_not_a_flag(value):
    with pytest.raises(ConfigError, match="^adaptive_alpha must be True or False"):
        Hyperparams(k=3, adaptive_alpha=value)
    assert Hyperparams(k=3, adaptive_alpha=np.bool_(True)).adaptive_alpha


@pytest.mark.parametrize("name,value,shape", [
    ("alpha", 1e308, {}), ("beta", 1e308, {}), ("gamma", 1e308, {}),
    ("gamma", 1e308, WIDE), ("gamma", 1e-320, WIDE),
], ids=["alpha", "beta", "gamma", "gamma-dual", "tiny-gamma-dual"])
def test_weights_that_overflow_the_solver_are_a_numeric_error(name, value, shape):
    # Finite weights whose products overflow the embedding operator, Q or
    # (in the dual form) gamma G or K raise NumericError, with no overflow
    # warning on the way (the suite turns warnings into errors).
    graphs, x, _, hp = blob_problem(3, **shape, **{name: value})
    with pytest.raises(NumericError, match="overflows"):
        fit(graphs, x, hp)


@pytest.mark.parametrize("shape", [{}, WIDE], ids=["primal", "dual"])
@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_non_finite_stacked_matrix_is_rejected_before_any_block(entry, shape, monkeypatch):
    graphs, x, _, hp = blob_problem(3, **shape)
    x[4, 7] = entry
    monkeypatch.setattr(solver, "update_f", None)  # never reached
    with pytest.raises(ConfigError, match="stacked feature matrix has non-finite entries"):
        fit(graphs, x, hp)


@pytest.mark.parametrize("call", [fit, initialize])
def test_non_numeric_stacked_matrix_is_a_config_error(call):
    graphs, x, _, hp = blob_problem(3)
    with pytest.raises(ConfigError, match="^stacked feature matrix must be numeric"):
        call(graphs, np.full(x.shape, "a"), hp)


@pytest.mark.parametrize("alpha", [1e40, 1e300, 5e307])
def test_alpha_too_large_for_the_simplex_is_a_numeric_error(alpha):
    # (alpha / 4) times the round-off in the diagonal indicator distances
    # swamps the simplex's sum of 1 (or overflows): update_s raises
    # NumericError, with no warning on the way (the suite turns warnings
    # into errors).
    graphs, x, _, hp = blob_problem(3, alpha=alpha)
    with pytest.raises(NumericError, match="outer iteration 1: S leaves the simplex at alpha"):
        fit(graphs, x, hp)


# -------------------------------------------------------------- initialize

def test_initialize_single_view_keeps_graph():
    rng = np.random.default_rng(20)
    g = random_affinity(rng, 12, zero_diag=True)
    x = rng.normal(size=(12, 6))
    state = initialize([g], x, Hyperparams(k=2))
    assert np.allclose(state.w, 1.0)
    assert np.allclose(state.s.matrix, g.matrix, atol=1e-12)


def test_initialize_identical_views_average_to_the_view():
    rng = np.random.default_rng(21)
    g = random_affinity(rng, 10, zero_diag=True)
    x = rng.normal(size=(10, 5))
    state = initialize([g, AffinityGraph(matrix=g.matrix.copy())], x, Hyperparams(k=2))
    assert np.allclose(state.w, 0.5)
    assert np.allclose(state.s.matrix, g.matrix, atol=1e-12)


def test_initialize_three_views_matches_direct_average_oracle():
    rng = np.random.default_rng(22)
    views = [random_affinity(rng, 9) for _ in range(3)]
    x = rng.normal(size=(9, 4))
    state = initialize(views, x, Hyperparams(k=3))
    mean = sum(v.matrix for v in views) / 3.0
    assert np.allclose(state.s.matrix, mean, atol=1e-12)
    assert np.abs(state.s.matrix.sum(axis=0) - 1.0).max() <= 1e-9
    # S_0 is bitwise the projection of the uniform fusion, for dense and CSR
    # views alike: update_s at F = 0 adds a shift of +0.
    uniform = np.full((3, 9), 1.0 / 3.0)
    for given in (views, [AffinityGraph(csr_array(v.matrix)) for v in views]):
        expected = project_simplex_columns(_fused_columns(given, uniform))
        assert initialize(given, x, Hyperparams(k=3)).s.matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_views", [1, 2, 3])
@pytest.mark.parametrize("kind", ["knn", "dense"])
def test_initialize_starts_from_the_view_order_sum_of_the_fusion(kind, n_views, monkeypatch):
    # The sparse S that initialize's F step reads is bitwise the fusion at
    # uniform weights, each entry summed in view order as _fused_columns
    # sums it, so F_0 rests on those bits. An entry that three views share,
    # summed in another order, can differ in its last bit.
    rng = np.random.default_rng(31)
    dataset, _ = generate_synthetic(20, 3, [(6, 1.0, 0.5)] * n_views, seed=31)
    mats = [zscore_columns(v) for v in dataset.views]
    views = ([build_view_affinity(m, 15) for m in mats] if kind == "knn"
             else [random_affinity(rng, dataset.n, zero_diag=True) for _ in mats])
    starts = []

    def recorded(state, x, hp):
        starts.append(state.s.matrix.toarray(order="C"))
        return update_f(state, x, hp)

    monkeypatch.setattr(solver, "update_f", recorded)
    initialize(views, dataset.stacked, Hyperparams(k=3))
    expected = _fused_columns(views, np.full((n_views, dataset.n), 1.0 / n_views))
    assert len(starts) == 1
    assert starts[0].tobytes() == expected.tobytes()


def test_initialize_seeds_traces_and_indicator():
    state, graphs, x, hp = random_state(23)
    assert len(state.objective_trace) == 1
    assert len(state.components_trace) == 1
    assert state.alpha_trace == [hp.alpha]
    assert np.allclose(state.f.T @ state.f, np.eye(hp.k), atol=1e-10)
    assert np.allclose(state.gamma_diag, 1.0)
    assert np.isfinite(state.objective_trace[0])


def test_initialize_rejects_bad_problems():
    rng = np.random.default_rng(24)
    g = random_affinity(rng, 8)
    with pytest.raises(ConfigError):
        initialize([], np.zeros((8, 2)), Hyperparams(k=2))
    with pytest.raises(ConfigError):
        initialize([g, random_affinity(rng, 9)], np.zeros((8, 2)), Hyperparams(k=2))
    with pytest.raises(ConfigError):
        initialize([g], np.zeros((7, 2)), Hyperparams(k=2))
    with pytest.raises(ConfigError):
        initialize([g], np.zeros((8, 2)), Hyperparams(k=9))  # fewer samples than k


# ---------------------------------------------------------------- update_p

def test_update_p_identity_design_recovers_indicator():
    state, graphs, x, hp = random_state(25, n_per_cluster=6, k=2, n_views=1)
    n = x.shape[0]
    hp = Hyperparams(k=2, gamma=1e-12)
    state.p = np.zeros((n, 2))
    p, _ = update_p(state, np.eye(n), hp)
    assert np.allclose(p, state.f, atol=1e-5)


def test_update_p_zeroes_the_reweighted_gradient():
    # The second shape (n=12, d=40) takes the dual form of the solve.
    for seed, shape in itertools.product(range(5), ({}, WIDE)):
        state, graphs, x, hp = random_state(seed, gamma=0.5, **shape)
        p, gd = update_p(state, x, hp)
        grad = 2.0 * x.T @ (x @ p - state.f) + 2.0 * hp.gamma * gd[:, None] * p
        assert np.linalg.norm(grad) <= 1e-6 * (1.0 + np.linalg.norm(p))


def test_update_p_finite_difference_stationarity():
    # Central differences of the fixed-reweighting surrogate at the
    # returned projection.
    state, graphs, x, hp = random_state(26, n_per_cluster=5, d_v=4, k=2)
    p, gd = update_p(state, x, hp)

    def surrogate(q):
        resid = x @ q - state.f
        return float(np.sum(resid * resid) + hp.gamma * np.sum(gd * np.sum(q * q, axis=1)))

    h = 1e-5
    fd = np.zeros_like(p)
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            e = np.zeros_like(p)
            e[i, j] = h
            fd[i, j] = (surrogate(p + e) - surrogate(p - e)) / (2 * h)
    assert np.linalg.norm(fd) <= 1e-4 * (1.0 + np.linalg.norm(p))


def test_update_p_matches_subgradient_descent_oracle():
    # Independent solver for the row-sparse regression on a tiny instance.
    rng = np.random.default_rng(27)
    x = rng.normal(size=(8, 5))
    f = random_orthonormal(rng, 8, 2)
    gamma = 0.7
    hp = Hyperparams(k=2, gamma=gamma)
    state = SolverState(p=np.zeros((5, 2)), f=f,
                        s=random_affinity(rng, 8), w=np.ones((1, 8)),
                        gamma_diag=np.ones(5))
    mm_steps(state, x, hp, steps=200)
    ours = regression_objective(x, state.p, f, gamma)

    q = np.zeros((5, 2))
    best = regression_objective(x, q, f, gamma)
    lipschitz = 2.0 * np.linalg.norm(x.T @ x, 2)
    for t in range(1, 60001):
        norms = np.sqrt(np.sum(q * q, axis=1))
        sub = np.where(norms[:, None] > 0, q / np.maximum(norms, 1e-300)[:, None], 0.0)
        grad = 2.0 * x.T @ (x @ q - f) + gamma * sub
        q = q - grad / (lipschitz + 0.05 * t)
        best = min(best, regression_objective(x, q, f, gamma))
    assert abs(ours - best) <= 1e-4


def test_irls_inner_history_is_monotone_up_to_smoothing_gap():
    # The history tracks the epsilon-smoothed objective, which each step
    # provably decreases; the gap allowance is the most the raw objective
    # could rise by, so the check holds for either quantity.
    for seed in range(5):
        state, graphs, x, hp = random_state(seed, gamma=2.0)
        for _ in range(4):
            history = mm_steps(state, x, hp)
            gap = hp.gamma * x.shape[1] * np.sqrt(hp.epsilon)
            for before, after in zip(history, history[1:]):
                assert after <= before + gap
            state.f, state.p = update_f(state, x, hp)


def test_irls_smoothed_objective_strictly_monotone():
    state, graphs, x, hp = random_state(28, gamma=3.0)

    def smoothed(p):
        resid = x @ p - state.f
        return float(np.sum(resid * resid)
                     + hp.gamma * np.sum(np.sqrt(np.sum(p * p, axis=1) + hp.epsilon)))

    p = state.p
    prev = smoothed(p)
    gram = x.T @ x
    xtf = x.T @ state.f
    for _ in range(12):
        weights = 1.0 / (2.0 * np.sqrt(np.sum(p * p, axis=1) + hp.epsilon))
        q = gram.copy()
        q[np.diag_indices_from(q)] += hp.gamma * weights
        p = np.linalg.solve(q, xtf)
        cur = smoothed(p)
        assert cur <= prev + 1e-10 * max(1.0, abs(prev))
        prev = cur


# ---------------------------------------------------------------- update_f

def test_update_f_small_beta_reduces_to_laplacian_embedding():
    state, graphs, x, hp = random_state(29)
    hp_small = Hyperparams(k=hp.k, beta=1e-9)
    f, _ = update_f(state, x, hp_small)
    lap = laplacian_of(state.s)
    target = np.linalg.eigvalsh(lap)[: hp.k].sum()
    assert abs(np.trace(f.T @ lap @ f) - target) <= 1e-6


def test_update_f_disconnected_blocks_give_zero_trace():
    rng = np.random.default_rng(30)
    m = np.zeros((8, 8))
    m[:4, :4] = rng.random((4, 4)) + 0.1
    m[4:, 4:] = rng.random((4, 4)) + 0.1
    m /= m.sum(axis=0)
    s = AffinityGraph(matrix=m)
    x = rng.normal(size=(8, 3))
    state = SolverState(p=np.zeros((3, 2)), f=np.zeros((8, 2)), s=s,
                        w=np.ones((1, 8)), gamma_diag=np.ones(3))
    f, _ = update_f(state, x, Hyperparams(k=2, beta=1e-9))
    lap = laplacian_of(s)
    assert np.trace(f.T @ lap @ f) <= 1e-8


def test_update_f_matches_full_eigendecomposition_oracle():
    for seed in range(10):
        state, graphs, x, hp = random_state(seed)
        m, _ = _embedding_operator(state.s, x, state.gamma_diag, hp)
        f, _ = update_f(state, x, hp)
        target = np.linalg.eigvalsh(m)[: hp.k].sum()
        assert abs(np.trace(f.T @ m @ f) - target) <= 1e-8
        assert np.allclose(f.T @ f, np.eye(hp.k), atol=1e-10)


def test_update_f_ky_fan_consistency_against_random_bases():
    state, graphs, x, hp = random_state(31)
    m, _ = _embedding_operator(state.s, x, state.gamma_diag, hp)
    f, _ = update_f(state, x, hp)
    ours = np.trace(f.T @ m @ f)
    rng = np.random.default_rng(32)
    for _ in range(50):
        g = random_orthonormal(rng, x.shape[0], hp.k)
        assert ours <= np.trace(g.T @ m @ g) + 1e-8


# ------------------------------------------------- primal and dual forms

# (12, 12) and (12, 13) sit on either side of the switch to the dual form.
SHAPES = [(12, 40), (12, 12), (12, 13), (40, 12)]


def dense_state(seed, n, d, k=2):
    """A state on Gaussian features of shape (n, d) with a random positive
    reweighting, and hyperparameters away from 1."""
    rng = np.random.default_rng(seed)
    state = SolverState(p=rng.normal(size=(d, k)), f=random_orthonormal(rng, n, k),
                        s=random_affinity(rng, n), w=np.ones((1, n)),
                        gamma_diag=rng.uniform(0.2, 5.0, size=d))
    return state, rng.normal(size=(n, d)), Hyperparams(k=k, alpha=0.7, beta=1.3, gamma=0.5)


def explicit_q(x, hp, gamma_diag):
    return x.T @ x + hp.gamma * np.diag(gamma_diag)


def test_dual_form_is_taken_exactly_when_d_exceeds_n():
    assert [_uses_dual_form(np.zeros(shape)) for shape in SHAPES] == [True, False, True, False]


@pytest.mark.parametrize("n,d", SHAPES)
def test_embedding_operator_matches_explicit_formula(n, d):
    state, x, hp = dense_state(52, n, d)
    back = np.linalg.solve(explicit_q(x, hp, state.gamma_diag), x.T)
    expected = hp.alpha * laplacian_of(state.s) + hp.beta * (np.eye(n) - x @ back)
    expected = 0.5 * (expected + expected.T)
    m, _ = _embedding_operator(state.s, x, state.gamma_diag, hp)
    assert np.linalg.norm(m - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("n,d", SHAPES)
def test_embedding_operator_is_bitwise_the_out_of_place_sum(n, d):
    state, x, hp = dense_state(54, n, d)
    m, project = _embedding_operator(state.s, x, state.gamma_diag, hp)
    s = state.s.matrix
    degrees = 0.5 * (s.sum(axis=1) + s.sum(axis=0))
    expected = -hp.alpha * s
    expected[np.diag_indices(n)] += hp.alpha * degrees
    if _uses_dual_form(x):
        complement, root = _dual_solve(x, hp.gamma, state.gamma_diag, np.eye(n))
        p = root[:, None] * ((x * root).T @ (complement @ state.f))
        expected = expected + hp.beta * complement
    else:
        # alpha (diag(deg) - S) + beta I, less beta X Q^-1 X^T by one GEMM,
        # out of place; P = Q^-1 (X^T F).
        q = _regularized_gram(x.T @ x, hp.gamma, state.gamma_diag)
        back = solve_spd(q, x.T)
        p = solve_spd(q, np.eye(len(q))) @ (x.T @ state.f)
        expected[np.diag_indices(n)] += hp.beta
        expected = blas.dgemm(-hp.beta, back, x.T, beta=1.0, c=expected.T, trans_a=True).T
    # Its symmetric part, alpha L_S + beta C, is what the eigensolve solves.
    expected = 0.5 * (expected + expected.T)
    assert np.array_equal(m, expected)
    assert np.array_equal(project(state.f), p)  # the operator did not overwrite C


@pytest.mark.parametrize("n,d", SHAPES)
def test_solve_projection_matches_explicit_formula(n, d):
    state, x, hp = dense_state(53, n, d)
    expected = np.linalg.solve(explicit_q(x, hp, state.gamma_diag), x.T @ state.f)
    p = _solve_projection(x, state.f, hp.gamma, state.gamma_diag)
    assert np.linalg.norm(p - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("n,d", [(240, 12), (200, 230)], ids=["primal", "dual"])
def test_update_f_is_the_in_place_route_on_a_copy_of_s(n, d):
    # n x n passes run in several blocks of rows at these sizes.
    state, x, hp = dense_state(63, n, d, k=3)
    assert len(_row_blocks(n, n)) > 1 and _uses_dual_form(x) == (d > n)
    before = state.s.matrix.tobytes()
    f, p = update_f(state, x, hp)
    assert state.s.matrix.tobytes() == before
    f_in, p_in, _ = _update_f_in_place(state.s.matrix.copy(), x, state.f, state.gamma_diag, hp)
    assert f.tobytes() == f_in.tobytes() and p.tobytes() == p_in.tobytes()
    # S held as a CSC array, as initialize holds the fusion, gives the same bits.
    state.s = AffinityGraph(csc_array(state.s.matrix))
    f_csc, p_csc = update_f(state, x, hp)
    assert f_csc.tobytes() == f.tobytes() and p_csc.tobytes() == p.tobytes()


# ------------------------------------------- the Ritz step of the F update

# The perfbench workloads' shapes: largen (n = 900, three 40-dimensional
# views, the third twice as noisy) solves in the primal form, highdim
# (n = 150, two 300-dimensional views) in the dual form.
BENCH_SHAPES = {
    "primal": (300, [(40, 6.0, 0.25)] * 2 + [(40, 12.0, 0.25)]),
    "dual": (50, [(300, 2.5, 0.05), (300, 3.0, 0.05)]),
}


@pytest.fixture(scope="module", params=list(BENCH_SHAPES))
def bench_fit(request):
    """(graphs, x, hp, state) of a bench-shaped fit: k = 3, 10 neighbors,
    alpha = 1 and 4 outer iterations, as the bench runs it."""
    n_per_cluster, views = BENCH_SHAPES[request.param]
    dataset, _ = generate_synthetic(n_per_cluster, 3, views, seed=0)
    mats = [zscore_columns(v) for v in dataset.views]
    graphs, x = [build_view_affinity(m, 10) for m in mats], np.hstack(mats)
    assert _uses_dual_form(x) == (request.param == "dual")
    hp = Hyperparams(k=3, max_outer_iters=4)
    return graphs, x, hp, fit(graphs, x, hp)


def poor_float32_solve(m, count):
    """A stand-in for numerics._float32_bottom_eigenvectors whose subspace
    misses the bottom of m."""
    return random_orthonormal(np.random.default_rng(65), len(m), count)


def test_ritz_step_matches_the_exact_bottom_sum_on_bench_shapes(bench_fit):
    graphs, x, hp, state = bench_fit
    state = replace(state)
    state.p, state.gamma_diag = update_p(state, x, hp)
    m, _ = _embedding_operator(state.s, x, state.gamma_diag, hp)
    f, p, fell_back = _update_f_in_place(state.s.matrix.copy(), x, state.f,
                                         state.gamma_diag, hp)
    assert not fell_back
    exact = np.linalg.eigvalsh(m)[: hp.k].sum()
    assert abs(np.trace(f.T @ m @ f) - exact) <= 1e-9 * abs(exact)
    assert np.abs(f.T @ f - np.eye(hp.k)).max() <= 1e-12


def test_bench_shaped_fits_never_fall_back_to_the_exact_eigensolve(bench_fit, monkeypatch):
    graphs, x, hp, state = bench_fit
    assert state.iteration == 4 and state.f_fallbacks == 0
    # A float32 solve that misses the bottom makes every F step of the loop
    # fall back, and initialize's exact solve is not counted.
    monkeypatch.setattr(numerics, "_float32_bottom_eigenvectors", poor_float32_solve)
    assert fit(graphs, x, replace(hp, max_outer_iters=2)).f_fallbacks == 2


@pytest.mark.parametrize("n,d", SHAPES + [(240, 12), (200, 230)])
def test_ritz_step_from_the_exact_minimizer_does_not_rise(n, d):
    state, x, hp = dense_state(64, n, d, k=3)
    m, _ = _embedding_operator(state.s, x, state.gamma_diag, hp)
    state.f = numerics.smallest_k_eigen(m, hp.k)[1]
    f, _, fell_back = _update_f_in_place(state.s.matrix.copy(), x, state.f,
                                         state.gamma_diag, hp)
    assert not fell_back
    start = np.trace(state.f.T @ m @ state.f)
    # Slack for the round-off of forming the two traces.
    assert np.trace(f.T @ m @ f) <= start + 1e-14 * abs(start)


@pytest.mark.parametrize("n,d", [(240, 12), (200, 230)], ids=["primal", "dual"])
def test_a_ritz_step_that_misses_its_tolerance_is_the_exact_solve(n, d, monkeypatch):
    state, x, hp = dense_state(65, n, d, k=3)
    monkeypatch.setattr(numerics, "_float32_bottom_eigenvectors", poor_float32_solve)
    f, p, fell_back = _update_f_in_place(state.s.matrix.copy(), x, state.f,
                                         state.gamma_diag, hp)
    assert fell_back
    # The exact solve of the same operator, scaled as the step scales it.
    m, project = _embedding_operator(state.s, x, state.gamma_diag, hp)
    m *= 2.0 ** -math.frexp(np.abs(np.diag(m)).max())[1]
    expected = numerics._bottom_eigenpairs(m, hp.k)[1]
    assert f.tobytes() == expected.tobytes()
    assert p.tobytes() == project(expected).tobytes()


@pytest.mark.parametrize("d_v", [12, 40], ids=["primal", "dual"])
def test_fit_forms_no_laplacian(d_v, monkeypatch):
    graphs, x, _, hp = blob_problem(64, n_per_cluster=10, d_v=d_v, max_outer_iters=3)
    assert _uses_dual_form(x) == (d_v == 40)
    expected = fit(graphs, x, hp)

    def no_laplacian(s):
        raise AssertionError("the fit formed a Laplacian")

    # Every binding of laplacian_of in the package, acsl.graph's and acsl's
    # own among them, raises.
    bindings = [module for name, module in list(sys.modules.items())
                if name.split(".")[0] == "acsl"
                and getattr(module, "laplacian_of", None) is laplacian_of]
    assert {acsl, acsl.graph} <= set(bindings)
    for module in bindings:
        monkeypatch.setattr(module, "laplacian_of", no_laplacian)
    state = fit(graphs, x, hp)
    for name in ("p", "f", "w", "gamma_diag"):
        assert getattr(state, name).tobytes() == getattr(expected, name).tobytes()
    assert state.s.matrix.tobytes() == expected.s.matrix.tobytes()
    assert state.objective_trace == expected.objective_trace
    assert state.components_trace == expected.components_trace


@pytest.mark.parametrize("read", [
    lambda state, graphs, x, hp: objective(state, graphs, x, hp),
    lambda state, graphs, x, hp: update_w(state, graphs),
], ids=["objective", "update_w"])
def test_objective_and_update_w_read_a_csc_s_as_its_dense_form(read):
    for seed in (3, 4, 5, 6):
        state, graphs, x, hp = random_state(seed)
        expected = np.asarray(read(state, graphs, x, hp))
        state.s = AffinityGraph(csc_array(state.s.matrix))
        assert np.asarray(read(state, graphs, x, hp)).tobytes() == expected.tobytes()


# The last case has a well-conditioned Q (cond(Q) ~ 8) and a small gamma:
# P must still match the direct solve to near machine precision, which
# recovering it from the residual X^T (I - X Q^-1 X^T) F, with its round-off
# divided by gamma, misses (about 3e-11 here).
@pytest.mark.parametrize(
    "n,d,gamma,rtol", [(n, d, 0.5, 1e-10) for n, d in SHAPES] + [(40, 12, 1e-4, 1e-12)]
)
def test_update_f_projection_solves_the_regularized_system(n, d, gamma, rtol):
    state, x, hp = dense_state(55, n, d)
    hp = Hyperparams(k=hp.k, alpha=hp.alpha, beta=hp.beta, gamma=gamma)
    f, p = update_f(state, x, hp)
    expected = np.linalg.solve(explicit_q(x, hp, state.gamma_diag), x.T @ f)
    assert np.linalg.norm(p - expected) <= rtol * np.linalg.norm(expected)


def _count_factorizations(monkeypatch, calls):
    """Append the matrix shape of every SPD factorization the solver makes
    to calls: the solves through solve_spd, and the dual form's K^-1, which
    is solved into an identity the solver owns (numerics._solve_spd)."""
    for name, solve in (("solve_spd", solve_spd), ("_solve_spd", numerics._solve_spd)):
        def counted(a, *b, solve=solve):
            calls.append(a.shape)
            return solve(a, *b)

        monkeypatch.setattr(solver, name, counted)


def test_initialize_factors_once(monkeypatch):
    calls = []
    _count_factorizations(monkeypatch, calls)
    for n_per_cluster, d_v in ((4, 20), (10, 3)):  # dual and primal form
        graphs, x, labels, hp = blob_problem(56, n_per_cluster=n_per_cluster, d_v=d_v)
        calls.clear()
        initialize(graphs, x, hp)
        assert len(calls) == 1


def test_fit_factors_twice_per_outer_iteration(monkeypatch):
    # One solve in initialize, then per outer iteration one reweighted
    # solve in update_p and one in update_f.
    calls = []
    _count_factorizations(monkeypatch, calls)
    for n_per_cluster, d_v in ((4, 20), (10, 3)):  # dual and primal form
        graphs, x, labels, hp = blob_problem(57, n_per_cluster=n_per_cluster, d_v=d_v,
                                             max_outer_iters=3)
        calls.clear()
        state = fit(graphs, x, hp)
        assert state.iteration == 3
        assert len(calls) == 1 + 2 * state.iteration


def test_fit_never_raises_the_smoothed_objective(monkeypatch):
    # fit evaluates objective() at the start and after every outer
    # iteration; record J_eps, the objective with sqrt(||p_i||^2 + eps)
    # for ||p_i||, at the same states.
    smoothed = []

    def recording(state, views, x, hp):
        value = objective(state, views, x, hp)
        sq = np.sum(state.p * state.p, axis=1)
        gap = np.sum(np.sqrt(sq + hp.epsilon) - np.sqrt(sq))
        smoothed.append(value + hp.beta * hp.gamma * gap)
        return value

    monkeypatch.setattr(solver, "objective", recording)
    for shape in (WIDE, {"n_per_cluster": 10, "d_v": 3}):  # d > n and d < n
        for seed in range(20):
            graphs, x, labels, hp = blob_problem(
                seed, gamma=[0.1, 1.0, 10.0][seed % 3], max_outer_iters=8, **shape)
            smoothed.clear()
            fit(graphs, x, hp)
            assert np.diff(smoothed).max() <= 1e-9 * max(1.0, abs(smoothed[0]))


def test_irls_history_never_rises_in_dual_form():
    for seed in range(5):
        state, graphs, x, hp = random_state(seed, gamma=2.0, **WIDE)
        assert _uses_dual_form(x)
        for _ in range(4):
            history = mm_steps(state, x, hp)
            assert np.diff(history).max() <= 1e-9
            state.f, state.p = update_f(state, x, hp)


def test_irls_loop_in_dual_form_follows_the_explicit_primal_iterates():
    state, graphs, x, hp = random_state(54, gamma=1.0, **WIDE)
    ref = state.p
    history = mm_steps(state, x, hp)
    for _ in range(len(history) - 1):
        ref_weights = 1.0 / (2.0 * np.sqrt(np.sum(ref * ref, axis=1) + hp.epsilon))
        ref = np.linalg.solve(explicit_q(x, hp, ref_weights), x.T @ state.f)
    assert np.linalg.norm(state.gamma_diag - ref_weights) <= 1e-8 * np.linalg.norm(ref_weights)
    assert np.linalg.norm(state.p - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize("n,d", SHAPES)
def test_update_p_is_one_reweight_and_one_solve(n, d):
    # fit's descent chain needs exactly this step: the reweighting at the
    # input P, and the minimizer of the quadratic it anchors.
    state, x, hp = dense_state(58, n, d)
    p, weights = update_p(state, x, hp)
    expected_weights = _reweighting_of(state.p, hp.epsilon)
    assert np.array_equal(weights, expected_weights)
    assert np.array_equal(p, _solve_projection(x, state.f, hp.gamma, expected_weights))


# ---------------------------------------------------------------- update_s

def test_update_s_vanishing_alpha_single_view_is_identity_map():
    rng = np.random.default_rng(33)
    g = random_affinity(rng, 10, zero_diag=True)
    x = rng.normal(size=(10, 4))
    state = initialize([g], x, Hyperparams(k=2, alpha=TINY_ALPHA))
    s = update_s(state, [g], Hyperparams(k=2, alpha=TINY_ALPHA))
    assert np.allclose(s.matrix, g.matrix, atol=1e-12)


def test_update_s_huge_alpha_concentrates_on_nearest_indicator_row():
    state, graphs, x, hp = random_state(34)
    hp_huge = Hyperparams(k=hp.k, alpha=1e12)
    s = update_s(state, graphs, hp_huge)
    shift = squared_distances(state.f, state.f)
    for j in range(s.n):
        col = s.matrix[:, j]
        winner = int(np.argmin(shift[:, j]))
        assert col[winner] == pytest.approx(1.0, abs=1e-9)
        assert np.sum(col > 1e-9) == 1


def test_update_s_column_matches_coarse_grid_search_oracle():
    # Exhaustive grid over the 6-point simplex at step 1/18.
    rng = np.random.default_rng(35)
    n = 6
    alpha = 0.8
    views = [random_affinity(rng, n) for _ in range(2)]
    w = rng.normal(size=(2, n))
    w /= w.sum(axis=0)
    f = random_orthonormal(rng, n, 2)
    state = SolverState(p=np.zeros((3, 2)), f=f, s=random_affinity(rng, n),
                        w=w, gamma_diag=np.ones(3))
    s = update_s(state, views, Hyperparams(k=2, alpha=alpha))

    fused = sum(v.matrix * w[i][None, :] for i, v in enumerate(views))
    shift = squared_distances(f, f)
    steps = 18
    grid_points = []
    for combo in itertools.combinations(range(steps + n - 1), n - 1):
        parts = np.diff(np.concatenate(([-1], combo, [steps + n - 1]))) - 1
        grid_points.append(parts / steps)
    grid = np.array(grid_points)

    def column_objective(col, j):
        return np.sum((col - fused[:, j]) ** 2) + 0.5 * alpha * shift[:, j] @ col

    for j in range(n):
        ours = column_objective(s.matrix[:, j], j)
        grid_vals = np.sum((grid - fused[:, j]) ** 2, axis=1) + grid @ (0.5 * alpha * shift[:, j])
        best = grid_vals.argmin()
        assert ours <= grid_vals[best] + 1e-12
        assert np.abs(s.matrix[:, j] - grid[best]).max() <= 2.0 / steps


def test_update_s_beats_random_simplex_points():
    state, graphs, x, hp = random_state(36)
    s = update_s(state, graphs, hp)
    fused = sum(v.matrix.toarray() * state.w[i][None, :] for i, v in enumerate(graphs))
    shift = squared_distances(state.f, state.f)
    rng = np.random.default_rng(37)
    n = s.n
    for j in range(min(n, 10)):
        ours = np.sum((s.matrix[:, j] - fused[:, j]) ** 2) + 0.5 * hp.alpha * shift[:, j] @ s.matrix[:, j]
        for _ in range(100):
            g = rng.dirichlet(np.ones(n))
            other = np.sum((g - fused[:, j]) ** 2) + 0.5 * hp.alpha * shift[:, j] @ g
            assert ours <= other + 1e-10


def test_update_s_columns_stay_on_simplex():
    state, graphs, x, hp = random_state(38)
    s = update_s(state, graphs, hp)
    assert (s.matrix >= 0).all()
    assert np.abs(s.matrix.sum(axis=0) - 1.0).max() <= 1e-9


# ---------------------------------------------------------------- update_w

def test_update_w_single_view_is_all_ones():
    state, graphs, x, hp = random_state(39, n_views=1)
    w = update_w(state, graphs)
    assert np.allclose(w, 1.0)


def test_update_w_identical_views_split_evenly():
    rng = np.random.default_rng(40)
    g = random_affinity(rng, 8, zero_diag=True)
    views = [g, AffinityGraph(matrix=g.matrix.copy())]
    x = rng.normal(size=(8, 4))
    state = initialize(views, x, Hyperparams(k=2))
    state.s = random_affinity(rng, 8)  # put fused structure off both views
    w = update_w(state, views)
    assert np.allclose(w, 0.5, atol=1e-9)


def test_update_w_matches_kkt_system_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n, nviews = 12, 3
        views = [random_affinity(rng, n) for _ in range(nviews)]
        state = SolverState(p=np.zeros((2, 2)), f=np.zeros((n, 2)),
                            s=random_affinity(rng, n),
                            w=np.full((nviews, n), 1.0 / nviews),
                            gamma_diag=np.ones(2))
        w = update_w(state, views)
        for j in range(n):
            b = np.stack([state.s.matrix[:, j] - v.matrix[:, j] for v in views], axis=1)
            gram = b.T @ b
            kkt = np.zeros((nviews + 1, nviews + 1))
            kkt[:nviews, :nviews] = 2.0 * gram
            kkt[:nviews, nviews] = 1.0
            kkt[nviews, :nviews] = 1.0
            rhs = np.zeros(nviews + 1)
            rhs[nviews] = 1.0
            sol = np.linalg.solve(kkt, rhs)
            assert np.abs(w[:, j] - sol[:nviews]).max() <= 1e-8


def test_update_w_batch_mixes_zero_coinciding_and_generic_columns():
    # One call whose columns take every path of the batched solve: column 0
    # has a zero Gram (s_0 equals both views' columns), columns 1-3 have two
    # coinciding views (a rank-one Gram, ridged), the rest are generic.
    rng = np.random.default_rng(44)
    n = 10
    a = random_affinity(rng, n).matrix
    b = random_affinity(rng, n).matrix
    s = random_affinity(rng, n).matrix
    b[:, :4] = a[:, :4]
    s[:, 0] = a[:, 0]
    views = [AffinityGraph(a), AffinityGraph(b)]
    state = SolverState(p=np.zeros((2, 2)), f=np.zeros((n, 2)), s=AffinityGraph(s),
                        w=np.full((2, n), 0.5), gamma_diag=np.ones(2))
    w = update_w(state, views)
    assert np.array_equal(w[:, 0], [0.5, 0.5])
    # The ridge 1e-10 * trace / V leaves a condition number near 2e10, so
    # the even split holds to about machine epsilon times that.
    assert np.abs(w[:, 1:4] - 0.5).max() <= 1e-5
    assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12
    for j in range(4, n):
        bj = np.stack([s[:, j] - a[:, j], s[:, j] - b[:, j]], axis=1)
        kkt = np.zeros((3, 3))
        kkt[:2, :2] = 2.0 * bj.T @ bj
        kkt[:2, 2] = kkt[2, :2] = 1.0
        sol = np.linalg.solve(kkt, [0.0, 0.0, 1.0])
        assert np.abs(w[:, j] - sol[:2]).max() <= 1e-8


def test_update_w_coinciding_views_split_exactly_evenly():
    # Where the two views' columns coincide, every feasible w is optimal;
    # the split must be the even one, not a ridge-perturbed approximation.
    n = 10
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        a = random_affinity(rng, n).matrix
        b = random_affinity(rng, n).matrix
        b[:, :3] = a[:, :3]
        state = SolverState(p=np.zeros((2, 2)), f=np.zeros((n, 2)),
                            s=random_affinity(rng, n), w=np.full((2, n), 0.5),
                            gamma_diag=np.ones(2))
        w = update_w(state, [AffinityGraph(a), AffinityGraph(b)])
        worst = max(worst, np.abs(w[:, :3] - 0.5).max())
    assert worst <= 1e-12


def test_update_w_columns_sum_to_one():
    state, graphs, x, hp = random_state(42, n_views=3)
    w = update_w(state, graphs)
    assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12


def test_update_w_never_increases_the_fusion_residual():
    for seed in range(5):
        state, graphs, x, hp = random_state(seed, n_views=3)
        state.s = update_s(state, graphs, hp)

        def fusion(w):
            fused = sum(v.matrix.toarray() * w[i][None, :] for i, v in enumerate(graphs))
            return float(np.sum((state.s.matrix - fused) ** 2))

        before = fusion(state.w)
        after = fusion(update_w(state, graphs))
        assert after <= before + 1e-9


# ---------------------------------------------------------------- objective

def test_objective_single_view_has_zero_fusion_term():
    rng = np.random.default_rng(43)
    g = random_affinity(rng, 10, zero_diag=True)
    x = rng.normal(size=(10, 5))
    hp = Hyperparams(k=2)
    state = initialize([g], x, hp)
    lap = laplacian_of(state.s)
    resid = x @ state.p - state.f
    expected = (hp.alpha * np.trace(state.f.T @ lap @ state.f)
                + hp.beta * (np.sum(resid * resid)
                             + hp.gamma * np.sqrt(np.sum(state.p ** 2, axis=1)).sum()))
    assert objective(state, [g], x, hp) == pytest.approx(expected, abs=1e-12)


def test_objective_zero_projection_fit_term_is_beta_k():
    state, graphs, x, hp = random_state(44)
    state.p = np.zeros_like(state.p)
    value = objective(state, graphs, x, hp)
    fused = sum(v.matrix.toarray() * state.w[i][None, :] for i, v in enumerate(graphs))
    lap = laplacian_of(state.s)
    expected = (float(np.sum((state.s.matrix - fused) ** 2))
                + hp.alpha * np.trace(state.f.T @ lap @ state.f)
                + hp.beta * hp.k)
    assert value == pytest.approx(expected, abs=1e-10)


def _view_sets(rng):
    """kNN view graphs, and fully dense ones, over 30 samples."""
    graphs, _, _, _ = blob_problem(61, n_per_cluster=10, n_views=3)
    return [graphs, [random_affinity(rng, 30) for _ in range(3)]]


def test_view_sums_are_bitwise_the_dense_sums():
    rng = np.random.default_rng(62)
    for views in _view_sets(rng):
        w = rng.normal(size=(3, 30))
        w /= w.sum(axis=0)
        reference = np.zeros((30, 30))
        for v, g in enumerate(views):
            reference += dense(g) * w[v][None, :]
        fused = _fused_columns(views, w)
        assert np.array_equal(fused, reference)
        assert np.array_equal(np.signbit(fused), np.signbit(reference))
        s = random_affinity(rng, 30).matrix
        stack = np.stack([s - dense(g) for g in views])
        assert np.array_equal(_view_grams(s, views),
                              np.einsum("vij,uij->jvu", stack, stack))


def test_update_s_is_bitwise_the_out_of_place_shift():
    state, graphs, x, hp = random_state(46, alpha=3.0)
    fused = sum(v.matrix.toarray() * state.w[i][None, :] for i, v in enumerate(graphs))
    shifted = fused - 0.25 * hp.alpha * squared_distances(state.f, state.f)
    expected = project_simplex_columns(shifted)
    assert np.array_equal(update_s(state, graphs, hp).matrix, expected)
    # update_s never reads the current S: a random S and the fitted S give
    # the same bits.
    for s in (random_affinity(np.random.default_rng(47), state.s.n),
              fit(graphs, x, replace(hp, max_outer_iters=3)).s):
        state.s = s
        assert update_s(state, graphs, hp).matrix.tobytes() == expected.tobytes()


def _dense_objective(state, graphs, x, hp, textbook=False):
    """The objective by its formula, with the whole fusion residual. Its
    spectral term is sum_i d_i ||f_i||^2 - Tr(F^T S F), or with textbook
    set, Tr(F^T L_S F) from the whole Laplacian."""
    fused = sum(v.matrix.toarray() * state.w[i][None, :] for i, v in enumerate(graphs))
    s, f = state.s.matrix, state.f
    resid_s = s - fused
    if textbook:
        spectral = float(np.sum(f * (laplacian_of(state.s) @ f)))
    else:
        degrees = 0.5 * (s.sum(axis=1) + s.sum(axis=0))
        spectral = float(degrees @ np.sum(f * f, axis=1) - np.sum(f * (s @ f)))
    resid_f = x @ state.p - f
    return (float(np.sum(resid_s * resid_s))
            + hp.alpha * spectral
            + hp.beta * (float(np.sum(resid_f * resid_f))
                         + hp.gamma * float(np.sqrt(np.sum(state.p * state.p, axis=1)).sum())))


def test_objective_is_bitwise_the_dense_formula():
    state, graphs, x, hp = random_state(45)
    assert len(_row_blocks(state.s.n, state.s.n)) == 1
    state.s = update_s(state, graphs, hp)
    state.w = update_w(state, graphs)
    assert objective(state, graphs, x, hp) == _dense_objective(state, graphs, x, hp)


def test_blocked_objective_is_the_dense_formula_to_round_off():
    # At n = 240 the fusion residual is summed in two blocks of columns;
    # the reference takes its spectral term from the whole Laplacian.
    state, graphs, x, hp = random_state(46, n_per_cluster=80, n_views=3)
    assert len(_row_blocks(state.s.n, state.s.n)) > 1
    for _ in range(2):
        value = objective(state, graphs, x, hp)
        expected = _dense_objective(state, graphs, x, hp, textbook=True)
        assert abs(value - expected) <= 1e-13 * abs(expected)
        state.s = update_s(state, graphs, hp)
        state.w = update_w(state, graphs)


def test_objective_matches_naive_double_loop_oracle():
    for seed in range(10):
        state, graphs, x, hp = random_state(seed, n_views=2)
        value = objective(state, graphs, x, hp)
        n, d = x.shape
        k = hp.k
        fusion = 0.0
        for j in range(n):
            col = state.s.matrix[:, j].copy()
            for v, g in enumerate(graphs):
                col -= state.w[v, j] * g.matrix.toarray()[:, j]
            fusion += float(col @ col)
        spectral = 0.0
        a = 0.5 * (state.s.matrix + state.s.matrix.T)
        for i in range(n):
            for j in range(n):
                diff = state.f[i] - state.f[j]
                spectral += 0.5 * a[i, j] * float(diff @ diff)
        fit_term = 0.0
        for i in range(n):
            row = x[i] @ state.p - state.f[i]
            fit_term += float(row @ row)
        sparsity = sum(float(np.sqrt(state.p[i] @ state.p[i])) for i in range(d))
        naive = fusion + hp.alpha * spectral + hp.beta * (fit_term + hp.gamma * sparsity)
        assert abs(value - naive) <= 1e-10 * max(1.0, abs(naive))


def test_objective_duplicated_view_admits_equal_value_weighting():
    # Splitting the duplicated view's weight reproduces the original
    # objective exactly.
    state, graphs, x, hp = random_state(45, n_views=2)
    state.s = update_s(state, graphs, hp)
    state.w = update_w(state, graphs)
    base = objective(state, graphs, x, hp)

    extended = graphs + [AffinityGraph(matrix=graphs[-1].matrix.copy())]
    w_ext = np.vstack([state.w[:-1], 0.5 * state.w[-1], 0.5 * state.w[-1]])
    dup_state = SolverState(p=state.p, f=state.f, s=state.s, w=w_ext,
                            gamma_diag=state.gamma_diag)
    assert objective(dup_state, extended, x, hp) == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------- fit

def test_fit_well_separated_reaches_target_components():
    # Blobs large enough that each per-view neighbor graph keeps every
    # cluster internally connected.
    graphs, x, labels, hp = blob_problem(
        46, n_per_cluster=35, k=3, n_views=2, d_v=20, noise=0.1,
        informative_fraction=0.4, k_neighbors=10,
        adaptive_alpha=True, max_outer_iters=25,
    )
    state = fit(graphs, x, hp)
    assert connected_components(state.s) == 3


def test_fit_traces_stay_aligned_and_flagged():
    graphs, x, labels, hp = blob_problem(47, max_outer_iters=5)
    state = fit(graphs, x, hp)
    assert len(state.objective_trace) == state.iteration + 1
    assert len(state.components_trace) == state.iteration + 1
    assert len(state.alpha_trace) == state.iteration + 1
    assert state.converged in (False, True)
    assert all(np.isfinite(v) for v in state.objective_trace)


def test_fit_nonconvergence_sets_flag_without_raising():
    graphs, x, labels, hp = blob_problem(48, max_outer_iters=2)
    state = fit(graphs, x, hp)
    assert state.iteration == 2
    assert not state.converged


@pytest.mark.parametrize("offset, factor", [(-1, 2.0), (1, 0.5)])
def test_fit_never_converges_on_an_iteration_that_changes_alpha(offset, factor, monkeypatch):
    # With tol_rel_objective = 1e300 every iteration that keeps alpha would
    # converge, so only the schedule keeps the fit going to its cap.
    monkeypatch.setattr(solver, "connected_components", lambda s: 3 + offset)
    graphs, x, labels, hp = blob_problem(51, tol_rel_objective=1e300, max_outer_iters=5,
                                         adaptive_alpha=True)
    state = fit(graphs, x, hp)
    assert state.converged is False
    assert state.iteration == 5
    assert state.alpha_trace == [1.0] + [factor ** i for i in range(5)]
    assert len(state.objective_trace) == len(state.components_trace) == 6

    state = fit(graphs, x, replace(hp, adaptive_alpha=False))
    assert state.converged is True
    assert state.iteration == 1


def test_fit_converges_to_fixed_point_on_single_view():
    graphs, x, labels, hp = blob_problem(
        49, n_views=1, noise=0.05, informative_fraction=1.0,
        alpha=10.0, beta=0.01, gamma=100.0,
    )
    state = fit(graphs, x, hp)
    assert state.converged
    assert state.iteration < 20


def test_fit_preserves_constraints_every_iteration():
    graphs, x, labels, hp = blob_problem(50, n_views=3)
    state = initialize(graphs, x, hp)
    for _ in range(6):
        state.p, state.gamma_diag = update_p(state, x, hp)
        state.f, state.p = update_f(state, x, hp)
        state.s = update_s(state, graphs, hp)
        state.w = update_w(state, graphs)
        assert (state.s.matrix >= 0).all()
        assert np.abs(state.s.matrix.sum(axis=0) - 1.0).max() <= 1e-9
        assert np.abs(state.f.T @ state.f - np.eye(hp.k)).max() <= 1e-8
        assert np.abs(state.w.sum(axis=0) - 1.0).max() <= 1e-9
        assert (state.gamma_diag > 0).all()


def test_fit_adaptive_alpha_reacts_to_component_count():
    # Force a single-component start with tiny alpha: the schedule must
    # raise alpha until the structure splits.
    graphs, x, labels, hp = blob_problem(
        51, n_per_cluster=15, k=3, noise=0.2, informative_fraction=0.5,
        alpha=1e-4, adaptive_alpha=True, max_outer_iters=40,
    )
    state = fit(graphs, x, hp)
    assert state.alpha_trace[-1] > hp.alpha or connected_components(state.s) == 3


# ------------------------------------------------------ sparse views, memory

@pytest.mark.parametrize("shape", [{}, WIDE], ids=["primal", "dual"])
def test_fit_on_csr_views_is_bitwise_the_fit_on_dense_views(shape):
    graphs, x, _, hp = blob_problem(52, n_views=3, max_outer_iters=5, **shape)
    assert _uses_dual_form(x) == bool(shape)
    on_csr = fit(graphs, x, hp)
    on_dense = fit([AffinityGraph(g.matrix.toarray()) for g in graphs], x, hp)
    for name in ("p", "f", "w"):
        assert getattr(on_csr, name).tobytes() == getattr(on_dense, name).tobytes()
    assert on_csr.s.matrix.tobytes() == on_dense.s.matrix.tobytes()
    assert on_csr.objective_trace == on_dense.objective_trace
    assert on_csr.components_trace == on_dense.components_trace


def test_view_grams_are_bitwise_the_batched_einsum_over_the_stack():
    # Blocks of columns are sized for V differences. At n = 150 every V
    # below 3 takes one block; at the second n of each V the columns come
    # in several blocks, the last of which took in a block one column wide.
    rng = np.random.default_rng(53)
    for n_views, merged in ((1, 363), (2, 313), (3, 209), (4, 181)):
        blocks = _row_blocks(merged, merged * n_views // 2)
        assert len(blocks) > 1 and merged % (blocks[0][1] - blocks[0][0]) == 1
        assert n_views > 2 or len(_row_blocks(150, 150 * n_views // 2)) == 1
        for n in (31, 150, merged):
            views = [build_view_affinity(rng.normal(size=(n, 4)), 10)
                     for _ in range(n_views - 1)]
            views.append(random_affinity(rng, n))
            s = random_affinity(rng, n).matrix
            stack = np.stack([s - dense(g) for g in views])
            assert np.array_equal(_view_grams(s, views),
                                  np.einsum("vij,uij->jvu", stack, stack))


def test_fit_and_view_graphs_stay_within_their_memory_bounds():
    # In units of one n x n array of doubles: three kNN view graphs hold at
    # most 0.2 of one, a fit's traced peak is at most 1.75 of them (S, whose
    # own array becomes the embedding operator, and block temporaries: a
    # second n x n array would pass 2), and update_w adds at most 0.5 at
    # three views and at four (one stack of a column block's V differences,
    # no n x n buffer).
    dataset, _ = generate_synthetic(200, 3, [(10, 1.0, 0.5)] * 3, seed=0)
    mats = [zscore_columns(v) for v in dataset.views]
    x = np.hstack(mats)
    unit = 8 * x.shape[0] ** 2
    hp = Hyperparams(k=3, max_outer_iters=3)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        graphs = [build_view_affinity(m, 10) for m in mats]
        held = tracemalloc.get_traced_memory()[0] - start
        fit(graphs, x, replace(hp, max_outer_iters=1))  # first-call costs, unmeasured
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        state = fit(graphs, x, hp)
        peak = tracemalloc.get_traced_memory()[1] - start
        peaks_w = []
        for views in (graphs, graphs + [build_view_affinity(x, 10)]):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            update_w(state, views)
            peaks_w.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert held <= 0.2 * unit
    assert peak <= 1.75 * unit
    assert max(peaks_w) <= 0.5 * unit
