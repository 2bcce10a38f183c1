"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -rA` to see every line. The
checks are property-based and synthetic-scale; every tolerance is fixed
here, not tuned at runtime.
"""

import itertools
import json
import time

import numpy as np
import pytest

from acsl.data import DatasetManifest, save_dataset
from acsl.evaluation import clustering_accuracy, kmeans
from acsl.experiment import RunConfig, run_experiment
from acsl.graph import build_view_affinity, connected_components, laplacian_of
from acsl.numerics import project_simplex, smallest_k_eigen
from acsl.selection import rank_features, select_top
from acsl.solver import (
    Hyperparams,
    SolverState,
    _embedding_operator,
    fit,
    initialize,
    objective,
    update_f,
    update_p,
    update_s,
    update_w,
)
from acsl.synthetic import generate_synthetic
from acsl.data import zscore_columns

from helpers import blob_problem, mm_steps, random_affinity, random_state

DESCENT_SLACK = 1e-9


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status} - {detail}")


def _random_problem(seed: int):
    """One random synthetic instance within the N <= 200, V <= 4 envelope."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    n_views = int(rng.integers(1, 5))
    n_per = int(rng.integers(10, 45))
    d_v = int(rng.integers(8, 25))
    noise = float(rng.uniform(0.2, 1.0))
    hp_cycle = [0.1, 1.0, 10.0]
    alpha = hp_cycle[seed % 3]
    beta = hp_cycle[(seed // 3) % 3]
    gamma = hp_cycle[(seed // 9) % 3]
    return blob_problem(
        seed, n_per_cluster=n_per, k=k, n_views=n_views, d_v=d_v, noise=noise,
        informative_fraction=0.5, k_neighbors=min(10, n_per * k - 1),
        alpha=alpha, beta=beta, gamma=gamma, max_outer_iters=10,
    )


def test_criterion_1_monotone_descent_per_outer_iteration():
    """Objective trace non-increasing per outer iteration (1e-9 slack) on
    20 random instances with fixed alpha, in under 30 seconds."""
    started = time.perf_counter()
    worst = 0.0
    worst_where = None
    for seed in range(20):
        graphs, x, labels, hp = _random_problem(seed)
        state = fit(graphs, x, hp)
        trace = state.objective_trace
        for t in range(1, len(trace)):
            increase = trace[t] - trace[t - 1]
            if increase > worst:
                worst = increase
                worst_where = (seed, t)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds the 30s budget"
    ok = worst <= DESCENT_SLACK
    _report(1, "monotone descent", ok,
            f"worst per-iteration increase {worst:.3e} at (seed, iter)={worst_where}, "
            f"runtime {elapsed:.1f}s")
    assert ok, (
        f"objective increased by {worst:.3e} (> {DESCENT_SLACK}) at "
        f"(seed, iteration)={worst_where}. Each block update should be the "
        "exact minimizer or a majorize-minimize step of the epsilon-smoothed "
        "objective, whose descent bounds the raw trace's rise by "
        "beta * gamma * d * sqrt(eps); check the update derivations in "
        "acsl.solver."
    )


def test_criterion_2_convergence_speed_on_well_separated_data():
    """Relative objective change < 1e-6 within 20 outer iterations on
    well-separated (zero-noise) synthetic data."""
    slowest = 0
    for seed, n_views in [(0, 1), (1, 1), (2, 2), (3, 2), (4, 3), (5, 3)]:
        graphs, x, labels, hp = blob_problem(
            seed, n_per_cluster=30, k=3, n_views=n_views, d_v=15, noise=0.0,
            informative_fraction=1.0, k_neighbors=10, max_outer_iters=20,
        )
        state = fit(graphs, x, hp)
        trace = state.objective_trace
        reached = None
        for t in range(1, len(trace)):
            rel = abs(trace[t] - trace[t - 1]) / max(abs(trace[t - 1]), 1e-30)
            if rel < 1e-6:
                reached = t
                break
        assert reached is not None, (
            f"seed {seed} (V={n_views}): no iteration reached relative "
            f"change < 1e-6 within 20"
        )
        slowest = max(slowest, reached)
    ok = slowest <= 20
    _report(2, "convergence speed", ok,
            f"all instances converged; slowest took {slowest} iterations")
    assert ok


def test_criterion_3_adaptive_alpha_realizes_rank_constraint():
    """Adaptive alpha on low-noise 3-cluster 2-view data (N=150): final
    component count is 3 and matches the spectral zero multiplicity in at
    least 18 of 20 seeds."""
    successes = 0
    for seed in range(20):
        dataset, labels = generate_synthetic(
            50, 3, [(20, 0.1, 0.4), (15, 0.1, 0.4)], seed=seed
        )
        mats = [zscore_columns(v) for v in dataset.views]
        graphs = [build_view_affinity(m, 10) for m in mats]
        hp = Hyperparams(k=3, adaptive_alpha=True, max_outer_iters=25)
        state = fit(graphs, np.hstack(mats), hp)
        comps = connected_components(state.s)
        vals, _ = smallest_k_eigen(laplacian_of(state.s), 10)
        spectral = int(np.sum(vals < 1e-7))
        if comps == 3 and spectral == comps:
            successes += 1
    ok = successes >= 18
    _report(3, "rank-constraint realization", ok, f"{successes}/20 seeds hit 3 components")
    assert ok, f"only {successes}/20 seeds reached 3 agreeing components"


def test_criterion_4_oracle_equivalences():
    """project_simplex vs grid search, update_w vs KKT system, update_f vs
    full eigendecomposition, objective vs naive double loop, accuracy vs
    factorial enumeration; 100 random instances each."""
    rng = np.random.default_rng(1000)

    # simplex projection vs threshold grid search (n=5, grid 1e-3)
    for _ in range(100):
        v = rng.normal(scale=1.5, size=5)
        x = project_simplex(v)
        grid = np.arange(v.min() - 0.2 - 1.0 / 5, v.max() + 1e-9, 1e-3)
        cands = np.maximum(v[None, :] - grid[:, None], 0.0)
        best = cands[np.abs(cands.sum(axis=1) - 1.0).argmin()]
        assert np.abs(x - best).max() <= 5e-3

    # update_w vs KKT linear-system oracle at 1e-8
    for i in range(100):
        n, n_views = 10, 3
        local = np.random.default_rng(2000 + i)
        views = [random_affinity(local, n) for _ in range(n_views)]
        state = SolverState(
            p=np.zeros((2, 2)), f=np.zeros((n, 2)), s=random_affinity(local, n),
            w=np.full((n_views, n), 1.0 / n_views), gamma_diag=np.ones(2),
        )
        w = update_w(state, views)
        for j in range(n):
            b = np.stack([state.s.matrix[:, j] - g.matrix[:, j] for g in views], axis=1)
            gram = b.T @ b
            kkt = np.zeros((n_views + 1, n_views + 1))
            kkt[:n_views, :n_views] = 2.0 * gram
            kkt[:n_views, n_views] = 1.0
            kkt[n_views, :n_views] = 1.0
            rhs = np.zeros(n_views + 1)
            rhs[n_views] = 1.0
            sol = np.linalg.solve(kkt, rhs)[:n_views]
            assert np.abs(w[:, j] - sol).max() <= 1e-8

    # update_f trace vs full-spectrum oracle at 1e-8
    for i in range(100):
        state, graphs, x, hp = random_state(
            3000 + i, n_per_cluster=5, k=2, n_views=1, d_v=6, noise=0.8,
        )
        m, _ = _embedding_operator(state.s, x, state.gamma_diag, hp)
        f, _ = update_f(state, x, hp)
        target = np.linalg.eigvalsh(m)[: hp.k].sum()
        assert abs(np.trace(f.T @ m @ f) - target) <= 1e-8

    # objective vs naive double-loop oracle at 1e-10
    for i in range(100):
        state, graphs, x, hp = random_state(
            4000 + i, n_per_cluster=4, k=2, n_views=2, d_v=5, noise=0.8,
        )
        value = objective(state, graphs, x, hp)
        n, d = x.shape
        fusion = 0.0
        for j in range(n):
            col = state.s.matrix[:, j].copy()
            for v, g in enumerate(graphs):
                col -= state.w[v, j] * g.matrix.toarray()[:, j]
            fusion += float(col @ col)
        a = 0.5 * (state.s.matrix + state.s.matrix.T)
        spectral = 0.0
        for r in range(n):
            for c in range(n):
                diff = state.f[r] - state.f[c]
                spectral += 0.5 * a[r, c] * float(diff @ diff)
        fit_term = float(np.sum((x @ state.p - state.f) ** 2))
        sparsity = sum(float(np.sqrt(state.p[r] @ state.p[r])) for r in range(d))
        naive = fusion + hp.alpha * spectral + hp.beta * (fit_term + hp.gamma * sparsity)
        assert abs(value - naive) <= 1e-10 * max(1.0, abs(naive))

    # clustering accuracy vs factorial enumeration for k <= 4
    for i in range(100):
        local = np.random.default_rng(5000 + i)
        k = int(local.integers(2, 5))
        pred = local.integers(0, k, size=20)
        truth = local.integers(0, k, size=20)
        ours = clustering_accuracy(pred, truth)
        best = max(
            float(np.mean(np.array([perm[v] for v in pred]) == truth))
            for perm in itertools.permutations(range(k))
        )
        assert abs(ours - best) <= 1e-12

    _report(4, "oracle equivalence", True, "all five oracle families agree on 100 instances each")


def test_criterion_5a_projection_update_stationarity():
    """Finite-difference stationarity of the projection update (relative
    error < 1e-4) on 20 instances."""
    worst = 0.0
    for seed in range(20):
        state, graphs, x, hp = random_state(
            6000 + seed, n_per_cluster=5, k=2, n_views=2, d_v=4,
            gamma=[0.1, 1.0, 10.0][seed % 3],
        )
        p, gd = update_p(state, x, hp)

        def surrogate(q):
            resid = x @ q - state.f
            return float(np.sum(resid * resid)
                         + hp.gamma * np.sum(gd * np.sum(q * q, axis=1)))

        h = 1e-5
        fd = np.zeros_like(p)
        for i in range(p.shape[0]):
            for j in range(p.shape[1]):
                e = np.zeros_like(p)
                e[i, j] = h
                fd[i, j] = (surrogate(p + e) - surrogate(p - e)) / (2 * h)
        rel = np.linalg.norm(fd) / (1.0 + np.linalg.norm(p))
        worst = max(worst, rel)
    ok = worst < 1e-4
    _report(5, "projection stationarity", ok, f"worst relative gradient {worst:.3e}")
    assert ok


def test_criterion_5b_inner_objective_non_increasing():
    """Inner reweighted-regression objective non-increasing per inner step
    (1e-9 slack) along full solver runs on the same 20 instances."""
    worst = 0.0
    worst_where = None
    for seed in range(20):
        state, graphs, x, hp = random_state(
            6000 + seed, n_per_cluster=5, k=2, n_views=2, d_v=4,
            gamma=[0.1, 1.0, 10.0][seed % 3],
        )
        for it in range(6):
            history = mm_steps(state, x, hp)
            for step, (before, after) in enumerate(zip(history, history[1:])):
                increase = after - before
                if increase > worst:
                    worst = increase
                    worst_where = (seed, it, step)
            state.f, state.p = update_f(state, x, hp)
            state.s = update_s(state, graphs, hp)
            state.w = update_w(state, graphs)
    ok = worst <= DESCENT_SLACK
    _report(5, "inner objective descent", ok,
            f"worst inner-step increase {worst:.3e} at (seed, outer, inner)={worst_where}")
    assert ok, (
        f"inner objective increased by {worst:.3e} (> {DESCENT_SLACK}) at "
        f"(seed, outer, inner)={worst_where}. Each reweighted solve is a "
        "majorize-minimize step of the epsilon-smoothed objective "
        "||X P - F||^2 + gamma * sum(sqrt(||row||^2 + eps)), which the inner "
        "history must track."
    )


def test_criterion_6_constraint_invariants_every_iteration():
    """After every outer iteration: similarity columns on the simplex
    (1e-9), orthonormal indicator (1e-8), view-weight column sums 1 (1e-9)."""
    checked = 0
    for seed in range(6):
        graphs, x, labels, hp = _random_problem(seed)
        state = initialize(graphs, x, hp)
        for _ in range(8):
            state.p, state.gamma_diag = update_p(state, x, hp)
            state.f, state.p = update_f(state, x, hp)
            state.s = update_s(state, graphs, hp)
            state.w = update_w(state, graphs)
            assert (state.s.matrix >= 0).all()
            assert np.abs(state.s.matrix.sum(axis=0) - 1.0).max() <= 1e-9
            assert np.abs(state.f.T @ state.f - np.eye(hp.k)).max() <= 1e-8
            assert np.abs(state.w.sum(axis=0) - 1.0).max() <= 1e-9
            assert (state.gamma_diag > 0).all()
            checked += 1
    _report(6, "constraint invariants", True, f"{checked} iteration states checked")


def test_criterion_7_selection_quality_beats_random():
    """With 20% informative dimensions and moderate noise: precision@l at
    least 3x the random-selection expectation, and k-means accuracy on the
    selected features at least 0.1 above an equal random subset (means over
    20 seeds)."""
    precisions, acc_sel, acc_rnd = [], [], []
    for seed in range(20):
        dataset, labels = generate_synthetic(
            40, 3, [(50, 1.0, 0.2), (50, 1.0, 0.2)], seed=seed
        )
        mats = [zscore_columns(v) for v in dataset.views]
        graphs = [build_view_affinity(m, 10) for m in mats]
        x = np.hstack(mats)
        state = fit(graphs, x, Hyperparams(k=3, max_outer_iters=40))
        truth = set(dataset.stacked_informative_dims().tolist())
        l = len(truth)
        selected = select_top(rank_features(state.p), l)
        precisions.append(len(truth & set(selected.tolist())) / l)
        rng = np.random.default_rng(9000 + seed)
        random_dims = rng.choice(x.shape[1], size=l, replace=False)
        pred_sel = kmeans(x[:, selected], 3, restarts=10, seed=0)
        pred_rnd = kmeans(x[:, random_dims], 3, restarts=10, seed=0)
        acc_sel.append(clustering_accuracy(pred_sel, labels))
        acc_rnd.append(clustering_accuracy(pred_rnd, labels))
    random_precision = l / x.shape[1]
    ratio = float(np.mean(precisions)) / random_precision
    gap = float(np.mean(acc_sel)) - float(np.mean(acc_rnd))
    ok = ratio >= 3.0 and gap >= 0.1
    _report(7, "selection quality", ok,
            f"precision ratio {ratio:.2f} (need >= 3), accuracy gap {gap:.3f} (need >= 0.1)")
    assert ratio >= 3.0, f"precision ratio {ratio:.2f} below 3x random"
    assert gap >= 0.1, f"accuracy gap {gap:.3f} below 0.1"


def test_criterion_8_deterministic_outputs(tmp_path):
    """Identical manifest, config, and seeds produce byte-identical results
    JSON and trace CSV."""
    dataset, labels = generate_synthetic(
        15, 3, [(12, 0.4, 0.5), (8, 0.4, 0.5)], seed=77
    )
    manifest = DatasetManifest.from_file(
        save_dataset(dataset, tmp_path / "data", labels=labels)
    )
    blobs = []
    for name in ("first", "second"):
        config = RunConfig(
            hyperparams=Hyperparams(k=3, max_outer_iters=10),
            k_neighbors=8,
            l_grid=(6, 12),
            kmeans_restarts=5,
            eval_seeds=(0, 1, 2),
            output_dir=str(tmp_path / name),
        )
        run_experiment(manifest, config)
        blobs.append({
            "results": (tmp_path / name / "results.json").read_bytes(),
            "trace": (tmp_path / name / "trace.csv").read_bytes(),
        })
    ok = blobs[0] == blobs[1]
    _report(8, "determinism", ok, "results.json and trace.csv byte-identical across reruns")
    assert ok
    payload = json.loads(blobs[0]["results"])
    assert payload["schema_version"] == 1


def test_criterion_9_learned_similarity_beats_a_fixed_fusion():
    """The paper's first claim: learning S jointly with the selection picks
    more planted dims than a fixed fusion of the view graphs. Two noisy
    views with 20% informative dims and one pure-noise view, n = 150,
    k = 3. Learned S is an adaptive fit; fixed S keeps the initial S, the
    projection of the uniform fusion, through 20 rounds of ``update_p``
    and ``update_f`` at alpha = 1. Mean precision of the top 20 dims over
    seeds 0-5 must be at least 0.15 above fixed S's (it reads 0.958
    against 0.608)."""
    learned, fixed = [], []
    for seed in range(6):
        dataset, _ = generate_synthetic(50, 3, [(50, 1.5, 0.2)] * 2 + [(50, 1.0, 0.0)],
                                        seed=seed)
        mats = [zscore_columns(v) for v in dataset.views]
        graphs = [build_view_affinity(m, 10) for m in mats]
        x = np.hstack(mats)
        truth = set(dataset.stacked_informative_dims().tolist())

        def precision(p):
            return len(truth & set(select_top(rank_features(p), 20).tolist())) / 20

        learned.append(precision(fit(graphs, x, Hyperparams(
            k=3, adaptive_alpha=True, max_outer_iters=200)).p))
        hp = Hyperparams(k=3, alpha=1.0)
        state = initialize(graphs, x, hp)
        for _ in range(20):
            state.p, state.gamma_diag = update_p(state, x, hp)
            state.f, state.p = update_f(state, x, hp)
        fixed.append(precision(state.p))
    gain = float(np.mean(learned)) - float(np.mean(fixed))
    ok = gain >= 0.15
    _report(9, "learned S beats fixed S", ok,
            f"mean precision {np.mean(learned):.3f} against {np.mean(fixed):.3f} "
            f"(need a gain >= 0.15)")
    assert ok, f"learned S gains only {gain:.3f} precision over fixed S"
