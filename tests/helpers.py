"""Shared builders for randomized test instances."""

import re

import numpy as np
import pytest
from scipy.sparse import issparse

from acsl.data import zscore_columns
from acsl.errors import ConfigError
from acsl.graph import AffinityGraph, build_view_affinity
from acsl.solver import Hyperparams, initialize, update_p
from acsl.synthetic import generate_synthetic


def random_affinity(rng: np.random.Generator, n: int, zero_diag: bool = False) -> AffinityGraph:
    """Random column-stochastic affinity structure."""
    m = rng.random((n, n))
    if zero_diag:
        np.fill_diagonal(m, 0.0)
    m /= m.sum(axis=0)
    return AffinityGraph(matrix=m)


def dense(g: AffinityGraph) -> np.ndarray:
    """A graph's matrix as a dense array; kNN view graphs are stored as CSR."""
    return g.matrix.toarray() if issparse(g.matrix) else g.matrix


def random_orthonormal(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return q


def random_spd(rng: np.random.Generator, n: int, jitter: float = 0.1) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return a @ a.T + jitter * np.eye(n)


def blob_problem(seed, n_per_cluster=15, k=3, n_views=2, d_v=12, noise=0.6,
                 informative_fraction=0.5, k_neighbors=8, **hp_kwargs):
    """Standard small solver problem: view graphs, stacked features, labels, hp."""
    dataset, labels = generate_synthetic(
        n_per_cluster, k, [(d_v, noise, informative_fraction)] * n_views, seed=seed
    )
    mats = [zscore_columns(v) for v in dataset.views]
    graphs = [build_view_affinity(m, min(k_neighbors, dataset.n - 1)) for m in mats]
    x = np.hstack(mats)
    hp = Hyperparams(k=k, **hp_kwargs)
    return graphs, x, labels, hp


def random_state(seed, **kwargs):
    """Initialized solver state on a random blob problem."""
    graphs, x, labels, hp = blob_problem(seed, **kwargs)
    return initialize(graphs, x, hp), graphs, x, hp


def smoothed_regression_objective(x, p, f, hp):
    """h(P) = ||X P - F||^2 + gamma * sum_i sqrt(||p_i||^2 + epsilon), the
    objective each ``update_p`` step decreases."""
    resid = x @ p - f
    return float(np.sum(resid * resid)
                 + hp.gamma * np.sqrt(np.sum(p * p, axis=1) + hp.epsilon).sum())


def mm_steps(state, x, hp, steps=30):
    """Take `steps` ``update_p`` steps from state, updating state.p and
    state.gamma_diag in place. Returns h before the first step and after
    each one."""
    history = [smoothed_regression_objective(x, state.p, state.f, hp)]
    for _ in range(steps):
        state.p, state.gamma_diag = update_p(state, x, hp)
        history.append(smoothed_regression_objective(x, state.p, state.f, hp))
    return history


def check_count_rule(call, name, least, valid):
    """Check the rule every count of the package follows, where call(value)
    passes value as the count `name`: 2.5 and least - 1 each raise a
    ConfigError, also a ValueError, naming the field, and the numpy integer
    np.int64(valid) is accepted. Returns call's result for it."""
    bound = "non-negative" if least == 0 else f"at least {least}"
    for value, rule in ((2.5, "an integer"), (least - 1, bound)):
        with pytest.raises(ConfigError, match=rf"{name}.* must be {rule}, got {value}$") as caught:
            call(value)
        assert isinstance(caught.value, ValueError)
    return call(np.int64(valid))


def check_array_rule(call, name, ndim):
    """Check the rule every input array of the package follows, where
    call(a) passes a as the array `name` with `ndim` axes: one axis too few
    or too many, no entries, a NaN, +inf or -inf entry, and a string entry
    each raise a ConfigError, also a ValueError, whose message starts with
    the name."""
    shape = (3,) * ndim
    cases = [(np.ones(bad), re.escape(f"a non-empty {ndim}-d array, got shape {bad}") + "$")
             for bad in ((3,) * (ndim - 1), (3,) * (ndim + 1), (0,) + shape[1:], shape[1:] + (0,))]
    for entry in (np.nan, np.inf, -np.inf, "x"):
        a = np.ones(shape, dtype=object if entry == "x" else float)
        a.flat[1] = entry
        cases.append((a, "numeric: " if entry == "x" else "finite$"))
    for a, rule in cases:
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be {rule}") as caught:
            call(a)
        assert isinstance(caught.value, ValueError)
