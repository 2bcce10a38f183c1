"""Shared builders for randomized test instances."""

import numpy as np

from acsl.data import zscore_columns
from acsl.graph import AffinityGraph, build_view_affinity
from acsl.solver import Hyperparams, initialize
from acsl.synthetic import generate_synthetic


def random_affinity(rng: np.random.Generator, n: int, zero_diag: bool = False) -> AffinityGraph:
    """Random column-stochastic affinity structure."""
    m = rng.random((n, n))
    if zero_diag:
        np.fill_diagonal(m, 0.0)
    m /= m.sum(axis=0)
    return AffinityGraph(matrix=m)


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
