"""Clustering-based evaluation: seeded k-means, optimal-matching accuracy,
and normalized mutual information.

k-means is implemented here (rather than borrowed) so restarts, tie-breaks,
and empty-cluster repair are fully deterministic given the seed, which the
experiment pipeline relies on for reproducible reports. ACC and NMI are
plain floats, in [0, 1] by construction.
"""

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .errors import ConfigError, require_finite, require_integers
from .numerics import squared_distances

KMEANS_MAX_ITERS = 300
KMEANS_REL_TOL = 1e-8


def _kmeanspp_centers(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = squared_distances(data, centers[:1])[:, 0]
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = data[idx]
        d2 = np.minimum(d2, squared_distances(data, centers[c : c + 1])[:, 0])
    return centers


def _lloyd(data: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    k = centers.shape[0]
    prev_inertia = np.inf
    for _ in range(KMEANS_MAX_ITERS):
        d2 = squared_distances(data, centers)
        labels = d2.argmin(axis=1)
        # Repair empty clusters by reseeding them at the point currently
        # farthest from its assigned center.
        assigned = d2[np.arange(data.shape[0]), labels]
        for c in range(k):
            if not (labels == c).any():
                far = int(assigned.argmax())
                centers[c] = data[far]
                labels[far] = c
                assigned[far] = 0.0
        for c in range(k):
            members = labels == c
            # Repair can re-empty a singleton cluster it stole from; keep
            # the stale center and let the next assignment pass fix it.
            if members.any():
                centers[c] = data[members].mean(axis=0)
        inertia = float(np.sum((data - centers[labels]) ** 2))
        if np.isfinite(prev_inertia) and (
            prev_inertia - inertia <= KMEANS_REL_TOL * max(prev_inertia, 1e-30)
        ):
            break
        prev_inertia = inertia
    return labels, inertia


def kmeans(data: np.ndarray, k: int, restarts: int = 50, seed: int = 0) -> np.ndarray:
    """Best-inertia labeling over `restarts` k-means++ initializations.

    Deterministic given the seed: one RNG drives every restart in order and
    ties keep the earlier restart.
    """
    data = require_finite("data", data, 2)
    require_integers("k", k, least=1)
    require_integers("restarts", restarts, least=1)
    require_integers("seed", seed, least=0)
    if k > data.shape[0]:
        raise ConfigError(f"k must be at most {data.shape[0]}, the sample count, got {k}")
    rng = np.random.default_rng(seed)
    best_labels = None
    best_inertia = np.inf
    for _ in range(restarts):
        centers = _kmeanspp_centers(data, k, rng)
        labels, inertia = _lloyd(data, centers)
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels


def _contingency(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ConfigError(f"label vectors must match, got shapes {pred.shape} and {truth.shape}")
    if pred.size == 0:
        raise ConfigError("label vectors are empty")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def clustering_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of samples matched under the best one-to-one mapping of
    predicted clusters to true clusters. Invariant to relabeling either
    argument.

    The mapping is a minimum-weight full bipartite matching (LAPJVsp) of
    the contingency table under the costs ``max + 1 - count``. Every cost
    is at least 1, so the graph is complete: the sparse solver drops zero
    entries, and the raw counts can admit no full matching. Every full
    matching has min(rows, cols) edges, so the constant shift keeps the
    maximum-count matching, and all of those share one integer total,
    whichever way ties break.
    """
    table = _contingency(pred, truth)
    rows, cols = min_weight_full_bipartite_matching(csr_array(table.max() + 1.0 - table))
    return float(table[rows, cols].sum()) / table.sum()


def nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mutual information normalized by sqrt(H(pred) * H(truth)).

    Degenerate partitions: 1.0 when both labelings are single-cluster
    (equal as partitions), 0.0 when exactly one is.
    """
    table = _contingency(pred, truth).astype(float)
    total = table.sum()
    joint = table / total
    p_rows = joint.sum(axis=1)
    p_cols = joint.sum(axis=0)
    h_rows = float(-np.sum(p_rows[p_rows > 0] * np.log(p_rows[p_rows > 0])))
    h_cols = float(-np.sum(p_cols[p_cols > 0] * np.log(p_cols[p_cols > 0])))
    if h_rows == 0.0 and h_cols == 0.0:
        return 1.0
    if h_rows == 0.0 or h_cols == 0.0:
        return 0.0
    mask = joint > 0
    outer = p_rows[:, None] * p_cols[None, :]
    info = float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))
    return float(min(1.0, max(0.0, info / np.sqrt(h_rows * h_cols))))


def score_clustering(
    data: np.ndarray,
    truth: np.ndarray,
    k: int,
    restarts: int,
    seeds: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """ACC and NMI of k-means labelings of `data`, one run per seed."""
    if not seeds:
        raise ConfigError("at least one evaluation seed is required")
    truth = np.asarray(truth)
    samples = np.shape(data)[:1]
    if truth.shape != samples:
        raise ConfigError(f"label vectors must match, got shapes {samples} and {truth.shape}")
    accs = []
    nmis = []
    for seed in seeds:
        pred = kmeans(data, k, restarts=restarts, seed=seed)
        accs.append(clustering_accuracy(pred, truth))
        nmis.append(nmi(pred, truth))
    return np.array(accs), np.array(nmis)
