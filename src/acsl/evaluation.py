"""Clustering-based evaluation: seeded k-means, optimal-matching accuracy,
and normalized mutual information.

k-means is implemented here (rather than borrowed) so restarts, tie-breaks,
and empty-cluster repair are fully deterministic given the seed, which the
experiment pipeline relies on for reproducible reports. ACC and NMI are
plain floats, in [0, 1] by construction.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

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
    labels = np.zeros(data.shape[0], dtype=int)
    for _ in range(KMEANS_MAX_ITERS):
        d2 = squared_distances(data, centers)
        labels = d2.argmin(axis=1)
        # Repair empty clusters by reseeding them at the point currently
        # farthest from its assigned center.
        assigned = d2[np.arange(data.shape[0]), labels].copy()
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
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError(f"expected a non-empty 2-d data matrix, got shape {data.shape}")
    if not 1 <= k <= data.shape[0]:
        raise ValueError(f"k must be in [1, {data.shape[0]}], got {k}")
    if restarts < 1:
        raise ValueError(f"restarts must be positive, got {restarts}")
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
        raise ValueError(
            f"label vectors must match, got shapes {pred.shape} and {truth.shape}"
        )
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def clustering_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of samples matched under the best one-to-one mapping of
    predicted clusters to true clusters (Hungarian assignment on the
    contingency table). Invariant to relabeling either argument.
    """
    table = _contingency(pred, truth)
    rows, cols = linear_sum_assignment(table, maximize=True)
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
        raise ValueError("at least one evaluation seed is required")
    accs = []
    nmis = []
    for seed in seeds:
        pred = kmeans(data, k, restarts=restarts, seed=seed)
        accs.append(clustering_accuracy(pred, truth))
        nmis.append(nmi(pred, truth))
    return np.array(accs), np.array(nmis)
