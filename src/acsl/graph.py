"""Affinity graph construction, Laplacians, and component diagnostics.

A similarity structure is stored column-stochastically: column j holds the
affinities of every sample to sample j and lies on the probability simplex.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse import csgraph

from .errors import ConfigError

# Symmetrized edge weights above this count as edges when counting components.
COMPONENT_EDGE_THRESHOLD = 1e-8

COLUMN_SUM_TOL = 1e-9


@dataclass(frozen=True)
class AffinityGraph:
    """One n x n similarity structure with simplex-constrained columns.

    matrix[i, j] is the affinity of sample i to sample j. Every column is
    nonnegative and sums to 1 (within COLUMN_SUM_TOL). Pre-constructed view
    graphs additionally have a zero diagonal; a learned structure may not.
    Instances are treated as immutable after construction.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"affinity matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("affinity matrix has non-finite entries")
        if (m < 0).any():
            raise ValueError("affinity matrix has negative entries")
        sums = m.sum(axis=0)
        worst = np.abs(sums - 1.0).max()
        if worst > COLUMN_SUM_TOL:
            raise ValueError(f"columns must sum to 1, worst deviation {worst:.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Laplacian:
    """Symmetric graph Laplacian D - (S + S^T)/2 with its degree vector.

    The degree matrix D is built from row sums of the symmetrized weights so
    the Laplacian is symmetric positive semidefinite with zero row sums.
    """

    matrix: np.ndarray
    degree: np.ndarray

    def __post_init__(self):
        worst = np.abs(self.matrix.sum(axis=1)).max()
        if worst > 1e-9:
            raise ValueError(f"Laplacian row sums must vanish, worst {worst:.3e}")


def build_view_affinity(x_v: np.ndarray, k_neighbors: int) -> AffinityGraph:
    """Build a k-nearest-neighbor heat-kernel affinity graph for one view.

    Column j gets exactly `k_neighbors` nonzero entries: the k nearest
    samples to j by Euclidean distance (j itself excluded), weighted by
    exp(-d^2 / (2 * sigma_j^2)) with the local scale sigma_j equal to the
    distance to j's k-th neighbor, then normalized to sum 1. Columns whose
    k nearest neighbors are all at distance 0 fall back to uniform weights.
    """
    x = np.asarray(x_v, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("feature matrix has non-finite entries")
    n = x.shape[0]
    if k_neighbors < 1:
        raise ConfigError(f"k_neighbors must be positive, got {k_neighbors}")
    if k_neighbors >= n:
        raise ConfigError(
            f"k_neighbors={k_neighbors} requires at least {k_neighbors + 1} samples, got {n}"
        )

    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    np.fill_diagonal(d2, np.inf)

    # Stable sort keeps tie-breaking deterministic by sample index.
    order = np.argsort(d2, axis=0, kind="stable")
    neighbors = order[:k_neighbors, :]
    cols = np.arange(n)[None, :]
    ndist = d2[neighbors, cols]
    scale = ndist[-1, :]  # squared distance to the k-th neighbor

    weights = np.ones_like(ndist)
    live = scale > 0
    weights[:, live] = np.exp(-ndist[:, live] / (2.0 * scale[live]))
    weights /= weights.sum(axis=0)

    matrix = np.zeros((n, n))
    matrix[neighbors, cols] = weights
    return AffinityGraph(matrix=matrix)


def laplacian_of(s: AffinityGraph) -> Laplacian:
    """Laplacian D - A of the symmetrized weights A = (S + S^T)/2."""
    a = 0.5 * (s.matrix + s.matrix.T)
    degree = a.sum(axis=1)
    lap = np.diag(degree) - a
    return Laplacian(matrix=lap, degree=degree)


def connected_components(
    s: AffinityGraph, threshold: float = COMPONENT_EDGE_THRESHOLD
) -> int:
    """Number of connected components of the thresholded undirected graph.

    Samples i and j are adjacent iff (S_ij + S_ji)/2 > threshold; the count
    is found by graph traversal.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    adjacency = 0.5 * (s.matrix + s.matrix.T) > threshold
    count, _ = csgraph.connected_components(csr_matrix(adjacency), directed=False)
    return int(count)
