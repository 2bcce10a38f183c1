"""Affinity graph construction, Laplacians, and component diagnostics.

A similarity structure is an ``AffinityGraph``, stored column-stochastically:
column j holds the affinities of every sample to sample j and lies on the
probability simplex. A kNN view graph keeps only its support, as a CSR
array with k entries per column, from construction to the end of a fit;
the learned structure is a dense n x n array. Its Laplacian is a plain
n x n array either way.

The arrays derived from a graph, its Laplacian and its support, are
computed on first use and cached on the instance, read-only. So a graph's
``matrix`` must not be changed after construction.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csgraph, csr_array, csr_matrix, issparse

from .errors import ConfigError, require_integers
from .numerics import squared_distances

# Symmetrized edge weights above this count as edges when counting components.
COMPONENT_EDGE_THRESHOLD = 1e-8

COLUMN_SUM_TOL = 1e-9


@dataclass(frozen=True)
class AffinityGraph:
    """One n x n similarity structure with simplex-constrained columns.

    matrix[i, j] is the affinity of sample i to sample j, as a dense array
    (a learned structure) or a sparse one, kept as a CSR array in canonical
    form: sorted indices, no duplicates, no explicit zeros (a kNN view
    graph). Every column is nonnegative and sums to 1 (within
    COLUMN_SUM_TOL), checked in two passes over the stored entries:
    entries >= 0 (False at a NaN), then the column sums (inf at an inf
    entry, or where the sum overflows). Pre-constructed view graphs
    additionally have a zero diagonal; a learned structure may not.
    Instances are treated as immutable after construction.
    """

    matrix: np.ndarray | csr_array

    def __post_init__(self):
        sparse = issparse(self.matrix)
        m = _canonical_csr(self.matrix) if sparse else np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"affinity matrix must be square, got shape {m.shape}")
        if not ((m.data if sparse else m) >= 0).all():  # False at a NaN
            raise ValueError("affinity matrix has negative or NaN entries")
        with np.errstate(over="ignore"):  # an overflowing sum is inf, rejected below
            sums = (np.bincount(m.indices, weights=m.data, minlength=m.shape[1])
                    if sparse else m.sum(axis=0))
        worst = np.abs(sums - 1.0).max()
        if not worst <= COLUMN_SUM_TOL:  # an inf entry makes its column sum inf
            raise ValueError(f"columns must sum to 1, worst deviation {worst:.3e}")
        object.__setattr__(self, "matrix", m)

    def __getstate__(self) -> dict:
        return {"matrix": self.matrix}

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the nonzero entries, in row-major order:
        k per column for a kNN view graph. Read from the CSR form, which
        stores exactly these, in this order, for a dense matrix too."""
        m = csr_array(self.matrix)
        rows = np.repeat(np.arange(self.n), np.diff(m.indptr))
        cols, values = m.indices.astype(np.intp), m.data.copy()
        return _read_only(rows), _read_only(cols), _read_only(values)

    @cached_property
    def _laplacian(self) -> np.ndarray:
        m = self.matrix.toarray() if issparse(self.matrix) else self.matrix
        lap = m + m.T
        lap *= 0.5
        degree = lap.sum(axis=1)
        np.subtract(0.0, lap, out=lap)  # 0 - a_ij, as diag(degree) - A has it
        lap[np.diag_indices_from(lap)] += degree
        return _read_only(lap)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _canonical_csr(m) -> csr_array:
    """A float CSR copy of m whose stored entries are its nonzeros, with
    sorted indices."""
    m = csr_array(m, dtype=float, copy=True)
    m.sum_duplicates()
    m.eliminate_zeros()
    return m


def build_view_affinity(x_v: np.ndarray, k_neighbors: int) -> AffinityGraph:
    """Build a k-nearest-neighbor heat-kernel affinity graph for one view.

    Column j gets exactly `k_neighbors` nonzero entries: the k nearest
    samples to j by Euclidean distance (j itself excluded), weighted by
    exp(-d^2 / (2 * sigma_j^2)) with the local scale sigma_j equal to the
    distance to j's k-th neighbor, then normalized to sum 1. Columns whose
    k nearest neighbors are all at distance 0 fall back to uniform weights.

    Ties in distance go to the lower sample index: the neighbors are the
    first k samples of a stable sort of column j's squared distances.
    Selection costs O(n^2) after the O(n^2 d) distances: a partial
    selection picks each column's k nearest, and only columns with a tie
    at the k-th distance, where that pick is ambiguous, are fully sorted.
    The graph is returned as a CSR array of its n k entries.
    """
    x = np.asarray(x_v, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d feature matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("feature matrix has non-finite entries")
    n = x.shape[0]
    require_integers("k_neighbors", k_neighbors)
    if k_neighbors < 1:
        raise ConfigError(f"k_neighbors must be positive, got {k_neighbors}")
    if k_neighbors >= n:
        raise ConfigError(
            f"k_neighbors={k_neighbors} requires at least {k_neighbors + 1} samples, got {n}"
        )

    d2 = squared_distances(x, x)
    np.fill_diagonal(d2, np.inf)

    k = k_neighbors
    neighbors = np.argpartition(d2, k - 1, axis=0)[:k]
    ndist = np.take_along_axis(d2, neighbors, axis=0)
    # Row k-1 holds each column's k-th smallest distance. Where more than k
    # samples lie within it (a tie at the k-th distance) or it is not
    # finite, the pick may differ from the stable sort's; sort those columns.
    tied = np.flatnonzero((d2 <= ndist[-1]).sum(axis=0) != k)
    order = np.lexsort((neighbors, ndist), axis=0)  # by distance, then index
    neighbors = np.take_along_axis(neighbors, order, axis=0)
    if tied.size:
        neighbors[:, tied] = np.argsort(d2[:, tied], axis=0, kind="stable")[:k]
    cols = np.arange(n)[None, :]
    ndist = d2[neighbors, cols]
    scale = ndist[-1, :]  # squared distance to the k-th neighbor

    weights = np.ones_like(ndist)
    live = scale > 0
    weights[:, live] = np.exp(-ndist[:, live] / (2.0 * scale[live]))
    weights /= weights.sum(axis=0)

    cols = np.broadcast_to(cols, neighbors.shape)
    matrix = csr_array((weights.ravel(), (neighbors.ravel(), cols.ravel())), shape=(n, n))
    return AffinityGraph(matrix=matrix)


def laplacian_of(s: AffinityGraph) -> np.ndarray:
    """Laplacian D - A of the symmetrized weights A = (S + S^T)/2, with
    D = diag(row sums of A): exactly symmetric, PSD, zero row sums up to
    round-off. Formed once per graph and cached on it, read-only. A CSR
    graph is densified first, so its Laplacian is bitwise its dense form's."""
    return s._laplacian


def connected_components(s: AffinityGraph) -> int:
    """Number of connected components of the thresholded undirected graph.

    Samples i and j are adjacent iff (S_ij + S_ji)/2 > COMPONENT_EDGE_THRESHOLD;
    the count is found by graph traversal. Off the diagonal that weight is
    exactly -L_ij of the cached Laplacian, so the adjacency is read off it
    in CSR form without a dense conversion. L is exactly symmetric, so the
    strong components of that directed graph are the undirected ones, found
    without scipy's symmetrizing copy.
    """
    n = s.n
    edges = np.flatnonzero(laplacian_of(s) < -COMPONENT_EDGE_THRESHOLD)
    indptr = np.searchsorted(edges, np.arange(0, n * n + 1, n))
    adjacency = csr_matrix((np.ones(edges.size, dtype=np.int8), edges % n, indptr),
                           shape=(n, n))
    count, _ = csgraph.connected_components(adjacency, directed=True, connection="strong")
    return int(count)
