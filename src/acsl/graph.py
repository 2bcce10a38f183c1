"""Affinity graph construction, Laplacians, and component diagnostics.

A similarity structure is an ``AffinityGraph``, stored column-stochastically:
column j holds the affinities of every sample to sample j and lies on the
probability simplex. A kNN view graph keeps only its support, as a CSC
array with k entries per column, from construction to the end of a fit,
and the fit reads it column by column; the learned structure is a dense
n x n array. Its Laplacian is a plain n x n array either way.

Nothing derived from a graph is cached: its support and its Laplacian are
formed where they are used, the Laplacian whole (``laplacian_of``) or one
block of rows at a time (``AffinityGraph.laplacian_rows``), so that no
n x n array outlives the step that reads it. The fit forms neither: it
reads L_S's diagonal off the degrees of the learned structure and its
other entries off the structure itself (``solver._degrees``).
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array, csgraph, csr_array, csr_matrix, issparse

from .errors import ConfigError, require_finite, require_integers, require_numeric
from .numerics import _pair_rows, _row_blocks, squared_distances

# Symmetrized edge weights above this count as edges when counting components.
COMPONENT_EDGE_THRESHOLD = 1e-8

COLUMN_SUM_TOL = 1e-9


@dataclass(frozen=True)
class AffinityGraph:
    """One n x n similarity structure with simplex-constrained columns.

    matrix[i, j] is the affinity of sample i to sample j, as a dense array
    (a learned structure) or a sparse one, kept as a CSC array in canonical
    form: sorted indices, no duplicates, no explicit zeros (a kNN view
    graph). Every column is nonnegative and sums to 1 (within
    COLUMN_SUM_TOL), checked by the same two expressions for either
    storage: the smallest entry >= 0 (False at a NaN), then the column
    sums (inf at an inf entry, or where the sum overflows). View graphs
    also have a zero diagonal; a learned structure may not.
    The support and the Laplacian are formed anew on each call.
    """

    matrix: np.ndarray | csc_array

    def __post_init__(self):
        m = self.matrix
        m = _canonical_csc(m) if issparse(m) else require_numeric("affinity matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError(f"affinity matrix must be square, got shape {m.shape}")
        if not m.min() >= 0:  # False at a NaN
            raise ConfigError("affinity matrix has negative or NaN entries")
        with np.errstate(over="ignore"):  # an overflowing sum is inf, rejected below
            sums = m.sum(axis=0)
        worst = np.abs(sums - 1.0).max()
        if not worst <= COLUMN_SUM_TOL:  # an inf entry makes its column sum inf
            raise ConfigError(f"columns must sum to 1, worst deviation {worst:.3e}")
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the nonzero entries, in column-major
        order, as new arrays: k per column for a kNN view graph. Read from
        the CSC storage, which holds exactly these, in this order; a dense
        matrix is converted to CSC first."""
        m = self.matrix if issparse(self.matrix) else csc_array(self.matrix)
        cols = np.repeat(np.arange(self.n), np.diff(m.indptr))
        return m.indices.astype(np.intp), cols, m.data.copy()

    def laplacian_rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi of the Laplacian (``laplacian_of``), as a new writable
        (hi - lo, n) array, formed from rows lo:hi and columns lo:hi of a
        dense matrix alone (a sparse one is first summed with its transpose,
        sparse). Each entry has the bits it has in the whole Laplacian: a
        row's degree sums that same contiguous row of A."""
        lap = self._pair_sums()(lo, hi)
        lap *= 0.5
        degree = lap.sum(axis=1)
        np.subtract(0.0, lap, out=lap)  # 0 - a_ij, as diag(degree) - A has it
        lap[np.arange(hi - lo), np.arange(lo, hi)] += degree
        return lap

    def _pair_sums(self):
        """A function of (lo, hi) that gives rows lo:hi of S + S^T as a new
        dense array, with the bits of ``S[lo:hi] + S[:, lo:hi].T``: the sum
        commutes, and adding an absent entry's 0 is exact. A sparse matrix
        is summed once, sparse, and only the rows asked for are densified;
        a dense one's rows come from ``numerics._pair_rows``."""
        m = self.matrix
        if issparse(m):
            pairs = csr_array(m + m.T)
            return lambda lo, hi: pairs[lo:hi].toarray()
        return lambda lo, hi: _pair_rows(m, lo, hi)


def _canonical_csc(m) -> csc_array:
    """A float CSC copy of m whose stored entries are its nonzeros, with
    sorted indices."""
    m = csc_array(m, dtype=float, copy=True)
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
    selection picks each sample's k nearest, and only samples with a tie
    at the k-th distance, where that pick is ambiguous, are fully sorted.
    It holds the n x n distances and temporaries of one block of rows. The
    graph is returned as a CSC array of its n k entries.
    """
    x = require_finite("feature matrix", x_v, 2)
    n = x.shape[0]
    require_integers("k_neighbors", k_neighbors, least=1)
    if k_neighbors >= n:
        raise ConfigError(
            f"k_neighbors={k_neighbors} requires at least {k_neighbors + 1} samples, got {n}"
        )

    d2 = squared_distances(x, x)
    np.fill_diagonal(d2, np.inf)

    # d2 is exactly symmetric (x x^T is formed by a symmetric rank-k update,
    # and ||x_i||^2 + ||x_j||^2 commutes), so column j's neighbors are picked
    # along row j, which is contiguous, one block of rows at a time.
    k = k_neighbors
    neighbors = np.empty((k, n), dtype=np.intp)
    for lo, hi in _row_blocks(n, n):
        block = d2[lo:hi]
        picked = np.argpartition(block, k - 1, axis=1)[:, :k]
        pdist = np.take_along_axis(block, picked, axis=1)
        # Column k-1 holds each row's k-th smallest distance. Where more than
        # k samples lie within it (a tie at the k-th distance) or it is not
        # finite, the pick may differ from the stable sort's; sort those rows.
        tied = np.flatnonzero((block <= pdist[:, -1:]).sum(axis=1) != k)
        order = np.lexsort((picked, pdist), axis=1)  # by distance, then index
        picked = np.take_along_axis(picked, order, axis=1)
        if tied.size:
            picked[tied] = np.argsort(block[tied], axis=1, kind="stable")[:, :k]
        neighbors[:, lo:hi] = picked.T
    cols = np.arange(n)[None, :]
    ndist = d2[neighbors, cols]
    scale = ndist[-1, :]  # squared distance to the k-th neighbor

    weights = np.ones_like(ndist)
    live = scale > 0
    weights[:, live] = np.exp(-ndist[:, live] / (2.0 * scale[live]))
    weights /= weights.sum(axis=0)

    cols = np.broadcast_to(cols, neighbors.shape)
    matrix = csc_array((weights.ravel(), (neighbors.ravel(), cols.ravel())), shape=(n, n))
    return AffinityGraph(matrix=matrix)


def laplacian_of(s: AffinityGraph) -> np.ndarray:
    """Laplacian D - A of the symmetrized weights A = (S + S^T)/2, with
    D = diag(row sums of A): exactly symmetric, PSD, zero row sums up to
    round-off. A new writable n x n array on each call, not cached: rows
    0..n of ``AffinityGraph.laplacian_rows``. A sparse graph gives bitwise its
    dense form's Laplacian."""
    return s.laplacian_rows(0, s.n)


def connected_components(s: AffinityGraph) -> int:
    """Number of connected components of the thresholded undirected graph.

    Samples i and j are adjacent iff (S_ij + S_ji)/2 > COMPONENT_EDGE_THRESHOLD;
    the count is found by graph traversal. The adjacency is read off S + S^T
    one block of rows at a time, with no Laplacian and no second n x n
    array: halving and doubling are exact, so S_ij + S_ji > 2 t is the
    same test.
    A self-loop (the diagonal) does not change the count. The adjacency is
    exactly symmetric, so the strong components of that directed graph are
    the undirected ones, found without scipy's symmetrizing copy.
    """
    n = s.n
    pair_sums = s._pair_sums()
    degrees, columns = [], []
    for lo, hi in _row_blocks(n, n):
        # flat indices in this block, row-major: row r's lie in [r n, (r + 1) n)
        flat = np.flatnonzero(pair_sums(lo, hi) > 2.0 * COMPONENT_EDGE_THRESHOLD)
        degrees.append(np.diff(np.searchsorted(flat, np.arange(0, (hi - lo + 1) * n, n))))
        columns.append((flat % n).astype(np.int32))
    # float64 data and int32 indices, the types csgraph works in, so that it
    # makes no converted copy; no index runs over the n^2 entries.
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.concatenate(degrees), out=indptr[1:])
    columns = np.concatenate(columns)
    adjacency = csr_matrix((np.ones(columns.size), columns, indptr), shape=(n, n))
    count, _ = csgraph.connected_components(adjacency, directed=True, connection="strong")
    return int(count)
