import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse import csc_array, csgraph, csr_array, csr_matrix, issparse

from acsl.errors import ConfigError
from acsl.graph import (
    COMPONENT_EDGE_THRESHOLD,
    AffinityGraph,
    build_view_affinity,
    connected_components,
    laplacian_of,
)
from acsl.numerics import smallest_k_eigen

from helpers import check_array_rule, check_count_rule, dense, random_affinity


def block_affinity(rng, sizes):
    """Affinity graph whose support is block diagonal over the given sizes."""
    n = sum(sizes)
    m = np.zeros((n, n))
    start = 0
    for size in sizes:
        stop = start + size
        block = rng.random((size, size)) + 0.1
        m[start:stop, start:stop] = block
        start = stop
    m /= m.sum(axis=0)
    return AffinityGraph(matrix=m)


# ------------------------------------------------------------- construction

def test_affinity_two_points_single_neighbor():
    g = build_view_affinity(np.array([[0.0], [1.0]]), 1)
    assert np.allclose(g.matrix.toarray(), [[0.0, 1.0], [1.0, 0.0]])


def test_affinity_equidistant_triangle():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    g = build_view_affinity(pts, 2)
    expected = np.full((3, 3), 0.5)
    np.fill_diagonal(expected, 0.0)
    assert np.allclose(g.matrix.toarray(), expected, atol=1e-12)


def test_affinity_blob_support_matches_bruteforce_knn():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30, 4))
    g = build_view_affinity(x, 10)
    for j in range(30):
        col = g.matrix[:, j]
        assert abs(col.sum() - 1.0) <= 1e-9
        nonzero = set(np.nonzero(col)[0].tolist())
        assert len(nonzero) == 10
        dists = [(np.linalg.norm(x[i] - x[j]), i) for i in range(30) if i != j]
        dists.sort()
        assert nonzero == {i for _, i in dists[:10]}
        assert col[j] == 0.0


def test_affinity_duplicate_points_fall_back_to_uniform():
    x = np.zeros((5, 3))
    m = build_view_affinity(x, 2).matrix.toarray()
    for j in range(5):
        nz = m[:, j][m[:, j] > 0]
        assert len(nz) == 2
        assert np.allclose(nz, 0.5)


def test_affinity_weights_decay_with_distance():
    x = np.array([[0.0], [1.0], [3.0], [10.0]])
    g = build_view_affinity(x, 2)
    # for column 0 the nearer neighbor (1) outweighs the farther one (2)
    assert g.matrix[1, 0] > g.matrix[2, 0] > 0


def test_affinity_permutation_consistency():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(18, 5))
    g = build_view_affinity(x, 6).matrix.toarray()
    perm = rng.permutation(18)
    gp = build_view_affinity(x[perm], 6).matrix.toarray()
    assert np.allclose(gp, g[np.ix_(perm, perm)], atol=1e-12)


def _stable_sort_affinity(x, k):
    """The kNN graph with neighbors taken from a full stable argsort of each
    column's squared distances: the reference for the tie rule."""
    n = x.shape[0]
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    np.fill_diagonal(d2, np.inf)
    neighbors = np.argsort(d2, axis=0, kind="stable")[:k]
    cols = np.arange(n)[None, :]
    ndist = d2[neighbors, cols]
    scale = ndist[-1]
    weights = np.ones_like(ndist)
    live = scale > 0
    weights[:, live] = np.exp(-ndist[:, live] / (2.0 * scale[live]))
    weights /= weights.sum(axis=0)
    matrix = np.zeros((n, n))
    matrix[neighbors, cols] = weights
    return matrix


@pytest.mark.parametrize("seed", range(60))
def test_affinity_is_bitwise_the_stable_sort_knn(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    d = int(rng.integers(1, 4))
    kind = seed % 3
    if kind == 0:
        x = rng.normal(size=(n, d))
    elif kind == 1:  # integer grid: many equal distances
        x = rng.integers(0, 3, size=(n, d)).astype(float)
    else:  # every point repeated: distance-0 ties and uniform columns
        x = np.repeat(rng.integers(0, 2, size=(n, d)).astype(float), 3, axis=0)
    n = x.shape[0]
    for k in sorted({1, n - 1, max(1, n // 2), min(n - 1, 10)}):
        got = build_view_affinity(x, k).matrix.toarray()
        assert got.tobytes() == _stable_sort_affinity(x, k).tobytes(), (n, k)


@pytest.mark.parametrize("kind", ["normal", "grid", "fortran"])
def test_affinity_is_bitwise_the_stable_sort_knn_over_several_row_blocks(kind):
    # Neighbors are picked along rows, 104 at a time at n = 313.
    rng = np.random.default_rng(25)
    x = rng.normal(size=(313, 4))
    if kind == "grid":  # many equal distances, so many tied rows
        x = np.round(x)
    elif kind == "fortran":
        x = np.asfortranarray(x)
    for k in (1, 10, 50):
        got = build_view_affinity(x, k).matrix.toarray()
        assert got.tobytes() == _stable_sort_affinity(x, k).tobytes(), k


def test_affinity_ties_go_to_the_lower_index():
    # Samples 1, 2 and 3 are all at distance 1 from sample 0.
    x = np.array([[0.0], [1.0], [-1.0], [1.0], [5.0]])
    assert np.flatnonzero(build_view_affinity(x, 2).matrix.toarray()[:, 0]).tolist() == [1, 2]


@pytest.mark.parametrize("k_neighbors", [2.5, 2.0, "2"])
def test_affinity_rejects_a_non_integer_neighbor_count(k_neighbors):
    with pytest.raises(ConfigError, match="k_neighbors must be an integer"):
        build_view_affinity(np.zeros((4, 2)), k_neighbors)


def test_affinity_neighbor_count_follows_the_count_rule():
    x = np.random.default_rng(3).normal(size=(5, 2))
    graph = check_count_rule(lambda v: build_view_affinity(x, v), "k_neighbors", 1, 2)
    assert graph.matrix.nnz == 10
    with pytest.raises(ConfigError, match="k_neighbors=5 requires at least 6 samples"):
        build_view_affinity(x, 5)


def test_affinity_feature_matrix_follows_the_array_rule():
    check_array_rule(lambda a: build_view_affinity(a, 2), "feature matrix", 2)


def test_affinity_graph_defects_are_config_errors():
    with pytest.raises(ConfigError, match="affinity matrix must be square"):
        AffinityGraph(np.ones((2, 3)))
    with pytest.raises(ConfigError, match="negative or NaN"):
        AffinityGraph(np.array([[1.5, 0.0], [-0.5, 1.0]]))
    with pytest.raises(ConfigError, match="columns must sum to 1"):
        AffinityGraph(np.ones((3, 3)))


def test_non_numeric_affinity_matrix_is_a_config_error():
    with pytest.raises(ConfigError, match="^affinity matrix must be numeric"):
        AffinityGraph(np.array([["x"]]))


def test_affinity_rejects_bad_neighbor_counts():
    x = np.zeros((4, 2))
    with pytest.raises(ConfigError):
        build_view_affinity(x, 4)
    with pytest.raises(ConfigError):
        build_view_affinity(x, 0)


def test_affinity_graph_validates_columns():
    with pytest.raises(ValueError):
        AffinityGraph(matrix=np.ones((3, 3)))  # columns sum to 3
    with pytest.raises(ValueError):
        AffinityGraph(matrix=np.array([[1.5, 0.0], [-0.5, 1.0]]))
    # Two passes catch non-finite entries: the smallest entry >= 0 is False
    # at a NaN or -inf, and an inf entry makes its column sum inf.
    for entry in (np.nan, np.inf, -np.inf):
        m = np.full((3, 3), 1.0 / 3.0)
        m[1, 2] = entry
        with pytest.raises(ValueError):
            AffinityGraph(matrix=m)


def test_affinity_graph_rejects_overflowing_column_sums_without_a_warning():
    # Finite entries whose column sums overflow to inf. Tier-1 turns
    # warnings into errors, so an overflow warning here would fail the test.
    m = np.full((3, 3), 1e308)
    for matrix in (m, csr_array(m)):
        with pytest.raises(ValueError, match="columns must sum to 1"):
            AffinityGraph(matrix=matrix)


def test_csr_affinity_graph_validates_its_stored_entries():
    good = np.full((3, 3), 1.0 / 3.0)
    with pytest.raises(ValueError, match="square"):
        AffinityGraph(matrix=csr_array(np.full((2, 3), 0.5)))
    with pytest.raises(ValueError, match="columns must sum to 1"):
        AffinityGraph(matrix=csr_array(np.ones((3, 3))))
    for entry in (np.nan, np.inf, -np.inf, -0.1):
        m = good.copy()
        m[1, 2] = entry
        with pytest.raises(ValueError):
            AffinityGraph(matrix=csr_array(m))


def _defect(name: str) -> np.ndarray:
    """A 6 x 6 column-stochastic matrix with zeros off a band, and one defect."""
    m = np.zeros((6, 6))
    for j in range(6):
        m[[j, (j + 1) % 6, (j + 3) % 6], j] = [0.5, 0.25, 0.25]
    if name == "negative":
        m[1, 2], m[2, 2] = -0.25, 1.0
    elif name == "overflow":
        m[[0, 1, 3], 0] = 1e308
    elif name == "sum off by 2e-9":
        m[1, 0] += 2e-9
    else:
        m[3, 2] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[name]
    return m


@pytest.mark.parametrize("name", ["negative", "nan", "+inf", "-inf", "overflow",
                                  "sum off by 2e-9"])
def test_dense_and_csr_graphs_reject_a_defect_with_the_same_message(name):
    m = _defect(name)
    messages = []
    for matrix in (m, csr_array(m)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError) as caught:
                AffinityGraph(matrix=matrix)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(("affinity matrix has negative", "columns must sum to 1"))


def test_view_graph_is_a_canonical_csr_array():
    x = np.random.default_rng(22).normal(size=(25, 3))
    g = build_view_affinity(x, 4)
    assert isinstance(g.matrix, csc_array)
    assert g.matrix.has_canonical_format
    assert g.matrix.nnz == 25 * 4
    assert (g.matrix.data > 0).all()


def test_a_sparse_input_is_stored_as_a_canonical_csc_array():
    m = build_view_affinity(np.random.default_rng(25).normal(size=(12, 3)), 3).matrix
    g = AffinityGraph(csr_array(m))
    assert isinstance(g.matrix, csc_array)
    assert g.matrix.has_canonical_format
    assert g.matrix.toarray().tobytes() == m.toarray().tobytes()


def test_csr_graph_reads_like_its_dense_form():
    # A CSR input with unsorted indices, split duplicate entries and explicit
    # zeros has the support, Laplacian and component count of its dense form.
    rng = np.random.default_rng(23)
    m = block_affinity(rng, [3, 4, 2]).matrix.copy()
    m[0, 1] = 0.0  # a zero inside a block
    m[:, 1] /= m[:, 1].sum()
    dense_graph = AffinityGraph(matrix=m)
    n = m.shape[0]
    indices = [rng.permutation(np.tile(np.arange(n), 2)) for _ in range(n)]
    halves = [m[i, cols] / 2.0 for i, cols in enumerate(indices)]  # exact halves
    raw = csr_array((np.concatenate(halves), np.concatenate(indices),
                     np.arange(0, 2 * n * n + 1, 2 * n)), shape=(n, n))
    assert not raw.has_canonical_format
    g = AffinityGraph(matrix=raw)
    assert not raw.has_canonical_format  # canonicalized on a copy
    assert all(a.tobytes() == b.tobytes() for a, b in zip(g.support, dense_graph.support))
    assert laplacian_of(g).tobytes() == laplacian_of(dense_graph).tobytes()
    assert connected_components(g) == connected_components(dense_graph) == 3


# ------------------------------------------------------------------ Laplacian

def test_laplacian_two_node_chain():
    g = AffinityGraph(matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
    lap = laplacian_of(g)
    assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(np.diag(lap), [1.0, 1.0])  # the degrees: g has a zero diagonal


def test_laplacian_identity_graph_is_zero():
    g = AffinityGraph(matrix=np.eye(4))
    assert np.allclose(laplacian_of(g), 0.0)


def test_laplacian_row_sums_and_psd():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_affinity(rng, int(rng.integers(3, 20)))
        lap = laplacian_of(g)
        assert np.abs(lap.sum(axis=1)).max() <= 1e-9
        vals, _ = smallest_k_eigen(lap, 1)
        assert vals[0] >= -1e-8
        # constant vector in the null space
        assert np.abs(lap @ np.ones(g.n)).max() <= 1e-9


def test_laplacian_quadratic_form_identity_oracle():
    rng = np.random.default_rng(14)
    g = random_affinity(rng, 12)
    lap = laplacian_of(g)
    a = 0.5 * (g.matrix + g.matrix.T)
    for _ in range(5):
        x = rng.normal(size=12)
        direct = 0.5 * sum(
            a[i, j] * (x[i] - x[j]) ** 2 for i in range(12) for j in range(12)
        )
        assert abs(x @ lap @ x - direct) <= 1e-9 * max(1.0, abs(direct))


def _test_graphs(rng):
    """Dense, zero-diagonal and kNN graphs, all with asymmetric weights."""
    x = rng.normal(size=(40, 5))
    return [random_affinity(rng, 9), random_affinity(rng, 30, zero_diag=True),
            build_view_affinity(x, 6), block_affinity(rng, [4, 1, 6])]


def test_laplacian_is_bitwise_the_dense_formula():
    rng = np.random.default_rng(18)
    for g in _test_graphs(rng):
        a = 0.5 * (dense(g) + dense(g).T)
        expected = np.diag(a.sum(axis=1)) - a
        lap = laplacian_of(g)
        assert np.array_equal(lap, expected)
        assert np.array_equal(np.signbit(lap), np.signbit(expected))


def _assert_laplacian_is_formed_anew(g):
    # Not cached: two calls are bitwise equal and distinct, and writing into
    # one changes neither the graph nor the next call.
    first, second = laplacian_of(g), laplacian_of(g)
    assert first is not second and first.tobytes() == second.tobytes()
    matrix = dense(g).copy()
    first[:] = 7.0
    assert np.array_equal(dense(g), matrix)
    assert laplacian_of(g).tobytes() == second.tobytes()


def test_laplacian_row_blocks_stitch_to_bitwise_the_whole_laplacian():
    rng = np.random.default_rng(24)
    x = rng.normal(size=(313, 5))
    for g in (*_test_graphs(rng), random_affinity(rng, 313), build_view_affinity(x, 10)):
        lap = laplacian_of(g)
        n = g.n
        assert not np.array_equal(dense(g), dense(g).T)  # asymmetric S
        cuts = np.unique(np.concatenate([[0, n], rng.integers(0, n + 1, size=4)]))
        for bounds in (list(zip(cuts[:-1], cuts[1:])), [(i, i + 1) for i in range(n)]):
            rows = np.vstack([g.laplacian_rows(lo, hi) for lo, hi in bounds])
            assert rows.tobytes() == lap.tobytes()
        if issparse(g.matrix):
            dense_lap = laplacian_of(AffinityGraph(g.matrix.toarray()))
            assert dense_lap.tobytes() == lap.tobytes()


def _assert_support_is_formed_anew(g):
    # New arrays on each call: writing into them changes neither the graph
    # nor the next call.
    first, matrix = g.support, dense(g).copy()
    assert all(a is not b for a, b in zip(first, g.support))
    for a in first:
        a[:] = 0
    assert np.array_equal(dense(g), matrix)
    cols, rows = np.nonzero(matrix.T)  # column-major, rows ascending in each column
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(g.support, (rows, cols, matrix[rows, cols])))


def test_derived_arrays_are_formed_anew():
    g = build_view_affinity(np.random.default_rng(19).normal(size=(20, 4)), 5)
    _assert_laplacian_is_formed_anew(g)
    _assert_support_is_formed_anew(g)
    _assert_support_is_formed_anew(random_affinity(np.random.default_rng(26), 9))
    rows, cols, values = g.support
    assert np.array_equal(np.bincount(cols, minlength=g.n), np.full(g.n, 5))
    scattered = np.zeros((g.n, g.n))
    scattered[rows, cols] = values
    assert np.array_equal(scattered, g.matrix.toarray())


def test_pickled_view_graph_round_trips():
    g = build_view_affinity(np.random.default_rng(20).normal(size=(20, 4)), 5)
    lap, support = laplacian_of(g), g.support
    h = pickle.loads(pickle.dumps(g))
    assert np.array_equal(h.matrix.toarray(), g.matrix.toarray())
    assert np.array_equal(laplacian_of(h), lap)
    assert all(np.array_equal(a, b) for a, b in zip(h.support, support))
    _assert_laplacian_is_formed_anew(h)
    _assert_support_is_formed_anew(h)


# ----------------------------------------------------------------- components

def test_components_block_diagonal():
    rng = np.random.default_rng(15)
    assert connected_components(block_affinity(rng, [4, 5])) == 2
    assert connected_components(block_affinity(rng, [3, 3, 3, 4])) == 4


def test_components_complete_graph():
    rng = np.random.default_rng(16)
    assert connected_components(random_affinity(rng, 9)) == 1


def test_components_threshold_removes_weak_edges():
    m = np.eye(3)
    m[0, 1] = m[1, 0] = 1e-10
    m /= m.sum(axis=0)
    g = AffinityGraph(matrix=m)
    assert connected_components(g) == 3  # the 1e-8 edge threshold drops the edge


def test_components_match_spectral_multiplicity_oracle():
    # Traversal count equals the number of near-zero Laplacian eigenvalues.
    rng = np.random.default_rng(17)
    for _ in range(15):
        n_blocks = int(rng.integers(1, 5))
        sizes = [int(rng.integers(2, 6)) for _ in range(n_blocks)]
        g = block_affinity(rng, sizes)
        lap = laplacian_of(g)
        vals, _ = smallest_k_eigen(lap, g.n)
        spectral = int(np.sum(vals < 1e-7))
        assert connected_components(g) == spectral == n_blocks


def _dense_component_count(g):
    adjacency = 0.5 * (dense(g) + dense(g).T) > COMPONENT_EDGE_THRESHOLD
    return csgraph.connected_components(csr_matrix(adjacency), directed=False)[0]


def test_components_match_the_dense_threshold_reference():
    rng = np.random.default_rng(21)
    for g in _test_graphs(rng):
        assert connected_components(g) == _dense_component_count(g)
    # Asymmetric cross-block links whose pair mean straddles the threshold.
    thr = COMPONENT_EDGE_THRESHOLD
    counts = set()
    for _ in range(20):
        m = block_affinity(rng, [3, 4, 2, 5]).matrix.copy()
        n = m.shape[0]
        for _ in range(6):
            i, j = rng.choice(n, size=2, replace=False)
            m[i, j] = thr * rng.choice([2.0, 2.0 * (1 + 1e-6), 2.0 * (1 - 1e-6)])
            m[j, i] = thr * rng.choice([0.0, 1e-6]) if rng.random() < 0.5 else m[j, i]
        for j in range(n):  # restore the column sums on each column's largest entry
            m[np.argmax(m[:, j]), j] -= m[:, j].sum() - 1.0
        g = AffinityGraph(matrix=m)
        counts.add(connected_components(g))
        assert connected_components(g) == _dense_component_count(g)
        assert connected_components(AffinityGraph(csr_array(m))) == _dense_component_count(g)
    assert len(counts) > 1


def test_view_graph_laplacian_and_components_hold_at_most_one_dense_array():
    # A CSR graph is summed once, sparse: the Laplacian is its one dense
    # n x n array, and the component count densifies one block of rows at a time.
    g = build_view_affinity(np.random.default_rng(25).normal(size=(600, 5)), 10)
    unit = 8 * g.n ** 2
    peaks = []
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        for call in (laplacian_of, connected_components):
            call(g)  # first-call costs, unmeasured
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call(g)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peaks[0] <= 1.2 * unit
    assert peaks[1] <= 0.3 * unit


def test_component_count_on_a_dense_structure_holds_int32_edges():
    # Each edge of a dense S costs an int32 column index and the 8-byte
    # weight csgraph reads, with no index over all n^2 entries: three dense
    # blocks (a third of the pairs are edges) take about half an n x n
    # array, and a fully dense S about 1.5 of them.
    rng = np.random.default_rng(26)
    for g, bound in ((block_affinity(rng, [200] * 3), 0.55),
                     (random_affinity(rng, 600), 1.55)):
        unit = 8 * g.n ** 2
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            connected_components(g)  # first-call costs, unmeasured
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            count = connected_components(g)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert count == _dense_component_count(g)
        assert peak <= bound * unit
