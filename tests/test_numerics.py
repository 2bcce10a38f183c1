import numpy as np
import pytest
from scipy import linalg
from scipy.optimize import minimize

from acsl import numerics
from acsl.errors import ConfigError, NumericError
from acsl.numerics import (
    BLOCK_ITEMS,
    _bottom_eigenpairs,
    _row_blocks,
    project_simplex,
    project_simplex_columns,
    smallest_k_eigen,
    solve_spd,
    squared_distances,
    symmetrized,
)

from helpers import check_array_rule, check_count_rule, random_orthonormal, random_spd


# ------------------------------------------------------------ squared distances

def test_squared_distances_match_the_row_differences():
    rng = np.random.default_rng(40)
    a = rng.normal(size=(7, 4))
    b = rng.normal(size=(5, 4))
    direct = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    assert np.allclose(squared_distances(a, b), direct, rtol=1e-12, atol=1e-12)
    own = squared_distances(a, a)
    assert np.array_equal(own, own.T)
    assert (own >= 0).all() and np.abs(np.diag(own)).max() <= 1e-12


def test_squared_distances_are_bitwise_the_whole_formula_over_row_blocks():
    rng = np.random.default_rng(41)
    a, b = rng.normal(size=(313, 6)), rng.normal(size=(200, 6))
    assert len(_row_blocks(313, 313)) == 3 and len(_row_blocks(313, 200)) == 2
    for left, right in ((a, a), (a, b)):
        sq_l, sq_r = np.sum(left * left, axis=1), np.sum(right * right, axis=1)
        whole = np.maximum(sq_l[:, None] + sq_r[None, :] - 2.0 * (left @ right.T), 0.0)
        got = squared_distances(left, right)
        assert got.tobytes() == whole.tobytes()
    own = squared_distances(a, a)
    assert np.array_equal(own, own.T)


# -------------------------------------------------------------------- blocks

@pytest.mark.parametrize("rows, row_items", [(1, 5), (150, 150), (313, 313), (900, 900),
                                             (1000, 40), (7, 10 ** 6)])
def test_row_blocks_cover_the_rows_within_the_item_budget(rows, row_items):
    bounds = _row_blocks(rows, row_items)
    assert bounds[0][0] == 0 and bounds[-1][1] == rows
    assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
    widths = [hi - lo for lo, hi in bounds]
    assert len(bounds) == 1 or min(widths) >= 2  # no lone row: it is merged
    size = max(BLOCK_ITEMS // row_items, 2)
    assert max(widths) <= size + 1
    if rows * row_items <= BLOCK_ITEMS:
        assert bounds == [(0, rows)]


# ---------------------------------------------------------------- eigensolve

def test_smallest_k_eigen_is_bitwise_eigh_and_leaves_its_input_unchanged():
    rng = np.random.default_rng(42)
    m = rng.normal(size=(25, 25))
    before = m.copy()
    vals, vecs = smallest_k_eigen(m, 4)
    assert np.array_equal(m, before)
    ref_vals, ref_vecs = linalg.eigh(0.5 * (m + m.T), subset_by_index=(0, 3),
                                     check_finite=False)
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(np.abs(vecs), np.abs(ref_vecs))


@pytest.mark.parametrize("layout", ["C", "F", "read-only", "integer"])
def test_smallest_k_eigen_leaves_every_input_unchanged(layout):
    # The public function works in its own copy: bitwise the eigenpairs of a
    # C-ordered float64 copy, whatever the input's layout, flags or dtype.
    rng = np.random.default_rng(43)
    m = rng.integers(-9, 10, size=(40, 40))
    expected = smallest_k_eigen(m.astype(float), 3)
    if layout != "integer":
        m = m.astype(float, order=layout if layout == "F" else "C")
    m.flags.writeable = layout != "read-only"
    before = m.copy()
    vals, vecs = smallest_k_eigen(m, 3)
    assert m.dtype == before.dtype and np.array_equal(m, before)
    assert vals.tobytes() == expected[0].tobytes() and vecs.tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("n", [25, 313, 400])
def test_smallest_k_eigen_overwrite_gives_bitwise_the_default_eigenpairs(n):
    # _bottom_eigenpairs, the in-place eigensolve update_f hands its operator
    # to, gives the public function's bits. 25 is one block; 313 and 400 are
    # several, 313 with a merged last row.
    rng = np.random.default_rng(n)
    m = rng.normal(size=(n, n))
    vals, vecs = smallest_k_eigen(m, 3)
    got_vals, got_vecs = _bottom_eigenpairs(m.copy(), 3)
    assert got_vals.tobytes() == vals.tobytes() and got_vecs.tobytes() == vecs.tobytes()
    fortran = np.asfortranarray(m)
    assert _bottom_eigenpairs(fortran, 3)[1].tobytes() == vecs.tobytes()


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1e308])
@pytest.mark.parametrize("where", [(0, 1), (311, 2), (150, 312)])
def test_smallest_k_eigen_overwrite_rejects_non_finite(entry, where):
    # The same NumericError in place as in a copy, in whichever block the
    # entry lies.
    m = np.eye(313)
    i, j = where
    m[i, j] = m[j, i] = entry
    for solve in (smallest_k_eigen, _bottom_eigenpairs):
        with pytest.raises(NumericError, match="overflows"):
            solve(m.copy(), 1)


def test_smallest_k_eigen_diagonal_single():
    vals, vecs = smallest_k_eigen(np.diag([3.0, 1.0, 2.0]), 1)
    assert vals.shape == (1,) and np.isclose(vals[0], 1.0)
    assert np.allclose(np.abs(vecs[:, 0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_smallest_k_eigen_diagonal_full_spectrum():
    vals, _ = smallest_k_eigen(np.diag([3.0, 1.0, 2.0]), 3)
    assert np.allclose(vals, [1.0, 2.0, 3.0])


def test_smallest_k_eigen_matches_full_spectrum_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = symmetrized(rng.normal(size=(8, 8)))
        vals, vecs = smallest_k_eigen(m, 3)
        full = np.linalg.eigvalsh(m)
        assert np.allclose(vals, full[:3], atol=1e-9)
        # eigenpair residual and orthonormality
        scale = np.linalg.norm(m)
        for j in range(3):
            res = np.linalg.norm(m @ vecs[:, j] - vals[j] * vecs[:, j])
            assert res <= 1e-8 * scale
        assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-10)
        assert np.all(np.diff(vals) >= -1e-12)


def test_smallest_k_eigen_sign_convention_is_deterministic():
    rng = np.random.default_rng(1)
    m = symmetrized(rng.normal(size=(6, 6)))
    _, v1 = smallest_k_eigen(m, 4)
    _, v2 = smallest_k_eigen(m.copy(), 4)
    assert np.array_equal(v1, v2)
    pivots = np.abs(v1).argmax(axis=0)
    assert np.all(v1[pivots, np.arange(4)] > 0)


def test_smallest_k_eigen_ky_fan_lower_bound():
    # The returned eigenvalue sum is the minimum of Tr(F' m F) over
    # orthonormal F; random samples can only do worse.
    rng = np.random.default_rng(2)
    m = symmetrized(rng.normal(size=(10, 10)))
    vals, _ = smallest_k_eigen(m, 3)
    bound = vals.sum()
    for _ in range(50):
        f = random_orthonormal(rng, 10, 3)
        assert np.trace(f.T @ m @ f) >= bound - 1e-8


@pytest.mark.parametrize("k", [0, 4])
def test_smallest_k_eigen_rejects_bad_k(k):
    with pytest.raises(ValueError):
        smallest_k_eigen(np.eye(3), k)


def test_smallest_k_eigen_count_follows_the_count_rule():
    vals, _ = check_count_rule(lambda v: smallest_k_eigen(np.diag([3.0, 1.0, 2.0]), v),
                               "k", 1, 2)
    assert vals.tolist() == [1.0, 2.0]
    with pytest.raises(ConfigError, match="k must be at most 3"):
        smallest_k_eigen(np.eye(3), 4)


def test_bottom_eigenpairs_leaves_the_check_on_k_to_its_caller(monkeypatch):
    # update_f calls it once per outer iteration with the k that Hyperparams
    # and the problem check have already checked.
    def no_check(*args, **kwargs):
        raise AssertionError("k checked again")

    monkeypatch.setattr(numerics, "require_integers", no_check)
    vals, _ = _bottom_eigenpairs(np.diag([3.0, 1.0, 2.0]), 2)
    assert vals.tolist() == [1.0, 2.0]


def test_smallest_k_eigen_rejects_non_finite():
    m = np.eye(3)
    m[0, 1] = np.nan
    with pytest.raises(ValueError):
        smallest_k_eigen(m, 1)


def test_symmetrized_rejects_non_square():
    with pytest.raises(ValueError):
        symmetrized(np.ones((2, 3)))


def test_symmetrized_is_bitwise_the_half_sum():
    rng = np.random.default_rng(44)
    for scale in (1e-300, 1.0, 1e300):
        a = rng.normal(size=(9, 9)) * scale
        assert np.array_equal(symmetrized(a), 0.5 * (a + a.T))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1e308])
def test_symmetrized_scans_its_result_once_for_overflow(entry):
    # A NaN or inf entry, or a finite one whose a + a.T overflows, is a
    # NumericError (also a ValueError), with no warning on the way (the
    # suite turns warnings into errors); so are the kernels built on it.
    m = np.eye(3)
    m[0, 1] = m[1, 0] = entry
    for call in (lambda: symmetrized(m), lambda: smallest_k_eigen(m, 1),
                 lambda: solve_spd(m, np.ones(3))):
        with pytest.raises(NumericError, match="overflows"):
            call()
    assert issubclass(NumericError, ValueError)


# ----------------------------------------------------------------- SPD solve

def test_solve_spd_identity():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(3, 2))
    assert np.allclose(solve_spd(np.eye(3), b), b, atol=1e-14)


def test_solve_spd_diagonal():
    y = solve_spd(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
    assert np.allclose(y, [[1.0], [2.0]], atol=1e-14)


def test_solve_spd_residual_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        a = random_spd(rng, n)
        b = rng.normal(size=(n, int(rng.integers(1, 4))))
        y = solve_spd(a, b)
        assert np.linalg.norm(a @ y - b) <= 1e-8 * np.linalg.norm(b)


def test_solve_spd_ridge_rescues_singular_psd():
    # Rank-1 PSD matrix fails plain Cholesky; the relative ridge makes it
    # solvable and the solution solves the ridged system.
    v = np.array([1.0, 2.0, 3.0])
    a = np.outer(v, v)
    y = solve_spd(a, v.reshape(-1, 1))
    delta = 1e-10 * np.trace(a) / 3
    assert np.allclose((a + delta * np.eye(3)) @ y, v.reshape(-1, 1), atol=1e-8)


def test_solve_spd_indefinite_raises_with_diagnostics():
    a = np.diag([1.0, -1.0])
    with pytest.raises(NumericError) as exc:
        solve_spd(a, np.ones(2))
    assert "smallest eigenvalue" in str(exc.value)


@pytest.mark.parametrize("layout", ["C", "F", "read-only"])
def test_solve_spd_is_bitwise_the_solve_on_a_copy_and_leaves_its_inputs(layout):
    # The factorization works in place in solve_spd's own symmetric copy:
    # the bits are those of factoring a separate copy, on the plain path
    # and on the ridge retry (a singular PSD matrix), and the inputs stay
    # as they were.
    rng = np.random.default_rng(41)
    v = rng.normal(size=(40, 1))
    for a in (random_spd(rng, 40), v @ v.T):
        a = a + 1e-17 * rng.normal(size=a.shape)  # round-off asymmetry
        b = rng.normal(size=(40, 3))
        sym = 0.5 * (a + a.T)
        try:
            factor = linalg.cho_factor(sym, lower=True)
        except linalg.LinAlgError:
            delta = 1e-10 * np.trace(sym) / 40
            factor = linalg.cho_factor(sym + delta * np.eye(40), lower=True)
        expected = linalg.cho_solve(factor, b)
        a = np.asfortranarray(a) if layout == "F" else a
        a.flags.writeable = layout != "read-only"
        b.flags.writeable = layout != "read-only"
        a_before, b_before = a.copy(), b.copy()
        assert solve_spd(a, b).tobytes() == expected.tobytes()
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


def test_solve_spd_shape_mismatch():
    with pytest.raises(ValueError):
        solve_spd(np.eye(3), np.ones((2, 1)))


# ---------------------------------------------------------- simplex projection

def _one_column(v):
    """project_simplex_columns, the kernel the solver calls, on one column."""
    return project_simplex_columns(np.asarray(v, dtype=float)[:, None])[:, 0]


# Every oracle below checks the 1-d reference and the solver's kernel on the
# same draws; the two find the threshold by different rules.
PROJECTIONS = (project_simplex, _one_column)


def test_project_simplex_fixed_point_on_simplex():
    for project in PROJECTIONS:
        assert np.allclose(project(np.array([0.5, 0.5])), [0.5, 0.5], atol=1e-15)
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            assert np.allclose(project(p), p, atol=1e-12)


def test_project_simplex_clips_to_vertex():
    for project in PROJECTIONS:
        assert np.allclose(project(np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-12)


def test_project_simplex_feasibility():
    for project in PROJECTIONS:
        rng = np.random.default_rng(6)
        for _ in range(200):
            v = rng.normal(scale=3.0, size=int(rng.integers(1, 12)))
            x = project(v)
            assert x.min() >= 0.0
            assert abs(x.sum() - 1.0) <= 1e-9


def test_project_simplex_matches_qp_oracle():
    # Generic constrained QP solver as an independent oracle.
    for project in PROJECTIONS:
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            v = rng.normal(scale=2.0, size=n)
            x = project(v)
            res = minimize(
                lambda z: np.sum((z - v) ** 2),
                np.full(n, 1.0 / n),
                jac=lambda z: 2.0 * (z - v),
                method="SLSQP",
                bounds=[(0.0, None)] * n,
                constraints=[{"type": "eq", "fun": lambda z: z.sum() - 1.0}],
                options={"ftol": 1e-12, "maxiter": 200},
            )
            assert res.success
            assert np.sum((x - v) ** 2) <= np.sum((res.x - v) ** 2) + 1e-9
            assert np.allclose(x, res.x, atol=1e-4)


def test_project_simplex_matches_threshold_grid_search():
    # 1-d grid over the shift threshold: candidates max(v - t, 0) with the
    # best feasible t must agree with the exact projection within the grid
    # resolution.
    for project in PROJECTIONS:
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = rng.normal(scale=1.5, size=5)
            x = project(v)
            grid = np.arange(v.min() - 0.2 - 1.0 / 5, v.max() + 1e-9, 1e-3)
            cands = np.maximum(v[None, :] - grid[:, None], 0.0)
            best = cands[np.abs(cands.sum(axis=1) - 1.0).argmin()]
            assert np.abs(x - best).max() <= 5e-3


def test_project_simplex_dominates_random_simplex_points():
    for project in PROJECTIONS:
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.normal(scale=2.0, size=7)
            x = project(v)
            dist = np.linalg.norm(x - v)
            for _ in range(100):
                g = rng.dirichlet(np.ones(7))
                assert dist <= np.linalg.norm(g - v) + 1e-6


def test_project_simplex_rejects_bad_input():
    for project in PROJECTIONS:
        with pytest.raises(ValueError):
            project(np.array([]))
        with pytest.raises(ValueError):
            project(np.array([1.0, np.inf]))


def test_projection_inputs_follow_the_array_rule():
    check_array_rule(project_simplex, "vector", 1)
    check_array_rule(project_simplex_columns, "matrix", 2)


def test_square_and_right_hand_side_defects_are_config_errors():
    with pytest.raises(ConfigError, match="expected a square matrix"):
        symmetrized(np.ones((2, 3)))
    with pytest.raises(ConfigError, match="right-hand side has 2 rows"):
        solve_spd(np.eye(3), np.ones((2, 1)))
    with pytest.raises(ConfigError, match="right-hand side has non-finite entries"):
        solve_spd(np.eye(2), np.array([1.0, np.nan]))


@pytest.mark.parametrize("name, call", [
    ("matrix", lambda: symmetrized([["x"]])),
    ("matrix", lambda: smallest_k_eigen([["1", "x"], ["0", "1"]], 1)),
    ("matrix", lambda: solve_spd([["x"]], [1.0])),
    ("right-hand side", lambda: solve_spd(np.eye(1), ["x"])),
], ids=["symmetrized", "smallest_k_eigen", "solve_spd-matrix", "solve_spd-rhs"])
def test_non_numeric_matrix_or_right_hand_side_is_a_config_error(name, call):
    with pytest.raises(ConfigError, match=f"^{name} must be numeric"):
        call()


def test_projections_below_the_float64_threshold_are_numeric_errors():
    with pytest.raises(NumericError, match="simplex threshold"):
        project_simplex(np.array([-1e20, -1e20]))
    with pytest.raises(NumericError, match="column 1 has no entry above"):
        project_simplex_columns(np.array([[0.3, -1e20, 1.0], [0.1, -1e20, 2.0]]))


def test_projections_raise_when_no_entry_lies_above_the_threshold():
    # At |v| >= 2^53, u_1 - (u_1 - 1) / 1 rounds to 0: in float64 no entry
    # stays positive, and the projection would miss the simplex.
    with pytest.raises(ValueError, match="simplex threshold"):
        project_simplex(np.array([-1e20, -1e20]))
    m = np.array([[0.3, -1e20, 1.0], [0.1, -1e20, 2.0]])
    with pytest.raises(ValueError, match="column 1 has no entry above"):
        project_simplex_columns(m)
    assert np.array_equal(project_simplex_columns(m[:, [0, 2]]),
                          [[0.6, 0.0], [0.4, 1.0]])


def _dirichlet_with_zeros(rng, shape):
    """Columns on the simplex, about half of their entries exactly zero."""
    keep = rng.random(shape) < 0.5
    keep[rng.integers(shape[0], size=shape[1]), np.arange(shape[1])] = True
    m = np.where(keep, rng.dirichlet(np.ones(shape[0]), size=shape[1]).T, 0.0)
    return m / m.sum(axis=0)


SIMPLEX_INPUTS = {
    "normal": lambda rng, shape: rng.normal(scale=2.0, size=shape),
    "dirichlet": lambda rng, shape: rng.dirichlet(np.ones(shape[0]), size=shape[1]).T,
    "dirichlet-zeros": _dirichlet_with_zeros,
    "integer-ties": lambda rng, shape: rng.integers(-2, 3, size=shape).astype(float),
    "signed-zeros": lambda rng, shape: rng.choice([-0.0, 0.0, 0.5, 1.0], size=shape),
    "tiny": lambda rng, shape: 1e-300 * rng.normal(size=shape),
    "huge": lambda rng, shape: 1e15 * rng.normal(size=shape),
    "constant": lambda rng, shape: np.tile(rng.normal(scale=2.0, size=shape[1]),
                                           (shape[0], 1)),
}


def test_project_simplex_columns_matches_vector_version():
    # Bit for bit, sign bits included: the kernel's running maximum picks the
    # same threshold as the reference's support search.
    rng = np.random.default_rng(10)
    for draw in SIMPLEX_INPUTS.values():
        for n in (1, 2, 7, 60):
            for _ in range(5):
                m = draw(rng, (n, 14))
                cols = project_simplex_columns(m)
                for j in range(m.shape[1]):
                    ref = project_simplex(m[:, j])
                    assert np.array_equal(cols[:, j], ref)
                    assert np.array_equal(np.signbit(cols[:, j]), np.signbit(ref))


def _sorted_reference(m):
    """The kernel as a sort down the columns of m."""
    u = np.sort(m, axis=0)[::-1]
    counts = np.arange(1, m.shape[0] + 1)[:, None]
    theta = ((np.cumsum(u, axis=0) - 1.0) / counts).max(axis=0)
    return np.maximum(m - theta, 0.0)


def test_in_place_projection_is_the_public_one_by_blocks_of_columns():
    # At 230 rows a block holds 142 columns: 300 columns take three blocks.
    rng = np.random.default_rng(12)
    shape = (230, 300)
    assert len(_row_blocks(shape[1], shape[0])) == 3
    for draw in SIMPLEX_INPUTS.values():
        m = draw(rng, shape)
        before = m.tobytes()
        cols = project_simplex_columns(m)
        assert m.tobytes() == before  # sign bits included
        ref = _sorted_reference(m)
        assert np.array_equal(cols, ref) and np.array_equal(np.signbit(cols), np.signbit(ref))
        a = m.copy()
        assert numerics._project_simplex_columns(a) is a
        assert a.tobytes() == cols.tobytes()
    # A column that misses the simplex is named by its index in the whole.
    m = SIMPLEX_INPUTS["normal"](rng, shape)
    m[:, [200, 250]] = -1e20
    with pytest.raises(NumericError, match="^column 200 has no entry above"):
        numerics._project_simplex_columns(m.copy())
    with pytest.raises(NumericError, match="^column 200 has no entry above"):
        project_simplex_columns(m)


def test_project_simplex_columns_is_bitwise_the_column_sort_and_pure():
    rng = np.random.default_rng(11)
    for draw in SIMPLEX_INPUTS.values():
        for shape in ((1, 6), (7, 1), (7, 14), (60, 14)):
            m = draw(rng, shape)
            before = m.copy()
            cols = project_simplex_columns(m)
            ref = _sorted_reference(m)
            assert np.array_equal(cols, ref)
            assert np.array_equal(np.signbit(cols), np.signbit(ref))
            assert np.array_equal(m, before) and np.array_equal(np.signbit(m), np.signbit(before))
