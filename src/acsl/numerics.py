"""Dense numerical kernels: squared distances, symmetric eigensolves, SPD
solves, and exact Euclidean projection onto the probability simplex.

All public functions operate on plain float ndarrays and leave their
inputs unchanged. Square inputs are symmetrized on entry, which tolerates
round-off asymmetry and is their one finiteness check (``symmetrized``:
NumericError on a NaN, inf or overflow).

Passes over an n x n array run one block of rows (or of columns) at a
time (``_row_blocks``), so their temporaries hold about BLOCK_ITEMS
doubles (256 KB) rather than another n x n array. A matrix that small is
one block. The solver hands some arrays it gives up to private in-place
twins of the public kernels (``_bottom_eigenpairs``, ``_solve_spd``,
``_project_simplex_columns``), which write their results there. The
in-place symmetrization on entry to ``_bottom_eigenpairs`` is the one
pass that pairs the solver's embedding operator with its transpose: the
solver hands it a matrix whose symmetric part is the operator.

``_ritz_bottom_eigenvectors`` is the fit loop's eigensolve once an F_0
exists: a float32 eigensolve of the scaled operator proposes k +
RITZ_EXTRA_PAIRS vectors V, and a float64 Rayleigh-Ritz step over
[F_0, V] returns the bottom k. It never does worse on Tr(F^T M F) than
F_0, whatever the float32 accuracy, and it falls back to the exact
``_bottom_eigenpairs`` when its residual exceeds RITZ_RESIDUAL_TOL.
"""

import math

import numpy as np
from scipy import linalg

from .errors import ConfigError, NumericError, require_finite, require_integers, require_numeric

# Relative Tikhonov ridge applied once when a Cholesky factorization fails.
SPD_RIDGE_SCALE = 1e-10

# Doubles in one block's temporaries (256 KB).
BLOCK_ITEMS = 32768

# Eigenpairs that the float32 solve of ``_ritz_bottom_eigenvectors`` takes
# beyond the k wanted. Bench operators gave the same Ritz accuracy from 2 to
# 40; each extra pair costs the float32 solve and the Ritz products a little.
RITZ_EXTRA_PAIRS = 2

# Largest accepted residual max_j ||M f_j - theta_j f_j|| of the Ritz pairs,
# relative to max|M| sqrt(n). The bench's operators leave about 1e-8 (the
# float32 solve's round-off, refined by the float64 step); a subspace that
# misses a bottom eigenvector leaves a residual of the order of the eigengap.
RITZ_RESIDUAL_TOL = 1e-6


def _row_blocks(rows: int, row_items: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of consecutive blocks of rows, each of about
    BLOCK_ITEMS items at row_items per row, covering 0..rows.

    No block is one row wide unless the whole is: numpy may sum a lone row
    or column in a different order than it sums it inside a wider block.
    So a block holds at least two rows, and a last block of one row is
    merged into the block before it.
    """
    size = max(BLOCK_ITEMS // max(row_items, 1), 2)
    bounds = [(lo, min(lo + size, rows)) for lo in range(0, rows, size)]
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] == 1:
        bounds[-2:] = [(bounds[-2][0], rows)]
    return bounds


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d[i, j] = ||a_i - b_j||^2 between the rows of a and b, clipped at 0.

    Formed in the one array that holds the cross product a b^T: each block
    of its rows becomes (||a_i||^2 + ||b_j||^2) - 2 a_i . b_j in place.
    """
    sq_a = np.sum(a * a, axis=1)
    sq_b = sq_a if b is a else np.sum(b * b, axis=1)
    d = a @ b.T
    d *= 2.0
    for lo, hi in _row_blocks(*d.shape):
        np.subtract(sq_a[lo:hi, None] + sq_b[None, :], d[lo:hi], out=d[lo:hi])
    return np.maximum(d, 0.0, out=d)


def _square(a) -> np.ndarray:
    a = require_numeric("matrix", a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {a.shape}")
    return a


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise NumericError("matrix has non-finite entries or overflows")


def symmetrized(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part (a + a.T) / 2 of a square matrix.

    Raises ConfigError if a is not square, NumericError if the result is not finite.
    """
    a = _square(a)
    return _symmetrize(a, np.empty_like(a))


def _pair_rows(a: np.ndarray, lo: int, hi: int, start: int = 0) -> np.ndarray:
    """Rows lo:hi of a + a.T from column start on, as a new array: the
    transposed columns copied first, the rows added into that copy. The sum
    commutes, so every entry has the bits of ``(a + a.T)[lo:hi, start:]``."""
    out = a[start:, lo:hi].T.copy()
    out += a[lo:hi, start:]
    return out


def _symmetrize(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out <- (a + a.T) / 2, one block of rows and its mirror block of
    columns at a time (``_pair_rows``), so every entry has the bits of
    ``0.5 * (a + a.T)``; returns out, which may be a itself. A block reads
    only entries that no earlier block has written. Raises NumericError
    if an entry is not finite, leaving out partly written."""
    n = a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _row_blocks(n, n):
            part = _pair_rows(a, lo, hi, start=lo)
            part *= 0.5
            _check_finite(part)
            out[lo:hi, lo:] = part
            out[hi:, lo:hi] = part[:, hi - lo:].T
    return out


def smallest_k_eigen(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs for the k smallest eigenvalues of a symmetric matrix.

    Parameters
    ----------
    m : (n, n) array, left unchanged; its symmetric part is solved, in a
        copy (``_bottom_eigenpairs``).
    k : number of eigenpairs, 1 <= k <= n.

    Returns
    -------
    (eigenvalues, eigenvectors) with eigenvalues ascending and eigenvectors
    as orthonormal columns. Each column is sign-fixed so that its
    largest-magnitude entry is positive, which makes outputs deterministic
    up to degenerate eigenvalue ties.
    """
    m = _square(m).copy()
    require_integers("k", k, least=1)
    if k > len(m):
        raise ConfigError(f"k must be at most {len(m)}, the matrix order, got {k}")
    return _bottom_eigenpairs(m, k)


def _bottom_eigenpairs(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``smallest_k_eigen`` in m itself, a square float64 array the caller
    owns and gives up: m is symmetrized in place, with the same check and
    the same bits as a copy would get, then destroyed by the eigensolve, so
    the call holds no second n x n array. The caller has checked k."""
    m = _symmetrize(m, m)
    # m is exactly symmetric: its transpose, the same matrix in Fortran
    # order, is factored in place.
    vals, vecs = linalg.eigh(m.T, subset_by_index=(0, k - 1), overwrite_a=True,
                             check_finite=False)
    return vals, _sign_fixed(vecs)


def _sign_fixed(vecs: np.ndarray) -> np.ndarray:
    """vecs with each column's sign flipped so that its largest-magnitude
    entry is positive (``smallest_k_eigen``)."""
    pivot = np.abs(vecs).argmax(axis=0)
    signs = np.sign(vecs[pivot, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def _ritz_bottom_eigenvectors(m: np.ndarray, f0: np.ndarray, k: int) -> tuple[np.ndarray, bool]:
    """(F, fell back): k orthonormal vectors for the bottom of m's symmetric
    part M, no worse than f0's k columns, formed in m itself, a square
    float64 array the caller gives up. m's largest entry must lie on its
    diagonal, as in any positive semidefinite matrix, such as the solver's
    embedding operator.

    m is symmetrized in place and checked as in ``_bottom_eigenpairs``,
    then scaled by the power of two 2^-e that brings its largest diagonal
    entry into [0.5, 1): exact, and it keeps every entry finite in float32.
    A float32 copy gives the bottom k + RITZ_EXTRA_PAIRS eigenvectors V
    (``_float32_bottom_eigenvectors``), at about half the cost of the
    float64 solve. Then, in float64, a Householder QR gives an orthonormal
    basis B of the block [f0, V], and the bottom k eigenvectors Y of
    B^T M B give the Ritz vectors F = B Y with their values theta. span(B) holds f0's
    columns, so Tr(F^T M F) <= Tr(f0^T M f0) for orthonormal f0 (Ky Fan in
    span(B)), whatever the accuracy of V. The residual M F - F theta =
    (M B) Y - F theta comes from the product M B the step already formed.
    If a column's residual exceeds RITZ_RESIDUAL_TOL max|M| sqrt(n), F is
    the exact ``_bottom_eigenpairs`` of the scaled m instead. Either way F
    gets the sign rule of ``smallest_k_eigen``. The caller has checked k.
    """
    n = len(m)
    m = _symmetrize(m, m)
    m *= 2.0 ** -math.frexp(float(np.abs(m.diagonal()).max()))[1]
    v = _float32_bottom_eigenvectors(m, min(k + RITZ_EXTRA_PAIRS, n))
    basis = linalg.qr(np.hstack([f0, v]), mode="economic", overwrite_a=True,
                      check_finite=False)[0]
    product = m @ basis
    small = basis.T @ product
    theta, y = np.linalg.eigh(0.5 * (small + small.T))
    theta, y = theta[:k], y[:, :k]
    f = basis @ y
    residual = np.linalg.norm(product @ y - f * theta, axis=0).max()
    if residual <= RITZ_RESIDUAL_TOL * float(np.abs(m.diagonal()).max()) * math.sqrt(n):
        return _sign_fixed(f), False
    return _bottom_eigenpairs(m, k)[1], True


def _float32_bottom_eigenvectors(m: np.ndarray, count: int) -> np.ndarray:
    """The bottom count eigenvectors of m, an exactly symmetric float64
    array whose entries fit float32, solved in a float32 copy that is cast
    one block of rows at a time and freed on return."""
    n = len(m)
    low = np.empty((n, n), dtype=np.float32)
    for lo, hi in _row_blocks(n, n):
        low[lo:hi] = m[lo:hi]
    # low is exactly symmetric, as m is: its transpose is solved in place.
    return linalg.eigh(low.T, subset_by_index=(0, count - 1), overwrite_a=True,
                       check_finite=False)[1]


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ y = b for symmetric positive definite a via Cholesky.

    a and b are left unchanged: the solution is formed in a Fortran-ordered
    copy of b (``_solve_spd``).
    """
    n = len(_square(a))
    b = require_numeric("right-hand side", b)
    if b.shape[0] != n:
        raise ConfigError(f"right-hand side has {b.shape[0]} rows, matrix is {n}x{n}")
    if not np.isfinite(b).all():
        raise ConfigError("right-hand side has non-finite entries")
    return _solve_spd(a, np.array(b, order="F"))


def _solve_spd(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``solve_spd`` into b itself, a finite Fortran-ordered float64 array
    with len(a) rows that the caller gives up: the solution overwrites it
    and is returned, with the bits a copy of b would get. Without b, the
    identity, formed in Fortran order once a is factored: a^{-1}.

    a is left unchanged. The factorization overwrites the exactly symmetric
    copy that ``symmetrized`` makes, through its transpose (the same matrix
    in Fortran order, as in ``_bottom_eigenpairs``), so no third n x n array
    is formed. If it fails, the copy is made again, a ridge delta * I with
    delta = SPD_RIDGE_SCALE * trace(a) / n is added once and the
    factorization retried. A second failure raises NumericError carrying
    the offending leading minor and the smallest eigenvalue.
    """
    sym = symmetrized(a)
    n = len(sym)
    try:
        factor = linalg.cho_factor(sym.T, lower=True, overwrite_a=True, check_finite=False)
    except linalg.LinAlgError as first:
        sym = symmetrized(a)
        delta = SPD_RIDGE_SCALE * np.trace(sym) / n
        ridged = sym + delta * np.eye(n)
        try:
            factor = linalg.cho_factor(ridged, lower=True, check_finite=False)
        except linalg.LinAlgError as exc:
            smallest = linalg.eigvalsh(sym, subset_by_index=(0, 0))[0]
            raise NumericError(
                f"matrix is not positive definite (ridge {delta:.3e} did not help): "
                f"{first}; smallest eigenvalue {smallest:.6e}"
            ) from exc
    if b is None:
        b = np.eye(n, order="F")
    return linalg.cho_solve(factor, b, overwrite_b=True, check_finite=False)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of a vector onto the probability simplex.

    Implements the sort-based finite algorithm: sort descending, find the
    largest support size whose running threshold keeps entries positive,
    then shift and clip. The output is the unique minimizer of
    ||x - v||^2 over {x : x >= 0, sum(x) = 1}.
    """
    v = require_finite("vector", v, 1)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    counts = np.arange(1, v.size + 1)
    positive = np.nonzero(u - (css - 1.0) / counts > 0)[0]
    if positive.size == 0:
        raise NumericError("no entry lies above the simplex threshold in float64")
    support = positive[-1]
    theta = (css[support] - 1.0) / (support + 1.0)
    return np.maximum(v - theta, 0.0)


def project_simplex_columns(m: np.ndarray) -> np.ndarray:
    """Project every column of a matrix onto the probability simplex.

    A column u, sorted descending, maps to max(u - theta, 0) with theta the running
    maximum max_r (u_1 + ... + u_r - 1) / r (Duchi et al. 2008; Condat 2016).
    In exact arithmetic theta < u_1; a column whose largest entry does not
    exceed theta in float64 (|u| >= 2^53) would map off the simplex and
    raises NumericError. m is left unchanged: the projection is formed in a
    copy (``_project_simplex_columns``).
    """
    return _project_simplex_columns(require_finite("matrix", m, 2).copy())


def _project_simplex_columns(m: np.ndarray) -> np.ndarray:
    """``project_simplex_columns`` in m itself, a finite C-ordered float64
    array the caller gives up, and returned. The columns are projected one
    block at a time, each block's temporaries about BLOCK_ITEMS doubles; a
    column's projection reads that column alone, so every entry has the
    bits of the whole. Raises NumericError leaving m partly written."""
    rows, cols = m.shape
    for lo, hi in _row_blocks(cols, rows):
        block = m[:, lo:hi]
        # One negated column per row, contiguous and sorted ascending: each
        # row is -u. Negation is exact, so the running sums and thresholds
        # below are exactly those of u with their signs flipped, all formed
        # in place.
        u = np.negative(block.T, order="C")
        u.sort(axis=1)
        largest = -u[:, 0]
        np.cumsum(u, axis=1, out=u)
        u += 1.0
        u /= np.arange(1.0, rows + 1)
        theta = -u.min(axis=1)
        del u
        empty = np.flatnonzero(largest <= theta)
        if empty.size:
            raise NumericError(f"column {lo + empty[0]} has no entry above the simplex "
                               "threshold in float64")
        block -= theta
        np.maximum(block, 0.0, out=block)
    return m
