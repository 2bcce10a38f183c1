"""Dense numerical kernels: squared distances, symmetric eigensolves, SPD
solves, and exact Euclidean projection onto the probability simplex.

All functions are pure and operate on plain float ndarrays. Square inputs
are symmetrized on entry, which tolerates round-off asymmetry and is their one
finiteness check (``symmetrized``: NumericError on a NaN, inf or overflow).
"""

import numpy as np
from scipy import linalg

from .errors import NumericError

# Relative Tikhonov ridge applied once when a Cholesky factorization fails.
SPD_RIDGE_SCALE = 1e-10


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d[i, j] = ||a_i - b_j||^2 between the rows of a and b, clipped at 0."""
    sq_a = np.sum(a * a, axis=1)
    sq_b = sq_a if b is a else np.sum(b * b, axis=1)
    return np.maximum(sq_a[:, None] + sq_b[None, :] - 2.0 * (a @ b.T), 0.0)


def symmetrized(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part (a + a.T) / 2 of a square matrix.

    Raises ValueError if a is not square, NumericError if the result is not finite.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        sym = 0.5 * (a + a.T)
    if not np.isfinite(sym).all():
        raise NumericError("matrix has non-finite entries or overflows")
    return sym


def smallest_k_eigen(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs for the k smallest eigenvalues of a symmetric matrix.

    Parameters
    ----------
    m : (n, n) array, symmetrized internally.
    k : number of eigenpairs, 1 <= k <= n.

    Returns
    -------
    (eigenvalues, eigenvectors) with eigenvalues ascending and eigenvectors
    as orthonormal columns. Each column is sign-fixed so that its
    largest-magnitude entry is positive, which makes outputs deterministic
    up to degenerate eigenvalue ties.
    """
    m = symmetrized(m)
    n = m.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    # m is an exactly symmetric copy owned here: its transpose, the same
    # matrix in Fortran order, is factored in place.
    vals, vecs = linalg.eigh(m.T, subset_by_index=(0, k - 1), overwrite_a=True,
                             check_finite=False)
    pivot = np.abs(vecs).argmax(axis=0)
    signs = np.sign(vecs[pivot, np.arange(k)])
    signs[signs == 0] = 1.0
    return vals, vecs * signs


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ y = b for symmetric positive definite a via Cholesky.

    If the first factorization fails, a ridge delta * I with
    delta = SPD_RIDGE_SCALE * trace(a) / n is added once and the
    factorization retried. A second failure raises NumericError carrying
    the offending leading minor and the smallest eigenvalue.
    """
    a = symmetrized(a)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise ValueError(
            f"right-hand side has {b.shape[0]} rows, matrix is {a.shape[0]}x{a.shape[0]}"
        )
    if not np.isfinite(b).all():
        raise ValueError("right-hand side has non-finite entries")
    try:
        factor = linalg.cho_factor(a, lower=True, check_finite=False)
    except linalg.LinAlgError as first:
        n = a.shape[0]
        delta = SPD_RIDGE_SCALE * np.trace(a) / n
        ridged = a + delta * np.eye(n)
        try:
            factor = linalg.cho_factor(ridged, lower=True, check_finite=False)
        except linalg.LinAlgError as exc:
            smallest = linalg.eigvalsh(a, subset_by_index=(0, 0))[0]
            raise NumericError(
                f"matrix is not positive definite (ridge {delta:.3e} did not help): "
                f"{first}; smallest eigenvalue {smallest:.6e}"
            ) from exc
    return linalg.cho_solve(factor, b, check_finite=False)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection of a vector onto the probability simplex.

    Implements the sort-based finite algorithm: sort descending, find the
    largest support size whose running threshold keeps entries positive,
    then shift and clip. The output is the unique minimizer of
    ||x - v||^2 over {x : x >= 0, sum(x) = 1}.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a non-empty 1-d vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    counts = np.arange(1, v.size + 1)
    positive = np.nonzero(u - (css - 1.0) / counts > 0)[0]
    if positive.size == 0:
        raise ValueError("no entry lies above the simplex threshold in float64")
    support = positive[-1]
    theta = (css[support] - 1.0) / (support + 1.0)
    return np.maximum(v - theta, 0.0)


def project_simplex_columns(m: np.ndarray) -> np.ndarray:
    """Project every column of a matrix onto the probability simplex.

    A column u, sorted descending, maps to max(u - theta, 0) with theta the running
    maximum max_r (u_1 + ... + u_r - 1) / r (Duchi et al. 2008; Condat 2016).
    In exact arithmetic theta < u_1; a column whose largest entry does not
    exceed theta in float64 (|u| >= 2^53) would map off the simplex and
    raises ValueError.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] == 0:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    u = m.T.copy()  # one column per row, contiguous, sorted along the rows
    u.sort(axis=1)
    u = u[:, ::-1]
    theta = ((np.cumsum(u, axis=1) - 1.0) / np.arange(1.0, m.shape[0] + 1)).max(axis=1)
    empty = np.flatnonzero(u[:, 0] <= theta)
    if empty.size:
        raise ValueError(f"column {empty[0]} has no entry above the simplex threshold "
                         "in float64")
    out = m - theta
    return np.maximum(out, 0.0, out=out)
