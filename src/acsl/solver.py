"""Alternating-minimization engine for collaborative similarity learning.

Joint state: a row-sparse projection ``p`` mapping stacked features to a
relaxed cluster indicator ``f``, a learned similarity structure ``s`` fusing
the per-view graphs with per-column view weights ``w``, and the diagonal
reweighting ``gamma_diag`` that realizes the l2,1 penalty as an iteratively
reweighted quadratic. All updates work on the one objective that
``objective`` computes,

    J = ||S - fused(W)||^2 + alpha Tr(F^T L_S F)
        + beta (||X P - F||^2 + gamma sum_i ||p_i||),

through its epsilon-smoothed form J_eps, which replaces ||p_i|| by
sqrt(||p_i||^2 + epsilon). One outer iteration reweights once at the
current p and solves for p (``update_p``), then updates (f, p) jointly,
then s, then w. The reweighting with the (f, p) update is one
majorize-minimize (MM) step: it minimizes an upper bound of J_eps that
touches J_eps at the current point. The s and w updates are exact
minimizers of their blocks of J_eps. So with alpha fixed the outer loop
never increases J_eps (see ``fit``). The raw objective differs from J_eps
by beta * gamma * sum_i (sqrt(||p_i||^2 + epsilon) - ||p_i||), which lies
in [0, beta * gamma * d * sqrt(epsilon)]; so the recorded raw trace can
rise by at most that gap.

Every solve with Q = X^T X + gamma G, G = diag(gamma_diag), factors a
matrix of size min(n, d), by the input's shape alone (``_uses_dual_form``):
Q itself when d <= n, and otherwise the n x n dual matrix K = I + X D X^T
with D = (gamma G)^{-1}, a finite diagonal because gamma_diag > 0. By the
Woodbury identity

    Q^{-1} X^T = D X^T K^{-1},    I - X Q^{-1} X^T = K^{-1},

so both forms give the same P and the same embedding operator. A solve
costs O(min(n, d)^3 + n d min(n, d)): the factorization plus forming
X^T X or K.
"""

from collections.abc import Callable
from dataclasses import dataclass, field, replace
import math

import numpy as np
from scipy.linalg import blas
from scipy.sparse import csc_array, issparse

from .errors import ConfigError, NumericError, is_number, require_integers, require_numeric
from .graph import AffinityGraph, _dense_copy, connected_components
from .numerics import (
    _bottom_eigenpairs, _project_simplex_columns, _ritz_bottom_eigenvectors, _row_blocks,
    _solve_spd, _symmetrize, solve_spd, squared_distances,
)


@dataclass(frozen=True)
class Hyperparams:
    """Solver weights and loop controls.

    alpha weights the spectral (rank-surrogate) term, beta the regression
    fit, gamma the row-sparsity penalty; k is the target cluster count and
    epsilon the smoothing constant keeping the reweighting finite on zero
    rows. With adaptive_alpha on, the fit loop doubles alpha while the
    learned structure has fewer than k components and halves it while it
    has more. The l2,1 reweighting needs no knob: ``fit`` makes one MM
    step on P per outer iteration (``update_p``).
    """

    k: int
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    epsilon: float = 1e-8
    max_outer_iters: int = 100
    tol_rel_objective: float = 1e-6
    adaptive_alpha: bool = False

    def __post_init__(self):
        require_integers("k", self.k, least=2)
        require_integers("max_outer_iters", self.max_outer_iters, least=1)
        for name in ("alpha", "beta", "gamma", "epsilon", "tol_rel_objective"):
            value = getattr(self, name)
            if not (is_number(value) and value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if not isinstance(self.adaptive_alpha, (bool, np.bool_)):
            raise ConfigError(f"adaptive_alpha must be True or False, got {self.adaptive_alpha!r}")


@dataclass
class SolverState:
    """Mutable solver state plus per-iteration traces.

    Invariants maintained by the updates: f has orthonormal columns, every
    column of s lies on the probability simplex, every column of w sums
    to 1 (entries may be negative), and gamma_diag is strictly positive.
    alpha_trace records the alpha in effect at each recorded objective
    value (it only varies when adaptive alpha is enabled). f_fallbacks
    counts the F steps of the fit loop whose Ritz step missed its residual
    tolerance and took the exact eigensolve instead (``update_f``).
    """

    p: np.ndarray
    f: np.ndarray
    s: AffinityGraph
    w: np.ndarray
    gamma_diag: np.ndarray
    iteration: int = 0
    objective_trace: list[float] = field(default_factory=list)
    components_trace: list[int] = field(default_factory=list)
    alpha_trace: list[float] = field(default_factory=list)
    converged: bool = False
    f_fallbacks: int = 0


def _check_problem(views: list[AffinityGraph], x: np.ndarray, hp: Hyperparams) -> int:
    if not views:
        raise ConfigError("at least one view graph is required")
    n = views[0].n
    for i, g in enumerate(views):
        if g.n != n:
            raise ConfigError(f"view {i} has {g.n} samples, expected {n}")
    if x.ndim != 2 or x.shape[0] != n:
        raise ConfigError(
            f"stacked feature matrix has shape {x.shape}, expected ({n}, d)"
        )
    if not np.isfinite(x).all():
        raise ConfigError("stacked feature matrix has non-finite entries")
    if n < hp.k:
        raise ConfigError(f"cannot split {n} samples into {hp.k} clusters")
    return n


def _fused_columns(views: list[AffinityGraph], w: np.ndarray) -> np.ndarray:
    """Column j of the result is sum_v w[v, j] * views[v][:, j]."""
    n = views[0].n
    return _fused_slice([g.support for g in views], w, n, 0, n)


def _fused_slice(supports: list, w: np.ndarray, n: int, lo: int, hi: int) -> np.ndarray:
    """Columns lo:hi of the fusion, from the views' supports (rows, cols,
    values) in column-major order.

    Each view adds its products on its support only, in view order: O(V n k)
    for kNN views. Off the supports the dense sum adds only zeros to +0.
    So every entry has the bits it has in the whole fusion.
    """
    fused = np.zeros((n, hi - lo))
    for v, (rows, cols, values) in enumerate(supports):
        a, b = np.searchsorted(cols, (lo, hi))  # these columns' support, a slice
        fused[rows[a:b], cols[a:b] - lo] += values[a:b] * w[v, cols[a:b]]
    return fused


def _view_grams(s: np.ndarray, views: list[AffinityGraph]) -> np.ndarray:
    """The (n, V, V) Grams G_j[v, u] = (s_j - s_j^v) . (s_j - s_j^u).

    G_j reads column j alone, so the columns are taken b = BLOCK_ITEMS /
    (n V / 2) at a time: their V differences s - S^v form one (V, n, b)
    stack of about two BLOCK_ITEMS for any V (s broadcast into every layer,
    then each view subtracts its values on its support, read in place from
    its CSC storage: a dense view is converted once per call). G_j is
    symmetric, so each pair v <= u is contracted once, by
    ``einsum("ij,ij->j")``, and mirrored: the sums of the batched
    ``einsum("vij,uij->jvu")`` over the whole (V, n, n) stack, which is
    never formed, in the same order.
    """
    n, n_views = len(s), len(views)
    stored = [g.matrix if issparse(g.matrix) else csc_array(g.matrix) for g in views]
    grams = np.empty((n, n_views, n_views))
    for lo, hi in _row_blocks(n, n * n_views // 2):
        diffs = np.empty((n_views, n, hi - lo))
        diffs[:] = s[:, lo:hi]
        for diff, m in zip(diffs, stored):
            a, b = m.indptr[lo], m.indptr[hi]  # these columns' support, a slice
            cols = np.repeat(np.arange(hi - lo), np.diff(m.indptr[lo:hi + 1]))
            diff[m.indices[a:b], cols] -= m.data[a:b]
        for v in range(n_views):
            for u in range(v, n_views):
                grams[lo:hi, v, u] = grams[lo:hi, u, v] = np.einsum(
                    "ij,ij->j", diffs[v], diffs[u])
    return grams


def _regularized_gram(gram: np.ndarray, gamma: float, gamma_diag: np.ndarray) -> np.ndarray:
    """Q = X^T X + gamma * diag(gamma_diag), formed in the given X^T X, a
    new array the caller gives up, and returned."""
    gram[np.diag_indices_from(gram)] += gamma * gamma_diag
    return gram


def _uses_dual_form(x: np.ndarray) -> bool:
    """Whether solves with Q factor the n x n dual matrix K instead of the
    d x d Q: whichever is smaller."""
    return x.shape[1] > x.shape[0]


def _dual_solve(
    x: np.ndarray, gamma: float, gamma_diag: np.ndarray, b: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(K^{-1} b, sqrt(diag D)) with K = I + X D X^T, D = (gamma * diag(gamma_diag))^{-1}.

    K is built as Y Y^T + I with Y = X sqrt(D), a symmetric rank-d product.
    The n x d Y is dropped before K is factored; a caller that needs it
    forms it again, with the same bits, as ``x * root``. Without b, K^{-1}
    itself, solved in place into the identity (``numerics._solve_spd``).
    """
    scaled = gamma * gamma_diag
    if not np.isfinite(scaled).all():  # an inf would give K = I: finite but wrong
        raise NumericError("gamma G overflows at these alpha, beta and gamma")
    root = 1.0 / np.sqrt(scaled)
    y = x * root
    k = y @ y.T
    del y
    k[np.diag_indices_from(k)] += 1.0
    if b is None:
        return _solve_spd(k), root
    return solve_spd(k, b), root


def _reweighting_of(p: np.ndarray, epsilon: float) -> np.ndarray:
    """Diagonal weights 1 / (2 sqrt(||p_i||^2 + epsilon)) per feature row."""
    return 1.0 / (2.0 * np.sqrt(np.sum(p * p, axis=1) + epsilon))


@np.errstate(all="ignore")
def _solve_projection(
    x: np.ndarray, f: np.ndarray, gamma: float, gamma_diag: np.ndarray
) -> np.ndarray:
    """P = Q^{-1} X^T F with Q = X^T X + gamma * diag(gamma_diag): the
    minimizer over P of ||X P - F||^2 + gamma * Tr(P^T G P).

    Factors min(n, d) (module docstring): Q when d <= n; otherwise K, with
    P = D X^T K^{-1} F = sqrt(D) Y^T K^{-1} F.
    """
    if _uses_dual_form(x):
        right, root = _dual_solve(x, gamma, gamma_diag, f)
        return root[:, None] * ((x * root).T @ right)
    return solve_spd(_regularized_gram(x.T @ x, gamma, gamma_diag), x.T @ f)


def update_p(
    state: SolverState, x: np.ndarray, hp: Hyperparams
) -> tuple[np.ndarray, np.ndarray]:
    """One majorize-minimize (MM) step of the row-sparse regression of the
    indicator on the stacked features: reweight at the current P, then
    solve the reweighted quadratic exactly.

    The step decreases h(P) = ||X P - F||^2 + gamma * sum_i
    sqrt(||p_i||^2 + epsilon). Since sqrt is concave, at an anchor A

        sqrt(||p_i||^2 + eps) <= sqrt(||a_i||^2 + eps)
                                 + (||p_i||^2 - ||a_i||^2) * g_i,
        g_i = 1 / (2 sqrt(||a_i||^2 + eps)),

    with equality at P = A. So h(P) <= ||X P - F||^2 + gamma Tr(P^T G P)
    + const(A), tight at A, and the step, anchored at A = state.p, never
    increases h; repeated steps are the reweighting scheme of Nie et al.
    (NeurIPS 2010). h, not the raw row-norm sum, is what descends: the raw
    sum can rise by up to gamma * d * sqrt(epsilon) per step.

    Returns (new p, new gamma_diag): the solve's one factorization of size
    min(n, d) (``_solve_projection``) and the reweighting it used, so
    2 X^T (X p - f) + 2 gamma G p = 0 holds at the returned pair up to
    solver round-off.
    """
    weights = _reweighting_of(state.p, hp.epsilon)
    return _solve_projection(x, state.f, hp.gamma, weights), weights


def _dense_matrix(s: AffinityGraph) -> np.ndarray:
    """S's own array when it is dense (no copy), else a dense copy
    (``graph._dense_copy``)."""
    return _dense_copy(s) if issparse(s.matrix) else s.matrix


def _degrees(m: np.ndarray) -> np.ndarray:
    """deg = (S 1 + S^T 1) / 2, the degrees of the symmetrized weights
    (S + S^T) / 2: L_S = diag(deg) - (S + S^T) / 2."""
    return 0.5 * (m.sum(axis=1) + m.sum(axis=0))


def _embedding_operator(
    s: AffinityGraph, x: np.ndarray, gamma_diag: np.ndarray, hp: Hyperparams
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """``_embedding_operator_in_place`` in a dense copy of S, symmetrized
    as ``_bottom_eigenpairs`` symmetrizes it: the matrix that the
    eigensolve solves. s is left unchanged."""
    m, project = _embedding_operator_in_place(_dense_copy(s), x, gamma_diag, hp)
    return _symmetrize(m, m), project


@np.errstate(all="ignore")
def _embedding_operator_in_place(
    a: np.ndarray, x: np.ndarray, gamma_diag: np.ndarray, hp: Hyperparams
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """(alpha (diag(deg) - S) + beta C, F -> Q^{-1} X^T F) with deg the
    degrees (``_degrees``) and C = I - X Q^{-1} X^T, both from one
    factorization; see ``update_f``. When d > n, C = K^{-1} and
    Q^{-1} X^T F = D X^T K^{-1} F (module docstring). Otherwise one solve
    with Q, on the right-hand side [X^T, I], gives Q^{-1} X^T, which builds
    C and is dropped, and the d x d Q^{-1}, which is kept: P comes from
    Q^{-1} (X^T F), not from the residual X^T C F, whose round-off
    (gamma G)^{-1} would amplify.

    The symmetric part of the first matrix is the embedding operator
    alpha L_S + beta C, and ``_bottom_eigenpairs`` symmetrizes its input
    and checks it, so no Laplacian is formed. The matrix is formed in a,
    the dense S's own C-ordered float64 array, which the caller gives up:
    a is scaled by -alpha and gets alpha deg on its diagonal; then beta C,
    as beta K^{-1} when d > n (its n x n temporary stays under the dual
    solves' own peak), else as beta on the diagonal and one GEMM.
    """
    n = x.shape[0]
    degrees = _degrees(a)
    a *= -hp.alpha
    a[np.diag_indices(n)] += hp.alpha * degrees
    if _uses_dual_form(x):
        complement, root = _dual_solve(x, hp.gamma, gamma_diag)
        def project(f: np.ndarray) -> np.ndarray:
            return root[:, None] * ((x * root).T @ (complement @ f))
        a += hp.beta * complement
        return a, project
    d = x.shape[1]
    rhs = np.concatenate((x, np.eye(d))).T  # [X^T, I], Fortran-ordered
    solved = _solve_spd(_regularized_gram(x.T @ x, hp.gamma, gamma_diag), rhs)
    back, inverse = solved[:, :n], solved[:, n:].copy()  # Q^{-1} X^T, Q^{-1}
    def project(f: np.ndarray) -> np.ndarray:
        return inverse @ (x.T @ f)
    a[np.diag_indices(n)] += hp.beta
    # a.T is a in Fortran order: there, a <- a - beta X back is
    # a.T <- a.T - beta back^T X^T, one GEMM with no n x n temporary.
    a = blas.dgemm(-hp.beta, back, x.T, beta=1.0, c=a.T, trans_a=True, overwrite_c=True).T
    return a, project


def _update_f_in_place(
    a: np.ndarray, x: np.ndarray, f0: np.ndarray, gamma_diag: np.ndarray, hp: Hyperparams
) -> tuple[np.ndarray, np.ndarray, bool]:
    """``update_f`` from F_0 = f0 in a, the dense S's own C-ordered float64
    array, which the caller gives up: it becomes the operator, solved in
    place. Returns (F, P, whether the Ritz step fell back to the exact
    eigensolve)."""
    m, project = _embedding_operator_in_place(a, x, gamma_diag, hp)
    if f0.any():
        f, fell_back = _ritz_bottom_eigenvectors(m, f0, hp.k)
    else:
        f, fell_back = _bottom_eigenpairs(m, hp.k)[1], False
    return f, project(f), fell_back


def update_f(
    state: SolverState, x: np.ndarray, hp: Hyperparams
) -> tuple[np.ndarray, np.ndarray]:
    """Joint (indicator, projection) update: returns (F, P).

    With the reweighting G = diag(gamma_diag) held fixed, the (F, P) part of
    the reweighted objective is

        alpha Tr(F^T L_S F) + beta (||X P - F||^2 + gamma Tr(P^T G P)).

    For fixed F its minimizer over P is P = Q^{-1} X^T F with
    Q = X^T X + gamma G, and substituting it back leaves
    beta Tr(F^T C F), C = I - X Q^{-1} X^T. Over F with F^T F = I the
    remainder Tr(F^T M F), M = alpha L_S + beta C, is minimized by the k
    bottom eigenvectors of M (Ky Fan), the symmetric part of
    alpha (diag(deg) - S) + beta C, which is formed without a Laplacian
    (``_embedding_operator_in_place``). The factorization that built C
    also gives the matching P = Q^{-1} X^T F: when d > n, X^T C = (Q - X^T X)
    Q^{-1} X^T = gamma G Q^{-1} X^T turns it into P = (gamma G)^{-1} X^T
    (C F) with C = K^{-1}, for O(n^2 k + n d k). So the update costs
    O(min(n, d)^3 + n d min(n, d)) plus the eigensolve.

    With F_0 = state.f = 0, as in ``initialize``, F is the exact bottom of
    M (``numerics._bottom_eigenpairs``). Otherwise F is a Rayleigh-Ritz
    step over a subspace that holds F_0: the bottom of a float32 solve of
    M refined in float64 (``numerics._ritz_bottom_eigenvectors``). It gives
    Tr(F^T M F) <= Tr(F_0^T M F_0) for orthonormal F_0, which is all that
    ``fit``'s descent chain needs, and it takes the exact solve when its
    residual misses the tolerance.

    state.s is read, never written: the update runs in a dense copy of S
    (``_update_f_in_place``), whereas ``fit`` gives up S's own array.
    """
    f, p, _ = _update_f_in_place(_dense_copy(state.s), x, state.f, state.gamma_diag, hp)
    return f, p


@np.errstate(all="ignore")
def update_s(
    state: SolverState, views: list[AffinityGraph], hp: Hyperparams
) -> AffinityGraph:
    """Similarity update: per-column simplex projection of the fused view
    columns shifted by the indicator distances. It reads only F, W and the
    views, never the current S; at F = 0 the shift is +0 and the result is
    the projection of the fusion itself (``initialize``).

    L_S = D - (S + S^T)/2, so Tr(F^T L_S F) = 1/2 sum_ij s_ij a_ij with
    a_ij = ||f_i - f_j||^2, and the s-block of the objective splits into
    independent columns:

        ||s_j - b_j||^2 + (alpha / 2) a_j^T s_j,  b_j = sum_v w_j^v S_j^v.

    Completing the square, this is ||s_j - (b_j - (alpha / 4) a_j)||^2 plus
    a constant, so its minimizer on the simplex is the Euclidean projection
    of b_j - (alpha / 4) a_j.

    The fused columns are the only n x n array: the shift is subtracted by
    blocks of rows, and the columns projected in place by blocks
    (``numerics._project_simplex_columns``).

    Raises NumericError when alpha is so large that the shifted columns
    overflow or their projection misses the simplex in float64: (alpha / 4)
    times the round-off in a_jj (about 1e34 on the README data) swamps the
    simplex's sum of 1.
    """
    shifted = _fused_columns(views, state.w)
    scale = 0.25 * hp.alpha
    try:
        for lo, hi in _row_blocks(*shifted.shape):
            shift = squared_distances(state.f[lo:hi], state.f)
            shift *= scale
            rows = shifted[lo:hi]
            rows -= shift
            if not np.isfinite(rows).all():
                raise NumericError("the shifted columns overflow")
        return AffinityGraph(_project_simplex_columns(shifted))
    except ValueError as exc:
        raise NumericError(f"S leaves the simplex at alpha {hp.alpha:g}: {exc}") from exc


def update_w(state: SolverState, views: list[AffinityGraph]) -> np.ndarray:
    """View-weight update: exact per-column minimizer of the fusion term,
    all n columns in one batched V x V solve.

    With b_v = s_j - s_j^v as the columns of B_j, column j minimizes
    w^T G_j w, G_j = B_j^T B_j, subject to sum(w) = 1. The Lagrange
    condition 2 G_j w = lambda 1 gives w = G_j^{-1} 1 / (1^T G_j^{-1} 1).
    Entries may be negative. Degenerate columns, with t_j = trace(G_j) / V:
    a Gram whose entries all equal one value c, as when the V views'
    columns j coincide and every b_v is the same vector, gives
    w^T G_j w = c (1^T w)^2, constant on the constraint, so every feasible
    w is optimal; such a column (a zero Gram, s_j equal to every view's
    column, is one) is solved as I and gets exactly 1/V. A Gram with
    smallest eigenvalue <= 1e-12 t_j (nearly coinciding views) gets the
    ridge 1e-10 t_j I; a solve whose sum is non-finite or not positive
    gets uniform weights. Any other Gram has t_j > 0, so after the ridge
    every Gram in the batch has smallest eigenvalue above 1e-12 t_j > 0
    (or is I), and ``np.linalg.solve`` meets no singular matrix and cannot
    raise. A sparse S is read through a dense copy (``_dense_matrix``).
    """
    s = _dense_matrix(state.s)
    grams = _view_grams(s, views)  # (n, V, V), one Gram per column
    v = grams.shape[1]
    grams[(grams == grams[:, :1, :1]).all(axis=(1, 2))] = np.eye(v)  # G_j = c 11^T
    scale = np.trace(grams, axis1=1, axis2=2) / v
    smallest = np.linalg.eigvalsh(grams)[:, 0]
    ridge = np.where(smallest <= 1e-12 * scale, 1e-10 * scale, 0.0)
    ridged = grams + ridge[:, None, None] * np.eye(v)
    y = np.linalg.solve(ridged, np.ones((len(s), v, 1)))[:, :, 0]
    total = y.sum(axis=1)
    ok = np.isfinite(total) & (total > 0)
    w = np.full_like(y, 1.0 / v)
    w[ok] = y[ok] / total[ok, None]
    return w.T


def objective(
    state: SolverState,
    views: list[AffinityGraph],
    x: np.ndarray,
    hp: Hyperparams,
) -> float:
    """Overall objective value at the given state.

    fusion residual + alpha * Tr(F^T L_S F) + beta * (||X P - F||^2
    + gamma * sum of row norms of P).

    The fusion residual is summed by blocks of columns, so no n x n array
    besides S (``_dense_matrix``: a dense copy of a sparse S) is formed;
    where one block covers them all, it has the bits of its dense formula.
    With L_S = diag(deg) - (S + S^T) / 2 (``_degrees``) and
    Tr(F^T S^T F) = Tr(F^T S F), the spectral term is
    sum_i deg_i ||f_i||^2 - Tr(F^T S F): one n x n x k product, no Laplacian.
    """
    s, n, f = _dense_matrix(state.s), state.s.n, state.f
    supports = [g.support for g in views]
    fusion = 0.0
    for lo, hi in _row_blocks(n, n):
        resid_s = _fused_slice(supports, state.w, n, lo, hi)
        np.subtract(s[:, lo:hi], resid_s, out=resid_s)
        fusion += float(np.sum(np.square(resid_s, out=resid_s)))
        del resid_s
    spectral = float(_degrees(s) @ np.sum(f * f, axis=1) - np.sum(f * (s @ f)))
    resid_f = x @ state.p - state.f
    fit = float(np.sum(resid_f * resid_f))
    sparsity = float(np.sqrt(np.sum(state.p * state.p, axis=1)).sum())
    return fusion + hp.alpha * spectral + hp.beta * (fit + hp.gamma * sparsity)


def initialize(
    views: list[AffinityGraph], x: np.ndarray, hp: Hyperparams
) -> SolverState:
    """Starting state: the S and (F, P) steps from a fixed start.

    From uniform view weights, F = 0, P = 0 and unit reweighting (G = I),
    ``update_s`` gives S_0, the projection of the uniform fusion of the view
    graphs (the shift vanishes at F = 0), and ``update_f`` the indicator
    from the embedding operator of that structure and its paired projection.
    The uniform fusion's columns lie on the simplex, so it is its own
    projection: ``update_f`` reads it, held sparse and summed in view order
    with the bits of ``_fused_columns``, in place of S_0 (they differ by
    round-off), and S_0 is formed after it, so the operator and S_0 are
    never held together.
    """
    x = require_numeric("stacked feature matrix", x)
    n = _check_problem(views, x, hp)
    d = x.shape[1]
    state = SolverState(p=np.zeros((d, hp.k)), f=np.zeros((n, hp.k)), s=None,
                        w=np.full((len(views), n), 1.0 / len(views)),
                        gamma_diag=np.ones(d))
    state.s = AffinityGraph(sum(csc_array(g.matrix) * (1.0 / len(views)) for g in views))
    f, p = update_f(state, x, hp)
    state.s = update_s(state, views, hp)
    state.f, state.p = f, p
    _record(state, views, x, hp)
    return state


def _record(
    state: SolverState, views: list[AffinityGraph], x: np.ndarray, hp: Hyperparams
) -> int:
    """Append the state's trace row and return its component count."""
    state.objective_trace.append(objective(state, views, x, hp))
    comps = connected_components(state.s)
    state.components_trace.append(comps)
    state.alpha_trace.append(hp.alpha)
    state.iteration = len(state.objective_trace) - 1
    return comps


def fit(views: list[AffinityGraph], x: np.ndarray, hp: Hyperparams) -> SolverState:
    """Run the alternating loop until the relative objective change drops
    below hp.tol_rel_objective or max_outer_iters is reached.

    One outer iteration with alpha fixed never increases the smoothed
    objective J_eps (module docstring). It makes one MM step on P: let P_0
    be the projection at its start, and U(P, F) the reweighted bound of
    J_eps anchored at P_0 (``update_p``), which equals J_eps at P = P_0
    and lies above it elsewhere. ``update_p`` returns the reweighting at
    P_0 and the P_1 that minimizes U(., F_0); then

        J_eps(P_0, F_0) = U(P_0, F_0)
                       >= U(P_1, F_0)              P_1 minimizes U(., F_0)
                       >= U(P_new, F_new)          Ritz step from F_0
                       >= J_eps(P_new, F_new)      U bounds J_eps above
                       >= J_eps after update_s     exact column minimizers
                       >= J_eps after update_w     exact column minimizers

    where (F_new, P_new = Q^{-1} X^T F_new) is the pair ``update_f``
    returns for the reweighting at P_0. The minimum of U(., F) over P is
    Tr(F^T M F) plus a constant, and F_new is a Rayleigh-Ritz step over a
    subspace that holds F_0, so Tr(F_new^T M F_new) <= Tr(F_0^T M F_0);
    P_new attains that minimum at F_new. More ``update_p`` steps would move
    the anchor and also descend, at one solve each, but ``update_f``
    replaces P_1 anyway: one step keeps the chain at the least cost.

    With adaptive alpha enabled, alpha doubles while the structure has
    fewer than k components and halves while it has more; iterations that
    change alpha do not count toward convergence. Non-convergence leaves
    state.converged False rather than raising.

    ``update_s`` does not read S, so the outgoing S's own array becomes the
    operator (``_update_f_in_place``): the primal loop holds one n x n array,
    and the float32 copy of the operator while it is solved.
    state.f_fallbacks counts the F steps that took the exact eigensolve.
    """
    x = require_numeric("stacked feature matrix", x)
    state = initialize(views, x, hp)
    current = hp
    for it in range(1, hp.max_outer_iters + 1):
        try:
            state.p, state.gamma_diag = update_p(state, x, current)
            state.f, state.p, fell_back = _update_f_in_place(
                state.s.matrix, x, state.f, state.gamma_diag, current)
            state.f_fallbacks += fell_back
            state.s = None
            state.s = update_s(state, views, current)
            state.w = update_w(state, views)
        except NumericError as exc:
            raise NumericError(f"outer iteration {it}: {exc}") from exc
        comps = _record(state, views, x, current)
        if hp.adaptive_alpha and comps != hp.k:
            current = replace(current, alpha=current.alpha * (2.0 if comps < hp.k else 0.5))
            continue
        prev, value = state.objective_trace[-2:]
        if abs(prev - value) / max(abs(prev), 1e-30) < hp.tol_rel_objective:
            state.converged = True
            break
    return state
