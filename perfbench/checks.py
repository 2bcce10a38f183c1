"""Correctness checks the benchmark applies to every operation.

They check invariants the solver promises, not stored reference bytes, so
a change that legitimately alters the math still passes.
"""

import numpy as np

ORTHONORMAL_TOL = 1e-8
SUM_TOL = 1e-9


def state_violations(state, n: int, d: int, k: int) -> list[str]:
    """Broken SolverState invariants, as messages (empty when sound).

    f has orthonormal columns, every column of s lies on the probability
    simplex, every column of w sums to 1, p is finite, and the objective,
    component and alpha traces are finite with one entry per recorded
    iteration plus the initial state.
    """
    bad = []
    f, s, w, p = state.f, state.s.matrix, state.w, state.p
    if f.shape != (n, k) or not np.isfinite(f).all():
        bad.append(f"f has shape {f.shape} or non-finite entries")
    elif np.abs(f.T @ f - np.eye(k)).max() > ORTHONORMAL_TOL:
        bad.append("f columns are not orthonormal")
    if s.shape != (n, n) or not np.isfinite(s).all():
        bad.append(f"s has shape {s.shape} or non-finite entries")
    else:
        if s.min() < 0:
            bad.append(f"s has a negative entry {s.min():.3e}")
        worst = np.abs(s.sum(axis=0) - 1.0).max()
        if worst > SUM_TOL:
            bad.append(f"s columns miss the simplex by {worst:.3e}")
    if w.shape[1] != n or not np.isfinite(w).all():
        bad.append(f"w has shape {w.shape} or non-finite entries")
    elif np.abs(w.sum(axis=0) - 1.0).max() > SUM_TOL:
        bad.append("w columns do not sum to 1")
    if p.shape != (d, k) or not np.isfinite(p).all():
        bad.append(f"p has shape {p.shape} or non-finite entries")
    traces = (state.objective_trace, state.components_trace, state.alpha_trace)
    if any(len(t) != state.iteration + 1 for t in traces):
        bad.append(f"trace lengths {[len(t) for t in traces]} do not match "
                   f"{state.iteration} iterations")
    elif not all(np.isfinite(t).all() for t in traces):
        bad.append("a trace has non-finite entries")
    return bad


def precision(selected, planted) -> float:
    """Fraction of the selected dimensions that are planted informative."""
    hits = set(np.asarray(selected).tolist()) & set(np.asarray(planted).tolist())
    return len(hits) / len(selected)
