"""Span tracing of acsl from outside the package.

Every public function of each layer module is replaced, at every module of
the package that binds it, by a wrapper that records one span: name, start,
end and the index of the enclosing span. Calls made inside the package are
caught because the package resolves names through its module globals at
call time. Spans are kept in memory and written out once at the end.
"""

from collections import defaultdict
from contextlib import contextmanager
import functools
import inspect
import sys
from time import perf_counter

import numpy as np

# The modules of src/acsl whose work is measured; cli and errors do none.
LAYERS = ("synthetic", "data", "graph", "numerics", "solver", "selection",
          "evaluation", "experiment")


def solve_spd_flop(n: int, m: int) -> float:
    """Computed flops of a Cholesky solve of an n x n system with m
    right-hand sides: n^3/3 for the factorization, 2 n^2 m for the two
    triangular solves."""
    return n ** 3 / 3.0 + 2.0 * n * n * m


def eigh_flop(n: int, k: int) -> float:
    """Computed flops of the k lowest eigenpairs of a dense symmetric
    n x n matrix: 4 n^3 / 3 for the reduction to tridiagonal form plus
    2 n^2 k to transform the k eigenvectors back (the tridiagonal
    eigensolve itself is O(n k) and left out)."""
    return 4.0 * n ** 3 / 3.0 + 2.0 * n * n * k


def _solve_spd_model(a, b, *_, **__) -> float:
    b = np.asarray(b)
    return solve_spd_flop(np.shape(a)[0], 1 if b.ndim == 1 else b.shape[1])


def _eigen_model(m, k, *_, **__) -> float:
    return eigh_flop(np.shape(m)[0], k)


FLOP_MODELS = {
    "numerics.solve_spd": _solve_spd_model,
    "numerics.smallest_k_eigen": _eigen_model,
}


def package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "acsl" or name.startswith("acsl."))]


def rebind(original, replacement) -> list:
    """Point every package binding of `original` at `replacement`; returns
    the (module, attribute) pairs changed."""
    changed = []
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def layer_functions() -> dict:
    """Span name -> function for every public function each layer defines."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"acsl.{layer}"]
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                found[f"{layer}.{attr}"] = value
    return found


class Tracer:
    """Records spans as [name, start, end, parent index, flops]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _open(self, name: str, flop: float = 0.0) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, flop]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name: str):
        model = FLOP_MODELS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, model(*args, **kwargs) if model else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    def install(self) -> None:
        if self._installed:
            return
        for name, fn in layer_functions().items():
            wrapped = self.wrap(fn, name)
            self._installed += [(m, a, fn) for m, a in rebind(fn, wrapped)]

    def uninstall(self) -> None:
        for module, attr, fn in self._installed:
            setattr(module, attr, fn)
        self._installed = []

    def save(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name_id=np.array([index[s[0]] for s in self.spans], dtype=np.int32),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
        )


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Children of one span never overlap (the calls are sequential), so this
    is the part of the span's interval that no child span covers.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def roots_of(spans: list[list]) -> list[int]:
    """Index of the outermost enclosing span of each span (parents are
    always recorded before their children)."""
    roots = []
    for i, s in enumerate(spans):
        roots.append(i if s[3] < 0 else roots[s[3]])
    return roots


def summarize(spans: list[list]) -> dict:
    """Aggregate spans by the name of their outermost span.

    Returns, per root name: `roots`, how many root spans had that name; and
    per span name under those roots, summed: `self` seconds, `calls`, the
    inclusive duration `incl` and the computed `flop`. `parent_calls` and
    `parent_incl` map (name, parent name) to the calls and inclusive
    seconds.
    """
    own = self_times(spans)
    roots = roots_of(spans)
    out = defaultdict(lambda: {"roots": 0, **{key: defaultdict(float) for key in (
        "self", "calls", "incl", "flop", "parent_calls", "parent_incl")}})
    for i, s in enumerate(spans):
        name = s[0]
        agg = out[spans[roots[i]][0]]
        if roots[i] == i:
            agg["roots"] += 1
        agg["self"][name] += own[i]
        agg["calls"][name] += 1
        agg["incl"][name] += s[2] - s[1]
        agg["flop"][name] += s[4]
        if s[3] >= 0:
            agg["parent_calls"][(name, spans[s[3]][0])] += 1
            agg["parent_incl"][(name, spans[s[3]][0])] += s[2] - s[1]
    return out
