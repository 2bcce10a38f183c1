"""Traced peak memory of each block of one fit, in n x n arrays of doubles.

Two fits run under tracemalloc, each with k = 3, 10 neighbors and 4 outer
iterations: a largen-shaped one (n = 900: three 40-dimensional views, the
third twice as noisy), which solves in the primal form, and a
highdim-shaped one (n = 300: two 300-dimensional views), which solves in
the dual form (d > n). ``initialize`` and each block of the fit loop are
measured from the memory held before the fit (the view graphs and the
features) to their own peak, so a block's figure counts the similarity it
holds as well as its temporaries. The loop updates F through the private
in-place route ``_update_f_in_place``, which turns the outgoing S into the
embedding operator; the public ``update_f``, which runs that route on a
copy of S, is called by ``initialize`` alone. The script prints one line
per block and the fit's peak for each shape, in n x n arrays to two
decimals and in bytes, and the fit's margin to its bound in bytes, appends
them to the file named by $GITHUB_STEP_SUMMARY when that is set, and exits
1 when any block exceeds its shape's bound: the fit peak measured before
the F step's float32 solve (1.31 primal, 4.29 dual) plus the margin that
the earlier bounds of 2.5 and 5.5 left over the earlier peaks of 2.24 and
5.16. The primal peak is now 1.55, in ``_update_f_in_place``: S's array,
which has become the operator, and its float32 copy; the dual peak stays
4.29, in the dual solves. A block's peak moves by up to about 1 KB between
runs of the same code (the interpreter's own allocations), so compare two
trees block by block in bytes, with that margin, not by the
rounded figure. Its name keeps pytest from collecting it. Run it from the
root of the repository:

    OPENBLAS_NUM_THREADS=1 python -W error::RuntimeWarning tests/fit_memory.py

(with ``src`` on the path, e.g. PYTHONPATH=src, when acsl is not installed).
Buffers that LAPACK allocates itself are not traced.
"""

from dataclasses import replace
import os
import sys
import tracemalloc

import numpy as np

from acsl import solver
from acsl.data import zscore_columns
from acsl.graph import build_view_affinity
from acsl.synthetic import generate_synthetic

BLOCKS = ("initialize", "update_p", "update_f", "_update_f_in_place", "update_s", "update_w",
          "objective", "connected_components")
# name: (samples per cluster, views as (dims, noise, informative fraction),
# bound in n x n arrays).
SHAPES = {
    "primal": (300, [(40, 6.0, 0.25)] * 2 + [(40, 12.0, 0.25)], 1.57),
    "dual": (100, [(300, 2.5, 0.05), (300, 3.0, 0.05)], 4.63),
}


def block_peaks(n_per_cluster: int, views: list) -> tuple[int, dict]:
    """(n, {block: traced peak in bytes}) of one fit, "fit" included."""
    dataset, _ = generate_synthetic(n_per_cluster, 3, views, seed=0)
    mats = [zscore_columns(v) for v in dataset.views]
    x = np.hstack(mats)
    graphs = [build_view_affinity(m, 10) for m in mats]
    hp = solver.Hyperparams(k=3, alpha=1.0, max_outer_iters=4)
    n = x.shape[0]
    solver.fit(graphs, x, replace(hp, max_outer_iters=1))  # first-call costs, unmeasured

    peaks = dict.fromkeys(BLOCKS, 0)
    originals = {name: getattr(solver, name) for name in BLOCKS}

    def measured(name):
        def call(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return originals[name](*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                peaks[name] = max(peaks[name], peak)
        return call

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for name in BLOCKS:
            setattr(solver, name, measured(name))
        solver.fit(graphs, x, hp)
        last = tracemalloc.get_traced_memory()[1] - base  # since the last block began
    finally:
        for name, fn in originals.items():
            setattr(solver, name, fn)
        tracemalloc.stop()
    peaks["fit"] = max(last, *peaks.values())
    return n, peaks


def main() -> int:
    failed = False
    for name, (n_per_cluster, views, bound) in SHAPES.items():
        n, peaks = block_peaks(n_per_cluster, views)
        unit = 8.0 * n * n
        lines = [f"{name} fit memory at n = {n}, d = {sum(v[0] for v in views)}, "
                 f"traced peak in n x n arrays (bound {bound}) and in bytes:"]
        lines += [f"  {block}: {value / unit:.2f} ({value} bytes)"
                  for block, value in peaks.items()]
        lines.append(f"  margin to the bound: {int(bound * unit) - peaks['fit']} bytes")
        text = "\n".join(lines)
        print(text)
        summary = os.environ.get("GITHUB_STEP_SUMMARY")
        if summary:
            with open(summary, "a", encoding="utf-8") as out:
                out.write("```\n" + text + "\n```\n")
        failed |= max(peaks.values()) / unit > bound
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
