"""Traced peak memory of each block of one fit, in n x n arrays of doubles.

One largen-shaped fit (n = 900: three 40-dimensional views, the third twice
as noisy; k = 3, 10 neighbors, 4 outer iterations) runs under tracemalloc.
Each block of the fit loop is measured from the memory held before the fit
(the view graphs and the features) to its own peak, so a block's figure
counts the similarity it holds as well as its temporaries. The script
prints one line per block and the fit's peak, appends them to the file
named by $GITHUB_STEP_SUMMARY when that is set, and exits 1 when any block
exceeds BOUND. Its name keeps pytest from collecting it. Run it from the
root of the repository:

    OPENBLAS_NUM_THREADS=1 python tests/fit_memory.py

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

BOUND = 2.5
BLOCKS = ("update_p", "update_f", "update_s", "update_w", "objective", "connected_components")


def block_peaks(n_per_cluster: int = 300) -> tuple[int, dict]:
    """(n, {block: traced peak in n x n arrays}) of one fit, "fit" included."""
    views = [(40, 6.0, 0.25)] * 2 + [(40, 12.0, 0.25)]
    dataset, _ = generate_synthetic(n_per_cluster, 3, views, seed=0)
    mats = [zscore_columns(v) for v in dataset.views]
    x = np.hstack(mats)
    graphs = [build_view_affinity(m, 10) for m in mats]
    hp = solver.Hyperparams(k=3, alpha=1.0, max_outer_iters=4)
    n = x.shape[0]
    unit = 8.0 * n * n
    solver.fit(graphs, x, replace(hp, max_outer_iters=1))  # first-call costs, unmeasured

    peaks = dict.fromkeys(BLOCKS, 0.0)
    originals = {name: getattr(solver, name) for name in BLOCKS}

    def measured(name):
        def call(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return originals[name](*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                peaks[name] = max(peaks[name], peak / unit)
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
    peaks["fit"] = max(last / unit, *peaks.values())
    return n, peaks


def main() -> int:
    n, peaks = block_peaks()
    lines = [f"fit memory at n = {n}, traced peak in n x n arrays (bound {BOUND}):"]
    lines += [f"  {name}: {value:.2f}" for name, value in peaks.items()]
    text = "\n".join(lines)
    print(text)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as out:
            out.write("```\n" + text + "\n```\n")
    return 0 if max(peaks.values()) <= BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
