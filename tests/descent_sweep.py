"""The longer descent sweep: every link of ``fit``'s descent chain over 2000
random instances, with seeds disjoint from tier-1's.

The tier-1 test in ``test_descent.py`` checks 30 instances. This script
draws 1500 with alpha, beta and gamma in [1e-3, 1e3] and 500 in
[1e-4, 1e4], prints the worst relative link rise and where it happened,
and exits 1 if it exceeds ``SLACK``. Its name keeps pytest from
collecting it. Run it from the root of the repository, with RuntimeWarnings
as errors as in tier-1:

    OPENBLAS_NUM_THREADS=1 python -W error::RuntimeWarning tests/descent_sweep.py

(with ``src`` on the path, e.g. PYTHONPATH=src, when acsl is not installed).
It takes about half a minute at 1 BLAS thread.
"""

import sys

import numpy as np

from test_descent import SLACK, chain_rises, random_instance

# (first seed, count, log10 range of the weights); tier-1 uses seeds 0-23
# and 100-105.
SWEEPS = ((10_000, 1500, 3.0), (20_000, 500, 4.0))
LINKS = ("update_p", "update_f", "bound to J_eps", "update_s", "update_w")


def main() -> int:
    worst, where = -np.inf, None
    for first, count, log_range in SWEEPS:
        for seed in range(first, first + count):
            views, x, _, hp = random_instance(seed, log_range)
            rises = chain_rises(views, x, hp)
            it, link = np.unravel_index(rises.argmax(), rises.shape)
            if rises[it, link] > worst:
                worst, where = rises[it, link], (seed, int(it) + 1, LINKS[link])
    print(f"{sum(c for _, c, _ in SWEEPS)} instances: worst link rise {worst:.3e} of "
          f"|J_eps| + (alpha + beta) k at (seed, outer iteration, link) = {where}; "
          f"slack {SLACK:.0e}")
    return 0 if worst <= SLACK else 1


if __name__ == "__main__":
    sys.exit(main())
