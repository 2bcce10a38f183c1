"""Synthetic multi-view blob data with planted informative dimensions.

Each view places cluster-mean Gaussian blobs in a random informative
subspace and fills the remaining dimensions with pure unit noise. The
planted indices are recorded on the dataset so selection quality can be
scored against ground truth.
"""

import numpy as np

from .data import MultiViewDataset
from .errors import ConfigError, is_number, require_integers

# Cluster means are drawn from N(0, CLUSTER_SEPARATION^2) per informative
# dimension; within-cluster spread is the view's noise_level.
CLUSTER_SEPARATION = 4.0


def generate_synthetic(
    n_per_cluster: int,
    k: int,
    views: list[tuple[int, float, float]],
    seed: int,
) -> tuple[MultiViewDataset, np.ndarray]:
    """Generate a clustered multi-view dataset.

    Parameters
    ----------
    n_per_cluster : samples per cluster.
    k : number of clusters.
    views : one (d_v, noise_level, informative_fraction) tuple per view.
        round(d_v * informative_fraction) dimensions carry cluster signal.
    seed : RNG seed; identical seeds give byte-identical datasets.

    Returns
    -------
    (dataset, labels) with labels in 0..k-1 grouped by cluster.
    """
    require_integers("n_per_cluster", n_per_cluster, least=1)
    require_integers("k", k, least=1)
    require_integers("seed", seed, least=0)
    if not views:
        raise ConfigError("at least one view description is required")
    rng = np.random.default_rng(seed)
    n = n_per_cluster * k
    labels = np.repeat(np.arange(k), n_per_cluster)

    mats = []
    informative = []
    for d_v, noise_level, fraction in views:
        require_integers("view dimension", d_v, least=1)
        if not (is_number(noise_level) and 0.0 <= noise_level < np.inf):
            raise ConfigError(f"noise_level must be nonnegative and finite, got {noise_level}")
        if not (is_number(fraction) and 0.0 <= fraction <= 1.0):
            raise ConfigError(f"informative_fraction must be in [0, 1], got {fraction}")
        m = int(round(d_v * fraction))
        idx = np.sort(rng.choice(d_v, size=m, replace=False))
        means = rng.normal(0.0, CLUSTER_SEPARATION, size=(k, m))
        data = rng.normal(0.0, 1.0, size=(n, d_v))
        data[:, idx] = means[labels] + noise_level * rng.normal(0.0, 1.0, size=(n, m))
        mats.append(data)
        informative.append(idx)

    dataset = MultiViewDataset(
        views=mats, name=f"synthetic-{seed}", informative_dims=informative
    )
    return dataset, labels
