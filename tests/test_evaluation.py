import itertools

import numpy as np
import pytest

from acsl.evaluation import (
    _lloyd,
    clustering_accuracy,
    kmeans,
    nmi,
    score_clustering,
)
from acsl.numerics import squared_distances


def partition_inertia(data, labels):
    total = 0.0
    for c in np.unique(labels):
        pts = data[labels == c]
        total += float(np.sum((pts - pts.mean(axis=0)) ** 2))
    return total


# ------------------------------------------------------------------- k-means

def test_kmeans_separates_far_pairs():
    data = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
    labels = kmeans(data, 2, restarts=5, seed=0)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert labels[0] != labels[2]


def test_kmeans_k_equals_n_gives_zero_inertia():
    rng = np.random.default_rng(61)
    data = rng.normal(size=(6, 3))
    labels = kmeans(data, 6, restarts=5, seed=0)
    assert len(set(labels.tolist())) == 6
    assert partition_inertia(data, labels) <= 1e-12


def test_kmeans_matches_bruteforce_partition_oracle():
    # All 2-labelings of 8 planar points; best k-means restart must reach
    # the globally optimal inertia.
    rng = np.random.default_rng(62)
    data = rng.normal(size=(8, 2))
    best = np.inf
    for mask in range(1, 2 ** 7):  # fix point 0 in cluster 0 to kill symmetry
        labels = np.array([0] + [(mask >> i) & 1 for i in range(7)])
        if len(set(labels.tolist())) < 2:
            continue
        best = min(best, partition_inertia(data, labels))
    ours = partition_inertia(data, kmeans(data, 2, restarts=30, seed=0))
    assert ours <= best + 1e-9


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(63)
    data = rng.normal(size=(40, 5))
    a = kmeans(data, 4, restarts=10, seed=123)
    b = kmeans(data, 4, restarts=10, seed=123)
    assert np.array_equal(a, b)


def test_lloyd_refines_beyond_the_first_assignment():
    # A deliberately bad initial split must keep improving across Lloyd
    # iterations, not stop after one assignment/update round.
    rng = np.random.default_rng(70)
    data = np.vstack([rng.normal(size=(30, 2)), rng.normal(size=(30, 2)) + [4.0, 0.0]])
    centers = np.array([[-2.0, 0.0], [1.5, 0.0]])
    first = squared_distances(data, centers).argmin(axis=1)
    one_step_centers = np.array([data[first == c].mean(axis=0) for c in range(2)])
    one_step = float(np.sum((data - one_step_centers[first]) ** 2))
    _, converged = _lloyd(data, centers.copy())
    assert converged < one_step - 1e-9


def test_kmeans_empty_cluster_repair_reseeds_farthest_point():
    # Two centers coincide, so one cluster starts empty; repair must leave
    # every cluster populated.
    data = np.vstack([np.zeros((5, 2)), np.ones((5, 2)) * 8.0])
    centers = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.1]])
    labels, inertia = _lloyd(data, centers.copy())
    assert set(labels.tolist()) == {0, 1, 2}
    assert np.isfinite(inertia)


def test_kmeans_validates_arguments():
    data = np.zeros((4, 2))
    with pytest.raises(ValueError):
        kmeans(data, 5)
    with pytest.raises(ValueError):
        kmeans(data, 0)
    with pytest.raises(ValueError):
        kmeans(data, 2, restarts=0)


# ------------------------------------------------------------------ accuracy

def test_accuracy_identical_labelings():
    labels = np.array([0, 1, 2, 0, 1, 2])
    assert clustering_accuracy(labels, labels) == 1.0


def test_accuracy_invariant_to_label_permutation():
    rng = np.random.default_rng(64)
    truth = rng.integers(0, 4, size=30)
    mapping = np.array([2, 3, 0, 1])
    assert clustering_accuracy(mapping[truth], truth) == 1.0


def test_accuracy_matches_factorial_enumeration_oracle():
    rng = np.random.default_rng(65)
    for _ in range(20):
        pred = rng.integers(0, 4, size=20)
        truth = rng.integers(0, 4, size=20)
        ours = clustering_accuracy(pred, truth)
        best = 0.0
        for perm in itertools.permutations(range(4)):
            mapped = np.array([perm[v] for v in pred])
            best = max(best, float(np.mean(mapped == truth)))
        assert ours == pytest.approx(best, abs=1e-12)


def test_accuracy_balanced_lower_bound():
    rng = np.random.default_rng(66)
    for k in (2, 3, 4):
        truth = np.repeat(np.arange(k), 12)
        pred = np.repeat(rng.permutation(k), 12)
        rng.shuffle(pred)
        assert clustering_accuracy(pred, truth) >= 1.0 / k


def test_accuracy_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        clustering_accuracy(np.zeros(3), np.zeros(4))


# ----------------------------------------------------------------------- NMI

def test_nmi_identical_labelings():
    labels = np.array([0, 0, 1, 1, 2, 2])
    assert nmi(labels, labels) == pytest.approx(1.0, abs=1e-12)


def test_nmi_independent_product_design_is_zero():
    # Joint distribution is exactly the product of the marginals.
    idx = np.arange(16)
    pred = (idx // 2) % 2
    truth = idx % 2
    assert nmi(pred, truth) == pytest.approx(0.0, abs=1e-12)


def test_nmi_hand_computed_contingency_oracle():
    # Contingency [[5, 1], [1, 5]]: evaluate the entropy formula directly.
    pred = np.array([0] * 6 + [1] * 6)
    truth = np.array([0] * 5 + [1] + [0] + [1] * 5)
    p = np.array([[5, 1], [1, 5]]) / 12.0
    marg = p.sum(axis=1)
    h = -np.sum(marg * np.log(marg))
    info = sum(
        p[i, j] * np.log(p[i, j] / (marg[i] * marg[j]))
        for i in range(2)
        for j in range(2)
    )
    assert nmi(pred, truth) == pytest.approx(info / h, abs=1e-12)


def test_nmi_degenerate_partitions():
    assert nmi(np.zeros(5), np.full(5, 7)) == 1.0  # both single-cluster
    assert nmi(np.zeros(6), np.array([0, 0, 0, 1, 1, 1])) == 0.0


def test_nmi_invariant_to_relabeling():
    rng = np.random.default_rng(67)
    pred = rng.integers(0, 3, size=40)
    truth = rng.integers(0, 4, size=40)
    base = nmi(pred, truth)
    perm = np.array([5, 9, 1])
    assert nmi(perm[pred], truth) == pytest.approx(base, abs=1e-12)
    perm_t = np.array([3, 0, 8, 2])
    assert nmi(pred, perm_t[truth]) == pytest.approx(base, abs=1e-12)


def test_score_clustering_runs_per_seed():
    rng = np.random.default_rng(68)
    data = np.vstack([rng.normal(size=(10, 3)), rng.normal(size=(10, 3)) + 6.0])
    truth = np.repeat([0, 1], 10)
    accs, nmis = score_clustering(data, truth, 2, restarts=5, seeds=(0, 1, 2))
    assert accs.shape == (3,) and nmis.shape == (3,)
    assert np.all(accs == 1.0)
