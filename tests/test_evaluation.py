import itertools
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from acsl import evaluation
from acsl.evaluation import (
    _lloyd,
    clustering_accuracy,
    kmeans,
    nmi,
    score_clustering,
)
from acsl.errors import ConfigError
from acsl.numerics import squared_distances

from helpers import check_array_rule, check_count_rule


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


@pytest.mark.parametrize("name", ["k", "restarts"])
def test_kmeans_counts_follow_the_count_rule(name):
    data = np.array([[0.0, 0.0], [0.0, 1.0], [9.0, 9.0], [9.0, 8.0]])
    labels = check_count_rule(lambda v: kmeans(data, **{"k": 2, name: v}), name, 1, 2)
    assert clustering_accuracy(labels, np.array([0, 0, 1, 1])) == 1.0
    with pytest.raises(ConfigError, match="k must be at most 4"):
        kmeans(data, 5)


@pytest.mark.parametrize(
    ("data", "k", "restarts", "match"),
    [
        (np.zeros((4, 2)), 2.5, 1, "k must be an integer"),
        (np.zeros((4, 2)), 2.0, 1, "k must be an integer"),
        (np.zeros((4, 2)), 2, 1.5, "restarts must be an integer"),
        (np.array([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]]), 2, 1, "data must be finite"),
        (np.array([[0.0, 1.0], [np.inf, 0.0], [1.0, 1.0]]), 2, 1, "data must be finite"),
    ],
)
def test_kmeans_rejects_bad_arguments_at_entry(data, k, restarts, match):
    with pytest.raises(ValueError, match=match):
        kmeans(data, k, restarts=restarts)


def test_kmeans_accepts_numpy_integers():
    data = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
    expected = kmeans(data, 2, restarts=3, seed=0)
    ours = kmeans(data, np.int64(2), restarts=np.int32(3), seed=0)
    assert np.array_equal(ours, expected)


def test_kmeans_data_follows_the_array_rule():
    check_array_rule(lambda a: kmeans(a, 2), "data", 2)


@pytest.mark.parametrize(("seed", "rule"), [(1.5, "an integer"), (-1, "non-negative")])
def test_kmeans_and_scoring_reject_a_bad_seed_by_name(seed, rule):
    data = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    with pytest.raises(ConfigError, match=rf"^seed must be {rule}, got {seed}$"):
        kmeans(data, 2, seed=seed)
    with pytest.raises(ConfigError, match=rf"^seed must be {rule}, got {seed}$"):
        score_clustering(data, np.array([0, 0, 1, 1]), 2, restarts=2, seeds=(seed,))


def test_score_clustering_rejects_no_seeds_with_a_config_error():
    with pytest.raises(ConfigError, match="at least one evaluation seed"):
        score_clustering(np.zeros((4, 2)), np.zeros(4), 2, restarts=2, seeds=())


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


def injective_map_oracle(pred, truth, a, b):
    # Best count over every injective map from the smaller label range into
    # the larger one, computed on the labels themselves, not on a table.
    best = 0
    if a <= b:
        for image in itertools.permutations(range(b), a):
            best = max(best, int(np.sum(np.array(image)[pred] == truth)))
    else:
        for image in itertools.permutations(range(a), b):
            best = max(best, int(np.sum(pred == np.array(image)[truth])))
    return best / len(truth)


def test_accuracy_matches_injective_map_oracle_on_rectangular_sparse_tables():
    # Rectangular contingency tables and tables that are mostly zeros: the
    # nonzero counts alone often admit no full matching.
    rng = np.random.default_rng(69)
    for a in range(1, 6):
        for b in range(1, 6):
            for trial in range(6):
                n = int(rng.integers(1, 16))
                # Skewed draws leave most of the table empty.
                p_pred = rng.dirichlet(np.full(a, 0.3))
                p_truth = rng.dirichlet(np.full(b, 0.3))
                pred = rng.choice(a, size=n, p=p_pred)
                truth = rng.choice(b, size=n, p=p_truth) if trial % 2 else pred % b
                expected = injective_map_oracle(pred, truth, a, b)
                assert clustering_accuracy(pred, truth) == expected, (pred, truth)


def test_accuracy_when_the_nonzero_counts_admit_no_full_matching():
    # Contingency [[2, 0, 0], [2, 0, 0], [0, 1, 1]]: both of the first two
    # clusters sit on class 0 alone.
    pred = np.array([0, 0, 1, 1, 2, 2])
    truth = np.array([0, 0, 0, 0, 1, 2])
    assert clustering_accuracy(pred, truth) == 0.5
    assert clustering_accuracy(truth, pred) == 0.5


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


@pytest.mark.parametrize("measure", [clustering_accuracy, nmi])
@pytest.mark.parametrize("empty", [[], np.array([], dtype=int)])
def test_measures_reject_empty_labels(measure, empty):
    with pytest.raises(ValueError, match="label vectors are empty"):
        measure(empty, empty)


@pytest.mark.parametrize("n_truth", [0, 19, 21])
def test_score_clustering_checks_lengths_before_kmeans(monkeypatch, n_truth):
    def no_kmeans(*args, **kwargs):
        raise AssertionError("k-means ran before the label lengths were checked")

    monkeypatch.setattr(evaluation, "kmeans", no_kmeans)
    data = np.random.default_rng(71).normal(size=(20, 3))
    with pytest.raises(ValueError, match="label vectors must match"):
        score_clustering(data, np.zeros(n_truth, dtype=int), 2, restarts=2, seeds=(0,))


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


def test_importing_and_scoring_leave_scipy_optimize_unloaded():
    # scipy.optimize costs about 17 MB of RSS in every process that loads it;
    # the ACC matching runs on scipy.sparse.csgraph instead.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import acsl\n"
        "from acsl.evaluation import score_clustering\n"
        "data = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])\n"
        "accs, _ = score_clustering(data, np.array([0, 0, 1, 1]), 2, restarts=2, seeds=(0,))\n"
        "assert accs.tolist() == [1.0], accs\n"
        "print([m for m in sys.modules if m.startswith('scipy.optimize')])\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.splitlines()[-1] == "[]"
