import numpy as np
import pytest

from acsl.errors import ConfigError
from acsl.evaluation import clustering_accuracy, kmeans
from acsl.synthetic import generate_synthetic

from helpers import check_count_rule


def test_generator_is_byte_deterministic():
    spec = [(20, 0.5, 0.3), (10, 1.0, 0.5)]
    a, la = generate_synthetic(12, 3, spec, seed=99)
    b, lb = generate_synthetic(12, 3, spec, seed=99)
    assert np.array_equal(la, lb)
    for va, vb in zip(a.views, b.views):
        assert va.tobytes() == vb.tobytes()


def test_generator_seeds_differ():
    a, _ = generate_synthetic(8, 2, [(10, 0.5, 0.5)], seed=0)
    b, _ = generate_synthetic(8, 2, [(10, 0.5, 0.5)], seed=1)
    assert not np.array_equal(a.views[0], b.views[0])


def test_informative_dimension_counts_are_exact():
    ds, _ = generate_synthetic(5, 2, [(50, 0.5, 0.2), (30, 0.5, 0.5)], seed=3)
    assert len(ds.informative_dims[0]) == 10
    assert len(ds.informative_dims[1]) == 15
    assert all(0 <= i < 50 for i in ds.informative_dims[0])
    stacked = ds.stacked_informative_dims()
    assert len(stacked) == 25
    assert np.array_equal(stacked[10:], ds.informative_dims[1] + 50)


def test_labels_are_grouped_per_cluster():
    _, labels = generate_synthetic(4, 3, [(5, 0.1, 1.0)], seed=0)
    assert np.array_equal(labels, np.repeat([0, 1, 2], 4))


def test_zero_noise_blobs_cluster_perfectly():
    ds, labels = generate_synthetic(10, 3, [(8, 0.0, 1.0)], seed=5)
    pred = kmeans(ds.views[0], 3, restarts=10, seed=0)
    assert clustering_accuracy(pred, labels) == 1.0


def test_zero_noise_true_dimensions_give_perfect_accuracy():
    # Clustering restricted to the planted informative columns is exact.
    ds, labels = generate_synthetic(12, 3, [(20, 0.0, 0.3), (15, 0.0, 0.4)], seed=8)
    dims = ds.stacked_informative_dims()
    pred = kmeans(ds.stacked[:, dims], 3, restarts=10, seed=0)
    assert clustering_accuracy(pred, labels) == 1.0


def test_noise_dimensions_carry_no_cluster_signal():
    ds, labels = generate_synthetic(30, 2, [(20, 0.0, 0.25)], seed=6)
    noise_dims = np.setdiff1d(np.arange(20), ds.informative_dims[0])
    noise = ds.views[0][:, noise_dims]
    gap = np.abs(noise[labels == 0].mean(axis=0) - noise[labels == 1].mean(axis=0))
    assert gap.max() < 1.5  # no separation beyond sampling error


@pytest.mark.parametrize("name, least, call", [
    ("n_per_cluster", 1, lambda v: generate_synthetic(v, 2, [(5, 0.1, 0.5)], seed=0)),
    ("k", 1, lambda v: generate_synthetic(3, v, [(5, 0.1, 0.5)], seed=0)),
    ("view dimension", 1, lambda v: generate_synthetic(3, 2, [(5, 0.1, 0.5), (v, 0.1, 0.5)],
                                                       seed=0)),
    ("seed", 0, lambda v: generate_synthetic(3, 2, [(5, 0.1, 0.5)], seed=v)),
], ids=["n_per_cluster", "k", "view_dimension", "seed"])
def test_generator_counts_follow_the_count_rule(name, least, call):
    dataset, labels = check_count_rule(call, name, least, 3)
    assert dataset.n == labels.size


def test_generator_validates_arguments():
    with pytest.raises(ConfigError):
        generate_synthetic(0, 2, [(5, 0.1, 0.5)], seed=0)
    with pytest.raises(ConfigError):
        generate_synthetic(3, 2, [], seed=0)
    with pytest.raises(ConfigError):
        generate_synthetic(3, 2, [(5, -0.1, 0.5)], seed=0)
    with pytest.raises(ConfigError):
        generate_synthetic(3, 2, [(5, 0.1, 1.5)], seed=0)
    for noise in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="noise_level must be nonnegative and finite"):
            generate_synthetic(3, 2, [(5, noise, 0.5)], seed=0)
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        generate_synthetic(3, 2, [(5, 0.1, 0.5)], seed=-1)


@pytest.mark.parametrize("flag", [False, np.bool_(False)], ids=["bool", "numpy_bool"])
def test_generator_rejects_flags_as_seeds_counts_and_levels(flag):
    # bool is an Integral, so seed=False once named a dataset synthetic-False.
    with pytest.raises(ConfigError, match=rf"^seed must be an integer, got {flag!r}$"):
        generate_synthetic(5, 2, [(10, 1.0, 0.5)], seed=flag)
    with pytest.raises(ConfigError, match=rf"^view dimension must be an integer, got {flag!r}$"):
        generate_synthetic(5, 2, [(flag, 1.0, 0.5)], seed=0)
    with pytest.raises(ConfigError, match="^noise_level must be nonnegative and finite"):
        generate_synthetic(5, 2, [(10, flag, 0.5)], seed=0)
    with pytest.raises(ConfigError, match="^informative_fraction must be in"):
        generate_synthetic(5, 2, [(10, 1.0, flag)], seed=0)


@pytest.mark.parametrize("value", ["a", None])
def test_generator_rejects_a_noise_level_or_fraction_that_is_not_a_real_number(value):
    with pytest.raises(ConfigError, match="^noise_level must be nonnegative and finite"):
        generate_synthetic(5, 2, [(10, value, 0.5)], seed=0)
    with pytest.raises(ConfigError, match="^informative_fraction must be in"):
        generate_synthetic(5, 2, [(10, 1.0, value)], seed=0)
