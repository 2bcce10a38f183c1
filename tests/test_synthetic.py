import numpy as np
import pytest

from acsl.errors import ConfigError
from acsl.evaluation import clustering_accuracy, kmeans
from acsl.synthetic import generate_synthetic


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
