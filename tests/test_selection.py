import numpy as np
import pytest

from acsl.errors import ConfigError
from acsl.selection import rank_features, select_top

from helpers import check_array_rule, check_count_rule


def test_single_active_feature_ranks_first():
    p = np.zeros((6, 3))
    p[4] = [1.0, -2.0, 0.5]
    ranking = rank_features(p)
    assert ranking.order[0] == 4
    assert ranking.scores[4] == pytest.approx(np.sqrt(1 + 4 + 0.25))


def test_zero_projection_gives_identity_order():
    ranking = rank_features(np.zeros((5, 2)))
    assert np.array_equal(ranking.order, np.arange(5))
    assert np.all(ranking.scores == 0.0)


def test_scores_match_row_norm_oracle():
    rng = np.random.default_rng(60)
    p = rng.normal(size=(40, 4))
    ranking = rank_features(p)
    for i in range(40):
        expected = np.sqrt(sum(p[i, j] ** 2 for j in range(4)))
        assert abs(ranking.scores[i] - expected) <= 1e-12
    assert np.all(np.diff(ranking.scores[ranking.order]) <= 1e-15)


def test_stable_tie_break_prefers_lower_index():
    p = np.array([[1.0], [2.0], [1.0]])
    ranking = rank_features(p)
    assert np.array_equal(ranking.order, [1, 0, 2])


def test_select_top_hand_example():
    scores = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
    ranking = rank_features(scores[:, None])
    assert np.array_equal(select_top(ranking, 3), [0, 2, 4])
    assert set(select_top(ranking, 3).tolist()) == {0, 2, 4}


def test_select_top_boundaries():
    ranking = rank_features(np.arange(8.0)[:, None])
    assert np.array_equal(np.sort(select_top(ranking, 8)), np.arange(8))
    assert select_top(ranking, 1)[0] == 7  # largest score


def test_select_top_rejects_bad_l():
    ranking = rank_features(np.ones((4, 1)))
    with pytest.raises(ValueError):
        select_top(ranking, 0)
    with pytest.raises(ValueError):
        select_top(ranking, 5)


def test_select_top_count_follows_the_count_rule():
    ranking = rank_features(np.arange(4.0)[:, None])
    assert check_count_rule(lambda v: select_top(ranking, v), "l", 1, 2).tolist() == [3, 2]
    with pytest.raises(ConfigError, match="l must be at most 4"):
        select_top(ranking, 5)


def test_rank_features_validates_input():
    with pytest.raises(ValueError):
        rank_features(np.ones(3))
    with pytest.raises(ValueError):
        rank_features(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        rank_features(np.ones((3, 2)), view_of=np.zeros(2))


def test_rank_features_projection_follows_the_array_rule():
    check_array_rule(rank_features, "projection matrix", 2)
    with pytest.raises(ConfigError, match=r"view_of has shape \(2,\), expected \(3,\)"):
        rank_features(np.ones((3, 2)), view_of=np.zeros(2))


def test_view_labels_are_carried():
    view_of = np.array([0, 0, 1, 1, 1])
    ranking = rank_features(np.ones((5, 2)), view_of=view_of)
    assert np.array_equal(ranking.view_of, view_of)
