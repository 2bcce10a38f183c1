"""Feature scoring and selection from the learned projection matrix."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_finite, require_integers


@dataclass(frozen=True)
class FeatureRanking:
    """Per-dimension importance scores with their descending sort order.

    scores[i] is the l2 norm of projection row i; order sorts scores
    descending with stable index tie-breaking. view_of optionally labels
    each dimension with the view it came from.
    """

    scores: np.ndarray
    order: np.ndarray
    view_of: np.ndarray | None = None

    @property
    def d(self) -> int:
        return self.scores.size


def rank_features(p: np.ndarray, view_of: np.ndarray | None = None) -> FeatureRanking:
    """Score every feature dimension by the l2 norm of its projection row."""
    p = require_finite("projection matrix", p, 2)
    scores = np.sqrt(np.sum(p * p, axis=1))
    order = np.argsort(-scores, kind="stable")
    if view_of is not None:
        view_of = np.asarray(view_of)
        if view_of.shape != (p.shape[0],):
            raise ConfigError(f"view_of has shape {view_of.shape}, expected ({p.shape[0]},)")
    return FeatureRanking(scores=scores, order=order, view_of=view_of)


def select_top(ranking: FeatureRanking, l: int) -> np.ndarray:
    """Indices of the l best-scoring dimensions, in rank order."""
    require_integers("l", l, least=1)
    if l > ranking.d:
        raise ConfigError(f"l must be at most {ranking.d}, the dimension count, got {l}")
    return ranking.order[:l].copy()
