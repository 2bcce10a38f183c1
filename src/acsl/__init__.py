"""Adaptive collaborative similarity learning for unsupervised multi-view
feature selection: fuse per-view affinity graphs into one learned similarity
structure under a rank surrogate, learn a row-sparse projection, and score
feature dimensions by projection-row norms.
"""

from .data import DatasetManifest, MultiViewDataset, load_dataset, load_labels, save_dataset
from .errors import AcslError, ConfigError, NumericError
from .evaluation import clustering_accuracy, kmeans, nmi
from .experiment import RunConfig, emit_trace, run_experiment, run_grid
from .graph import AffinityGraph, build_view_affinity, connected_components, laplacian_of
from .selection import FeatureRanking, rank_features, select_top
from .solver import Hyperparams, SolverState, fit, initialize, objective
from .synthetic import generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "AcslError",
    "AffinityGraph",
    "ConfigError",
    "DatasetManifest",
    "FeatureRanking",
    "Hyperparams",
    "MultiViewDataset",
    "NumericError",
    "RunConfig",
    "SolverState",
    "build_view_affinity",
    "clustering_accuracy",
    "connected_components",
    "emit_trace",
    "fit",
    "generate_synthetic",
    "initialize",
    "kmeans",
    "laplacian_of",
    "load_dataset",
    "load_labels",
    "nmi",
    "objective",
    "rank_features",
    "run_experiment",
    "run_grid",
    "save_dataset",
    "select_top",
    "__version__",
]
