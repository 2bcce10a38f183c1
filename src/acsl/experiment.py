"""Experiment orchestration: load a manifest, fit the solver, rank and
select features, evaluate selections by clustering, and emit result files.

Every emitted file is a deterministic function of (manifest bytes, config,
seeds), written in the one format of `data.write_json` and
`data.write_lines`, with no timestamps.
"""

from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
import itertools
from pathlib import Path

import numpy as np

from .data import (
    FLOAT_FORMAT,
    DatasetManifest,
    MultiViewDataset,
    load_dataset,
    load_labels,
    write_json,
    write_lines,
)
from .errors import ConfigError, NumericError, require_integers
from .evaluation import score_clustering
from .graph import build_view_affinity
from .selection import rank_features, select_top
from .solver import Hyperparams, SolverState, fit

RESULTS_SCHEMA_VERSION = 1

# Decade grid matching the usual hyperparameter sweep range.
DEFAULT_GRID = tuple(10.0 ** e for e in range(-4, 5))


@dataclass(frozen=True)
class RunConfig:
    """Everything an experiment run needs besides the dataset itself."""

    hyperparams: Hyperparams
    k_neighbors: int = 10
    l_grid: tuple[int, ...] | None = None  # None selects all d dimensions
    kmeans_restarts: int = 50
    eval_seeds: tuple[int, ...] = tuple(range(10))
    output_dir: str = "results"

    def __post_init__(self):
        require_integers("k_neighbors", self.k_neighbors, least=1)
        require_integers("kmeans_restarts", self.kmeans_restarts, least=1)
        require_integers("each l_grid entry", *(self.l_grid or ()), least=1)
        require_integers("each eval_seeds entry", *self.eval_seeds, least=0)
        if not self.eval_seeds:
            raise ConfigError("at least one evaluation seed is required")
        if len(set(self.eval_seeds)) != len(self.eval_seeds):
            raise ConfigError(f"eval_seeds must be distinct, got {self.eval_seeds}")
        if self.l_grid is not None:
            if not self.l_grid or len(set(self.l_grid)) != len(self.l_grid):
                raise ConfigError(f"l_grid must be nonempty and distinct, got {self.l_grid}")


@contextmanager
def _stage(name: str):
    """Re-raise package errors with the failing stage prepended."""
    try:
        yield
    except (ConfigError, NumericError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def emit_trace(state: SolverState, path: str | Path) -> None:
    """Write the convergence trace as CSV (iteration, objective,
    components, alpha), one row per recorded outer iteration including the
    initial state."""
    lines = ["iteration,objective,components,alpha"]
    rows = zip(state.objective_trace, state.components_trace, state.alpha_trace)
    for i, (obj, comps, alpha) in enumerate(rows):
        lines.append(f"{i},{FLOAT_FORMAT % obj},{comps},{FLOAT_FORMAT % alpha}")
    write_lines(path, lines)


def build_graphs(dataset: MultiViewDataset, k_neighbors: int):
    graphs = []
    for i, view in enumerate(dataset.views):
        with _stage(f"building affinity graph for view {i}"):
            graphs.append(build_view_affinity(view, k_neighbors))
    return graphs


def _solver_diagnostics(state: SolverState) -> dict:
    s = state.s.matrix
    return {
        "negative_weight_fraction": float(np.mean(state.w < 0)),
        "s_diagonal_mass": float(np.trace(s) / s.shape[0]),
    }


def fit_summary(state: SolverState) -> dict:
    """How a fit ended, as fit.json and results.json both report it."""
    return {
        "converged": state.converged,
        "iterations": state.iteration,
        "final_objective": float(state.objective_trace[-1]),
        "components_final": int(state.components_trace[-1]),
    }


def _load_problem(manifest: DatasetManifest, k_neighbors: int):
    """(dataset, labels or None, view graphs): all a fit needs that does not
    depend on alpha, beta or gamma."""
    with _stage("loading dataset"):
        dataset = load_dataset(manifest)
        labels = load_labels(manifest)
        if labels is not None and labels.size != dataset.n:
            raise ConfigError(f"{labels.size} labels for {dataset.n} samples")
    return dataset, labels, build_graphs(dataset, k_neighbors)


def _staged_fit(graphs, x: np.ndarray, hp: Hyperparams) -> SolverState:
    """``fit`` in the "fitting" stage, so its errors name the stage."""
    with _stage("fitting"):
        return fit(graphs, x, hp)


def run_experiment(manifest: DatasetManifest, config: RunConfig) -> dict:
    """Full pipeline on one dataset; returns the results payload.

    Writes results.json, trace.csv, and selected_l{l}.txt under
    config.output_dir. Clustering metrics require labels in the manifest;
    without them the selections carry indices only.
    """
    return _run_problem(_load_problem(manifest, config.k_neighbors), config)


def _run_problem(problem, config: RunConfig) -> dict:
    """``run_experiment`` on a problem from ``_load_problem``."""
    dataset, labels, graphs = problem
    out = Path(config.output_dir)
    x = dataset.stacked

    l_grid = config.l_grid if config.l_grid is not None else (dataset.d,)
    bad = [l for l in l_grid if l > dataset.d]
    if bad:
        raise ConfigError(f"l_grid entries {bad} exceed the {dataset.d} stacked dimensions")

    state = _staged_fit(graphs, x, config.hyperparams)
    emit_trace(state, out / "trace.csv")

    ranking = rank_features(state.p, view_of=dataset.view_of)

    selections = []
    for l in l_grid:
        indices = select_top(ranking, l)
        entry = {"l": int(l), "indices": [int(i) for i in indices]}
        write_lines(out / f"selected_l{l}.txt", entry["indices"])
        if labels is not None:
            with _stage(f"evaluating selection l={l}"):
                accs, nmis = score_clustering(
                    x[:, indices],
                    labels,
                    config.hyperparams.k,
                    config.kmeans_restarts,
                    config.eval_seeds,
                )
            entry.update(acc_mean=float(accs.mean()), acc_std=float(accs.std()),
                         nmi_mean=float(nmis.mean()), nmi_std=float(nmis.std()),
                         runs=len(config.eval_seeds))
        else:
            entry.update(acc_mean=None, acc_std=None, nmi_mean=None, nmi_std=None,
                         runs=0)
        selections.append(entry)

    payload = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "dataset": dataset.name,
        "n": dataset.n,
        "d": dataset.d,
        "view_dims": dataset.dims,
        "hyperparams": asdict(config.hyperparams),
        "config": {
            "k_neighbors": config.k_neighbors,
            "l_grid": [int(l) for l in l_grid],
            "kmeans_restarts": config.kmeans_restarts,
            "eval_seeds": list(config.eval_seeds),
        },
        **fit_summary(state),
        "diagnostics": _solver_diagnostics(state),
        "selections": selections,
    }
    write_json(out / "results.json", payload)
    return payload


def _grid_point_name(alpha: float, beta: float, gamma: float) -> str:
    return f"grid_a{alpha:g}_b{beta:g}_g{gamma:g}"


def _grid_point(problem, config: RunConfig) -> dict:
    payload = _run_problem(problem, config)
    best_acc = max(
        (s["acc_mean"] for s in payload["selections"] if s["acc_mean"] is not None),
        default=None,
    )
    hp = config.hyperparams
    return {
        "alpha": hp.alpha,
        "beta": hp.beta,
        "gamma": hp.gamma,
        "best_acc_mean": best_acc,
        "converged": payload["converged"],
        "output_dir": Path(config.output_dir).name,
    }


# The problem a grid worker process fits, handed over once when it starts.
_worker_problem = None


def _start_worker(problem) -> None:
    global _worker_problem
    _worker_problem = problem


def _worker_grid_point(config: RunConfig) -> dict:
    return _grid_point(_worker_problem, config)


def run_grid(
    manifest: DatasetManifest,
    config: RunConfig,
    values: tuple[float, ...] = DEFAULT_GRID,
    jobs: int = 1,
) -> dict:
    """Sweep alpha, beta, gamma over `values`, one experiment per point.

    Each point writes to its own subdirectory, named from the values to 6
    significant digits. Points that would share a name, or whose
    hyperparameters are invalid, are a ConfigError before the data is
    loaded. The dataset is then loaded and its view graphs built once for
    all points, which run in a process pool when jobs > 1: each worker
    receives the problem once, when it starts, and then one point per task.
    The summary reports every point and the best by mean clustering
    accuracy (ties keep the earliest point in grid order). An empty `values`, or a `jobs`
    that is not an integer or is below 1, is a ConfigError.
    """
    if not values:
        raise ConfigError("grid values must not be empty")
    require_integers("jobs", jobs, least=1)
    names = {}
    configs = []
    for point in itertools.product(values, values, values):
        name = _grid_point_name(*point)
        if name in names:
            raise ConfigError(
                f"grid points {names[name]} and {point} would share the output "
                f"directory {name}; grid values must differ at 6 significant digits"
            )
        names[name] = point
        alpha, beta, gamma = point
        with _stage(f"grid point {name}"):
            hp = replace(config.hyperparams, alpha=alpha, beta=beta, gamma=gamma)
        configs.append(replace(config, hyperparams=hp,
                               output_dir=str(Path(config.output_dir) / name)))
    problem = _load_problem(manifest, config.k_neighbors)
    if problem[1] is None:
        raise ConfigError("grid mode needs labels to rank configurations by accuracy")
    if jobs > 1:
        # Imported here: loading the process pool costs every process that
        # imports acsl about 0.7 MB, and only a parallel grid uses it.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs, initializer=_start_worker,
                                 initargs=(problem,)) as pool:
            points = list(pool.map(_worker_grid_point, configs))
    else:
        points = [_grid_point(problem, c) for c in configs]

    best = max(
        (p for p in points if p["best_acc_mean"] is not None),
        key=lambda p: p["best_acc_mean"],
        default=None,
    )
    summary = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "grid_values": list(values),
        "points": points,
        "best": best,
    }
    write_json(Path(config.output_dir) / "grid_summary.json", summary)
    return summary
