"""The benchmark's workloads: how each builds its inputs from the run seed,
what one timed operation is, and how its outputs are checked.

Every workload runs in one process, one operation after another with one
caller (a closed loop). Operation i of a run works on its own synthetic
dataset, drawn from (run seed, i), so the quality metrics average over
several datasets and do not hinge on one draw.
"""

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import acsl
from acsl import Hyperparams, RunConfig

import checks


# Settings every workload shares.
HYPERPARAMS = Hyperparams(k=3, alpha=1.0, max_outer_iters=4)
SELECTED = 30  # l, the size of the evaluated top-l selection
MIN_DATASETS = 16  # operations (one dataset each) every run completes
KMEANS_RESTARTS = 10
EVAL_SEEDS = tuple(range(5))
K_NEIGHBORS = 10


@dataclass(frozen=True)
class Workload:
    """One set of inputs; the call the benchmark times on them is one
    acsl.fit.

    views holds one (dims, noise level, informative fraction) per view.
    """

    name: str
    n_per_cluster: int
    views: tuple


# Sizes and the iteration cap keep one operation near a second, so a run of
# 50 s holds enough operations for a steady median. Noise levels keep acc,
# nmi and planted_precision below 1 so that a change can move them either
# way.
WORKLOADS = {w.name: w for w in (
    # d >> n: the d x d IRLS factorizations in update_p dominate.
    Workload("highdim", n_per_cluster=50, views=((300, 2.5, 0.05), (300, 3.0, 0.05))),
    # n >> d: the n x n eigensolve, the per-column update_w loop, the simplex
    # projection and the dense (V, n, n) stack dominate. The third view is
    # twice as noisy, which keeps acc clearly below 1.
    Workload("largen", n_per_cluster=300, views=((40, 6.0, 0.25),) * 2 + ((40, 12.0, 0.25),)),
)}


def run_config(output_dir: Path) -> RunConfig:
    return RunConfig(hyperparams=HYPERPARAMS, k_neighbors=K_NEIGHBORS, l_grid=(SELECTED,),
                     kmeans_restarts=KMEANS_RESTARTS, eval_seeds=EVAL_SEEDS,
                     output_dir=str(output_dir))


def dataset_seed(run_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([run_seed, index]).generate_state(1)[0])


@dataclass
class Prepared:
    """Inputs of one operation, as the library sees them after set-up."""

    manifest: acsl.DatasetManifest
    dataset: acsl.MultiViewDataset
    labels: np.ndarray
    graphs: list
    planted: np.ndarray  # stacked indices of the planted informative dims


def setup(w: Workload, run_seed: int, index: int, out_dir: Path) -> Prepared:
    """Generate dataset `index`, write it with its manifest, read it back
    (z-scoring the views) and build the view graphs."""
    generated, labels = acsl.generate_synthetic(
        w.n_per_cluster, HYPERPARAMS.k, list(w.views), seed=dataset_seed(run_seed, index))
    path = acsl.save_dataset(generated, out_dir / f"data-{index}", labels)
    manifest = acsl.DatasetManifest.from_file(path)
    dataset = acsl.load_dataset(manifest)
    graphs = acsl.experiment.build_graphs(dataset, K_NEIGHBORS)
    return Prepared(manifest, dataset, acsl.load_labels(manifest), graphs,
                    generated.stacked_informative_dims())


def warm_up(prep: Prepared) -> None:
    """Run a one-iteration fit and one k-means untimed, so that first-call
    costs (lazy imports, BLAS start-up) fall outside the timed calls."""
    acsl.fit(prep.graphs, prep.dataset.stacked, replace(HYPERPARAMS, max_outer_iters=1))
    acsl.kmeans(prep.dataset.stacked[:, :SELECTED], HYPERPARAMS.k, restarts=1)


def run_op(prep: Prepared):
    """The timed call. Returns its result for `evaluate`."""
    return acsl.fit(prep.graphs, prep.dataset.stacked, HYPERPARAMS)


@dataclass
class Outcome:
    """What one operation produced, reduced to what the benchmark reports."""

    violations: list
    acc: float
    nmi: float
    precision: float
    reference: tuple  # (indices, final objective, acc) to repeat
    fits: list  # (iterations, converged, components, final objective) per fit


def evaluate(prep: Prepared, state, states: list) -> Outcome:
    """Check one operation's outputs (`state`, and every fit caught in
    `states`) and score its selection."""
    dataset = prep.dataset
    violations = []
    for s in states:
        violations += checks.state_violations(s, dataset.n, dataset.d, HYPERPARAMS.k)
    fits = [(s.iteration, s.converged, s.components_trace[-1], s.objective_trace[-1])
            for s in states]
    ranking = acsl.rank_features(state.p, view_of=dataset.view_of)
    top = acsl.select_top(ranking, SELECTED)
    accs, nmis = acsl.evaluation.score_clustering(
        dataset.stacked[:, top], prep.labels, HYPERPARAMS.k, KMEANS_RESTARTS, EVAL_SEEDS)
    acc = float(accs.mean())
    return Outcome(violations, acc, float(nmis.mean()), checks.precision(top, prep.planted),
                   (top.tolist(), state.objective_trace[-1], acc), fits)


def repeat_violations(manifest: acsl.DatasetManifest, outcome: Outcome, out_dir: Path) -> list:
    """Repeat an operation's fit through acsl.run_experiment, with the same
    inputs and hyperparameters, and require the same selection, a
    bit-identical final objective and the same accuracy."""
    top, final, acc = outcome.reference
    payload = acsl.run_experiment(manifest, run_config(out_dir))
    selection = payload["selections"][0]
    bad = []
    if selection["indices"] != list(top):
        bad.append("repeated fit selected different dimensions")
    if payload["final_objective"] != final:
        bad.append(f"repeated fit ended at objective {payload['final_objective']!r}, "
                   f"first at {final!r}")
    if selection["acc_mean"] != acc:
        bad.append("repeated evaluation gave a different accuracy")
    return bad
