"""Command-line interface.

Verbs: generate (synthetic datasets), fit (solver only), evaluate (full
selection + clustering pipeline), grid (hyperparameter sweep), trace
(convergence trace only). Exit codes: 0 success, 2 configuration or
manifest error, 3 numeric failure, 4 finished without converging (outputs
are still written).
"""

import argparse
from dataclasses import fields
import os
import sys
from pathlib import Path

from .data import FLOAT_FORMAT, DatasetManifest, save_dataset, write_json, write_lines
from .errors import ConfigError, NumericError
from .experiment import (
    DEFAULT_GRID,
    RunConfig,
    _load_problem,
    _staged_fit,
    emit_trace,
    fit_summary,
    run_experiment,
    run_grid,
)
from .selection import rank_features
from .solver import Hyperparams
from .synthetic import generate_synthetic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NOT_CONVERGED = 4

OUTPUT_DIR_ENV = "ACSL_OUTPUT_DIR"


def _parse_views(text: str) -> list[tuple[int, float, float]]:
    """Parse 'd:noise:frac[,d:noise:frac...]' view descriptions."""
    views = []
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) != 3:
            raise ConfigError(
                f"view description {part!r} must be dims:noise:informative_fraction"
            )
        try:
            views.append((int(fields[0]), float(fields[1]), float(fields[2])))
        except ValueError as exc:
            raise ConfigError(f"bad view description {part!r}: {exc}")
    return views


def _parse_list(text: str, kind: type) -> tuple:
    """Parse a comma-separated list of `kind` (int or float) values."""
    try:
        return tuple(kind(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"expected comma-separated {noun}, got {text!r}: {exc}")


def _output_dir(args) -> Path:
    if args.output_dir is not None:
        return Path(args.output_dir)
    return Path(os.environ.get(OUTPUT_DIR_ENV, "results"))


def _given(args, cls) -> dict:
    """Fields of dataclass cls set by flag; unset flags (SUPPRESS) keep its defaults."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _hyperparams(args) -> Hyperparams:
    return Hyperparams(k=args.clusters, **_given(args, Hyperparams))


def _run_config(args) -> RunConfig:
    given = _given(args, RunConfig)
    if "eval_seeds" in given:
        given["eval_seeds"] = _parse_list(given["eval_seeds"], int)
    given.update(l_grid=None if args.l_grid is None else _parse_list(args.l_grid, int),
                 output_dir=str(_output_dir(args)))
    return RunConfig(hyperparams=_hyperparams(args), **given)


def _add_hyperparam_flags(sub: argparse.ArgumentParser) -> None:
    unset = argparse.SUPPRESS
    sub.add_argument("--clusters", type=int, required=True, help="target cluster count k")
    sub.add_argument("--alpha", type=float, default=unset, help="rank-surrogate weight")
    sub.add_argument("--beta", type=float, default=unset, help="regression weight")
    sub.add_argument("--gamma", type=float, default=unset, help="row-sparsity weight")
    sub.add_argument("--epsilon", type=float, default=unset, help="reweighting smoothing")
    sub.add_argument("--max-outer-iters", type=int, default=unset)
    sub.add_argument("--tol-rel-objective", type=float, default=unset)
    sub.add_argument("--adaptive-alpha", action="store_true", default=unset,
                     help="double/halve alpha to steer the component count to k")
    sub.add_argument("--k-neighbors", type=int, default=unset)


def _add_output_dir_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output-dir", default=None,
                     help=f"output directory (default ${OUTPUT_DIR_ENV} or ./results)")


def _add_eval_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--l-grid", default=None,
                     help="comma-separated selected-feature counts (default: all)")
    sub.add_argument("--kmeans-restarts", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--eval-seeds", default=argparse.SUPPRESS,
                     help="comma-separated k-means evaluation seeds")


def _fit_state(args):
    hp = _hyperparams(args)
    k_neighbors = getattr(args, "k_neighbors", RunConfig.k_neighbors)
    dataset, _, graphs = _load_problem(DatasetManifest.from_file(args.manifest), k_neighbors)
    return dataset, _staged_fit(graphs, dataset.stacked, hp)


def cmd_generate(args) -> int:
    out = _output_dir(args)
    dataset, labels = generate_synthetic(
        args.n_per_cluster, args.clusters, _parse_views(args.views), args.seed
    )
    manifest_path = save_dataset(dataset, out, labels=labels, delimiter=args.delimiter)
    info = {
        "per_view": [[int(i) for i in idx] for idx in dataset.informative_dims],
        "stacked": [int(i) for i in dataset.stacked_informative_dims()],
    }
    write_json(out / "informative_dims.json", info)
    print(f"wrote {dataset.n}x[{','.join(str(d) for d in dataset.dims)}] dataset "
          f"to {manifest_path}")
    return EXIT_OK


def cmd_fit(args) -> int:
    out = _output_dir(args)
    dataset, state = _fit_state(args)
    emit_trace(state, out / "trace.csv")
    ranking = rank_features(state.p, view_of=dataset.view_of)
    lines = ["dimension,view,score"]
    for dim in ranking.order:
        lines.append(f"{dim},{dataset.view_of[dim]},{FLOAT_FORMAT % ranking.scores[dim]}")
    write_lines(out / "ranking.csv", lines)
    write_json(out / "fit.json", fit_summary(state))
    print(f"fit: converged={state.converged} iterations={state.iteration} "
          f"components={state.components_trace[-1]}")
    return EXIT_OK if state.converged else EXIT_NOT_CONVERGED


def cmd_evaluate(args) -> int:
    manifest = DatasetManifest.from_file(args.manifest)
    payload = run_experiment(manifest, _run_config(args))
    for sel in payload["selections"]:
        acc = "n/a" if sel["acc_mean"] is None else f"{sel['acc_mean']:.4f}"
        nmi_ = "n/a" if sel["nmi_mean"] is None else f"{sel['nmi_mean']:.4f}"
        print(f"l={sel['l']}: acc={acc} nmi={nmi_}")
    return EXIT_OK if payload["converged"] else EXIT_NOT_CONVERGED


def cmd_grid(args) -> int:
    manifest = DatasetManifest.from_file(args.manifest)
    values = DEFAULT_GRID if args.grid_values is None else _parse_list(args.grid_values, float)
    summary = run_grid(manifest, _run_config(args), values=values, jobs=args.jobs)
    best = summary["best"]
    if best is not None:
        print(f"best: alpha={best['alpha']:g} beta={best['beta']:g} "
              f"gamma={best['gamma']:g} acc={best['best_acc_mean']:.4f}")
    return EXIT_OK


def cmd_trace(args) -> int:
    _, state = _fit_state(args)
    out = Path(args.out)
    emit_trace(state, out)
    print(f"wrote {len(state.objective_trace)} trace rows to {out}")
    return EXIT_OK if state.converged else EXIT_NOT_CONVERGED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acsl",
        description="Multi-view feature selection via adaptive collaborative "
                    "similarity learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic multi-view dataset")
    gen.add_argument("--clusters", type=int, required=True)
    gen.add_argument("--n-per-cluster", type=int, required=True)
    gen.add_argument("--views", required=True,
                     help="per-view d:noise:informative_fraction, comma-separated")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--delimiter", default=",")
    _add_output_dir_flag(gen)
    gen.set_defaults(func=cmd_generate)

    fit_p = sub.add_parser("fit", help="fit the solver and write trace + ranking")
    fit_p.add_argument("manifest")
    _add_hyperparam_flags(fit_p)
    _add_output_dir_flag(fit_p)
    fit_p.set_defaults(func=cmd_fit)

    ev = sub.add_parser("evaluate", help="fit, select features, and score by clustering")
    ev.add_argument("manifest")
    _add_hyperparam_flags(ev)
    _add_output_dir_flag(ev)
    _add_eval_flags(ev)
    ev.set_defaults(func=cmd_evaluate)

    grid = sub.add_parser("grid", help="sweep alpha/beta/gamma and report the best")
    grid.add_argument("manifest")
    _add_hyperparam_flags(grid)
    _add_output_dir_flag(grid)
    _add_eval_flags(grid)
    grid.add_argument("--grid-values", default=None,
                      help="comma-separated values for each of alpha, beta, gamma")
    grid.add_argument("--jobs", type=int, default=1)
    grid.set_defaults(func=cmd_grid)

    tr = sub.add_parser("trace", help="fit and write only the convergence trace")
    tr.add_argument("manifest")
    _add_hyperparam_flags(tr)
    tr.add_argument("--out", default="trace.csv",
                    help="trace CSV path (default ./trace.csv); the only destination: "
                         f"trace takes no --output-dir and ignores ${OUTPUT_DIR_ENV}")
    tr.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
