"""acsl benchmark: one workload per process, timed end to end or traced.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload {highdim,largen} --seed N \
        --seconds S --trace {0,1}

It imports acsl from src/ of that checkout and writes scratch files under
.perfbench_out/. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it wraps every public function of every layer and reports
per-layer metrics from the spans. The last line of standard output is the
result as one JSON object; the line before it records the environment and
the timing detail.
"""

import argparse
import json
import os
from pathlib import Path
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# BLAS runs on one thread so that timings do not depend on how many cores
# the machine has free; set before numpy loads.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Reserved for re-checking a claimed gain on a seed nobody tuned against.
HELDOUT_SEED = 7919

# A run stops taking new operations after this many seconds even when it
# has not reached its workload's minimum, so it always ends in time.
MAX_LOOP_S = 120.0


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(quantile, value) of the highest percentile with at least ten
    samples beyond it, or None when that would not lie above the median
    (fewer than 20 samples)."""
    if len(samples) < 20:
        return None
    ordered = sorted(samples)
    rank = len(ordered) - 10
    return rank / len(ordered), ordered[rank - 1]


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "acsl").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_acsl_lines": src_lines,
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
    }


class FitCapture:
    """Collects the SolverState returned by every acsl fit, wherever in the
    package it was called from, so each can be checked."""

    def __init__(self):
        import acsl.solver
        import spans

        original = acsl.solver.fit
        self.states = []

        def capturing(*args, **kwargs):
            state = original(*args, **kwargs)
            self.states.append(state)
            return state

        capturing.__name__ = original.__name__
        capturing.__module__ = original.__module__
        spans.rebind(original, capturing)

    def drain(self) -> list:
        states, self.states = self.states, []
        return states


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import acsl
    import checks
    import spans
    import workloads

    w = workloads.WORKLOADS[workload]
    run_dir = OUT / f"run-{workload}-{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    capture = FitCapture()
    tracer = spans.Tracer()
    if trace:
        tracer.install()

    setup_times, fit_times, traced_times, outcomes = [], [], [], []
    attempted = failed = 0
    violations = []
    start = perf_counter()
    try:
        for index in range(10 ** 6):
            elapsed = perf_counter() - start
            if elapsed >= MAX_LOOP_S or (elapsed >= seconds and index >= workloads.MIN_DATASETS):
                break
            with tracer.span("bench.setup"):
                t0 = perf_counter()
                prep = workloads.setup(w, seed, index, run_dir)
                setup_times.append(perf_counter() - t0)
            if index == 0:
                tracer.uninstall()
                workloads.warm_up(prep)
                capture.drain()
            # In a traced run every other operation runs with tracing off,
            # so the run measures its own tracing overhead.
            traced = trace and index % 2 == 1
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
            attempted += 1
            try:
                with tracer.span("bench.op" if traced else "bench.untraced_op"):
                    t0 = perf_counter()
                    result = workloads.run_op(prep)
                    (traced_times if traced else fit_times).append(perf_counter() - t0)
            except acsl.AcslError as exc:
                failed += 1
                violations.append(f"operation {index} raised {exc!r}")
                capture.drain()
                continue
            finally:
                if trace:
                    tracer.install()
            with tracer.span("bench.check"):
                outcome = workloads.evaluate(prep, result, capture.drain())
            if outcome.violations:
                failed += 1
                violations += [f"operation {index}: {v}" for v in outcome.violations]
            if not outcomes:
                first = (prep.manifest, prep.dataset.n, prep.dataset.d)
            else:
                # Only the first dataset is read again, by the repeat.
                shutil.rmtree(run_dir / f"data-{index}", ignore_errors=True)
            outcomes.append(outcome)
            # Free this operation's data before the next set-up, so that the
            # peak memory does not depend on when the collector runs.
            del prep, result
        if not outcomes:
            raise SystemExit(f"every operation failed: {violations[:3]}")
        # Repeat the first operation's fit and require the same answer.
        attempted += 1
        manifest, n, d = first
        with tracer.span("bench.repeat"):
            try:
                bad = workloads.repeat_violations(manifest, outcomes[0], run_dir / "repeat")
            except acsl.AcslError as exc:
                bad = [f"raised {exc!r}"]
        for state in capture.drain():
            bad += checks.state_violations(state, n, d, workloads.HYPERPARAMS.k)
        if bad:
            failed += 1
            violations += [f"repeat: {v}" for v in bad]
    finally:
        tracer.uninstall()
        shutil.rmtree(run_dir, ignore_errors=True)

    quality = outcomes[:workloads.MIN_DATASETS]
    fits = [f for o in outcomes for f in o.fits]
    result = {
        "setup_times": setup_times,
        "fit_times": fit_times,
        "traced_times": traced_times,
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
        "acc": statistics.fmean(o.acc for o in quality),
        "nmi": statistics.fmean(o.nmi for o in quality),
        "planted_precision": statistics.fmean(o.precision for o in quality),
        "fits": fits,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        tracer.save(OUT / f"spans-{workload}.npz")
        result["spans"] = tracer.spans
    return result


def end_to_end(r: dict) -> dict:
    return {
        "setup_s": (statistics.median(r["setup_times"]), "s"),
        "fit_s": (statistics.median(r["fit_times"]), "s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
        "acc": (r["acc"], "fraction"),
        "nmi": (r["nmi"], "fraction"),
        "planted_precision": (r["planted_precision"], "fraction"),
    }


# Per traced operation: self seconds of these spans...
SELF_PER_OP = ("solver.initialize", "solver.update_p", "solver.update_f",
               "solver.update_s", "solver.update_w", "solver.objective")
# ...self seconds and calls of these...
COUNTED_PER_OP = ("numerics.solve_spd", "numerics.smallest_k_eigen",
                  "numerics.project_simplex_columns", "numerics.symmetrized",
                  "graph.laplacian_of", "graph.connected_components")
# ...and the total duration of these, children included.
INCLUSIVE_PER_OP = ("solver.fit", "solver.update_p", "solver.update_f",
                    "solver.update_s", "solver.update_w")
# Layers that run inside every operation of every workload.
LAYERS_PER_OP = ("solver", "numerics", "graph")
# Functions that run outside the timed operation, by the benchmark span
# they run under: self seconds, and calls where named, per such span. One
# set-up and one check come with every operation; the repeat runs once.
OUTSIDE_OPS = {
    "bench.setup": ("synthetic.generate_synthetic", "data.save_dataset", "data.write_matrix",
                    "data.load_dataset", "graph.build_view_affinity",
                    "experiment.build_graphs"),
    "bench.check": ("evaluation.kmeans", "evaluation.score_clustering",
                    "selection.rank_features"),
    "bench.repeat": ("experiment.run_experiment", "experiment.emit_trace"),
}
COUNTED_OUTSIDE_OPS = ("evaluation.kmeans", "experiment.run_experiment")


def per_layer(r: dict) -> dict:
    import spans

    summary = spans.summarize(r["spans"])
    op = summary["bench.op"]
    ops = max(op["roots"], 1)
    m = {}
    for name in SELF_PER_OP + COUNTED_PER_OP:
        m[f"{name}_s"] = (op["self"][name] / ops, "s")
    for name in COUNTED_PER_OP:
        m[f"{name}_calls"] = (op["calls"][name] / ops, "count")
    for name in INCLUSIVE_PER_OP:
        m[f"{name}_incl_s"] = (op["incl"][name] / ops, "s")
    for layer in LAYERS_PER_OP:
        m[f"{layer}_s"] = (sum(v for k, v in op["self"].items()
                               if k.startswith(layer + ".")) / ops, "s")
    for root, names in OUTSIDE_OPS.items():
        agg = summary[root]
        for name in names:
            m[f"{name}_s"] = (agg["self"][name] / max(agg["roots"], 1), "s")
            if name in COUNTED_OUTSIDE_OPS:
                m[f"{name}_calls"] = (agg["calls"][name] / max(agg["roots"], 1), "count")
    for name in ("solve_spd", "smallest_k_eigen"):
        m[f"numerics.{name}_gflop"] = (op["flop"][f"numerics.{name}"] / ops / 1e9, "GFLOP")
    # The solve_spd calls of the IRLS loop (d x d) and of update_w (V x V),
    # with their children (symmetrized).
    for block, calls, seconds in (("update_p", "irls_steps", "irls_solve_s"),
                                  ("update_w", "update_w_solves", "update_w_solve_s")):
        key = ("numerics.solve_spd", f"solver.{block}")
        m[f"solver.{calls}"] = (op["parent_calls"][key] / ops, "count")
        m[f"solver.{seconds}"] = (op["parent_incl"][key] / ops, "s")
    fit_time = op["incl"]["solver.fit"]
    fit_calls = max(op["calls"]["solver.fit"], 1)
    iters = [f[0] for f in r["fits"]]
    m["solver.outer_iters"] = (statistics.fmean(iters), "count")
    m["solver.converged"] = (statistics.fmean(float(f[1]) for f in r["fits"]), "fraction")
    m["solver.components_final"] = (statistics.fmean(f[2] for f in r["fits"]), "count")
    m["solver.final_objective"] = (statistics.fmean(f[3] for f in r["fits"]), "value")
    m["solver.outer_iter_ms"] = (1e3 * fit_time / fit_calls / statistics.fmean(iters), "ms")
    # Share of fit wall time spent inside the layer spans below it.
    m["solver.fit_coverage"] = (1.0 - op["self"]["solver.fit"] / max(fit_time, 1e-30),
                                "fraction")
    untraced = statistics.median(r["fit_times"])
    traced = statistics.median(r["traced_times"])
    m["trace.overhead_s"] = (traced - untraced, "s")
    m["trace.overhead_fraction"] = ((traced - untraced) / untraced, "fraction")
    m["trace.spans_per_op"] = (sum(op["calls"].values()) / ops, "count")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "acsl" / "__init__.py").is_file():
        print(f"acsl sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import acsl
    if Path(acsl.__file__).resolve().parent != SRC / "acsl":
        print(f"imported acsl from {acsl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    r = run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = per_layer(r) if args.trace else end_to_end(r)
    ops = r["fit_times"] + r["traced_times"]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        **{metric: {"median": statistics.median(times),
                    "quartiles": statistics.quantiles(times, n=4),
                    "tail": tail(times), "samples": len(times)}
           for metric, times in (("fit_s", r["fit_times"]), ("setup_s", r["setup_times"]))},
        "failed_fraction": r["failed"] / r["attempted"],
        "violations": r["violations"][:20],
        "operations": len(ops),
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
