import json
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from acsl.data import DatasetManifest, save_dataset
from acsl.errors import ConfigError
from acsl.evaluation import clustering_accuracy, kmeans
from acsl.experiment import RunConfig, emit_trace, run_experiment, run_grid
from acsl.graph import build_view_affinity
from acsl.solver import Hyperparams, fit
from acsl.synthetic import generate_synthetic

from helpers import blob_problem, check_count_rule


@pytest.fixture()
def synthetic_manifest(tmp_path):
    ds, labels = generate_synthetic(
        20, 3, [(15, 0.3, 0.4), (10, 0.3, 0.5)], seed=101
    )
    path = save_dataset(ds, tmp_path / "data", labels=labels)
    return DatasetManifest.from_file(path)


def quick_config(out_dir, **kwargs):
    defaults = dict(
        hyperparams=Hyperparams(k=3, max_outer_iters=15),
        k_neighbors=8,
        l_grid=(10,),
        kmeans_restarts=5,
        eval_seeds=(0, 1, 2),
        output_dir=str(out_dir),
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


def test_end_to_end_populates_metrics_and_trace(synthetic_manifest, tmp_path):
    config = quick_config(tmp_path / "run")
    payload = run_experiment(synthetic_manifest, config)
    sel = payload["selections"][0]
    assert sel["l"] == 10 and len(sel["indices"]) == 10
    assert 0.0 <= sel["acc_mean"] <= 1.0
    assert 0.0 <= sel["nmi_mean"] <= 1.0
    assert sel["runs"] == 3
    assert payload["components_final"] >= 1
    assert (tmp_path / "run" / "results.json").exists()
    assert (tmp_path / "run" / "selected_l10.txt").exists()
    trace_lines = (tmp_path / "run" / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "iteration,objective,components,alpha"
    assert len(trace_lines) == payload["iterations"] + 2  # header + init + iters


def test_full_feature_selection_equals_raw_clustering(synthetic_manifest, tmp_path):
    # Selecting every dimension permutes columns, which k-means is blind to.
    from acsl.data import load_dataset, load_labels

    ds = load_dataset(synthetic_manifest)
    labels = load_labels(synthetic_manifest)
    config = quick_config(tmp_path / "run", l_grid=(ds.d,))
    payload = run_experiment(synthetic_manifest, config)
    sel = payload["selections"][0]
    assert sorted(sel["indices"]) == list(range(ds.d))

    accs = []
    for seed in config.eval_seeds:
        pred = kmeans(ds.stacked, 3, restarts=config.kmeans_restarts, seed=seed)
        accs.append(clustering_accuracy(pred, labels))
    assert sel["acc_mean"] == pytest.approx(float(np.mean(accs)), abs=1e-12)


def test_rerun_is_byte_identical(synthetic_manifest, tmp_path):
    config_a = quick_config(tmp_path / "a")
    config_b = quick_config(tmp_path / "b")
    run_experiment(synthetic_manifest, config_a)
    run_experiment(synthetic_manifest, config_b)
    for name in ("results.json", "trace.csv", "selected_l10.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_numpy_integer_counts_write_the_same_files_as_python_ints(synthetic_manifest,
                                                                 tmp_path):
    as_int = quick_config(tmp_path / "int", hyperparams=Hyperparams(k=3, max_outer_iters=15),
                          k_neighbors=4, l_grid=(6, 10), eval_seeds=(0, 1))
    as_numpy = quick_config(tmp_path / "numpy",
                            hyperparams=Hyperparams(k=np.int64(3), max_outer_iters=15),
                            k_neighbors=np.int64(4), l_grid=(6, np.int64(10)),
                            eval_seeds=tuple(np.arange(2)))
    payload = run_experiment(synthetic_manifest, as_numpy)
    assert payload == run_experiment(synthetic_manifest, as_int)
    assert all(type(i) is int for s in payload["selections"] for i in s["indices"])
    for name in ("results.json", "trace.csv", "selected_l6.txt", "selected_l10.txt"):
        assert ((tmp_path / "numpy" / name).read_bytes()
                == (tmp_path / "int" / name).read_bytes()), name


def test_missing_labels_yield_null_metrics(synthetic_manifest, tmp_path):
    unlabeled = DatasetManifest(
        name=synthetic_manifest.name,
        views=synthetic_manifest.views,
        labels_path=None,
        n=synthetic_manifest.n,
        standardize=synthetic_manifest.standardize,
        base_dir=synthetic_manifest.base_dir,
    )
    payload = run_experiment(unlabeled, quick_config(tmp_path / "run"))
    sel = payload["selections"][0]
    assert sel["acc_mean"] is None and sel["nmi_mean"] is None
    assert sel["runs"] == 0
    assert len(sel["indices"]) == 10


def test_oversized_l_grid_is_rejected(synthetic_manifest, tmp_path):
    config = quick_config(tmp_path / "run", l_grid=(26,))
    with pytest.raises(ConfigError) as exc:
        run_experiment(synthetic_manifest, config)
    assert "26" in str(exc.value)


def test_stage_context_is_prepended(synthetic_manifest, tmp_path):
    config = quick_config(tmp_path / "run", k_neighbors=60)  # more than n
    with pytest.raises(ConfigError) as exc:
        run_experiment(synthetic_manifest, config)
    assert "affinity graph" in str(exc.value)


def test_emit_trace_single_iteration_rows(tmp_path):
    graphs, x, labels, hp = blob_problem(102, max_outer_iters=1)
    state = fit(graphs, x, hp)
    path = tmp_path / "trace.csv"
    emit_trace(state, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3  # header, init, iteration 1
    assert lines[1].startswith("0,")
    assert lines[2].startswith("1,")


def test_trace_is_flat_after_convergence(tmp_path):
    graphs, x, labels, hp = blob_problem(
        103, n_views=1, noise=0.05, informative_fraction=1.0,
        alpha=10.0, beta=0.01, gamma=100.0,
    )
    state = fit(graphs, x, hp)
    assert state.converged
    tail = state.objective_trace[-2:]
    assert abs(tail[1] - tail[0]) <= 1e-6 * max(1.0, abs(tail[0]))


def test_grid_reports_best_point(synthetic_manifest, tmp_path):
    config = quick_config(
        tmp_path / "grid",
        hyperparams=Hyperparams(k=3, max_outer_iters=6),
        l_grid=(8,),
        eval_seeds=(0,),
    )
    summary = run_grid(synthetic_manifest, config, values=(0.1, 1.0), jobs=1)
    assert len(summary["points"]) == 8
    assert summary["best"] is not None
    best = summary["best"]
    accs = [p["best_acc_mean"] for p in summary["points"]]
    assert best["best_acc_mean"] == max(accs)
    assert (tmp_path / "grid" / "grid_summary.json").exists()
    sub = tmp_path / "grid" / best["output_dir"]
    assert (sub / "results.json").exists()


def test_grid_loads_dataset_and_builds_graphs_once(synthetic_manifest, tmp_path,
                                                   monkeypatch):
    import acsl.experiment as experiment

    calls = {"load_dataset": 0, "build_view_affinity": 0}

    def counting(name):
        original = getattr(experiment, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, name, wrapper)

    counting("load_dataset")
    counting("build_view_affinity")
    config = quick_config(
        tmp_path / "grid", hyperparams=Hyperparams(k=3, max_outer_iters=2),
        l_grid=(6,), eval_seeds=(0,),
    )
    summary = run_grid(synthetic_manifest, config, values=(0.5, 2.0), jobs=1)
    assert len(summary["points"]) == 8
    assert calls == {"load_dataset": 1, "build_view_affinity": 2}


def test_grid_requires_labels(synthetic_manifest, tmp_path):
    unlabeled = DatasetManifest(
        name="x", views=synthetic_manifest.views, labels_path=None,
        base_dir=synthetic_manifest.base_dir,
    )
    with pytest.raises(ConfigError):
        run_grid(unlabeled, quick_config(tmp_path / "grid"), values=(1.0,))


@pytest.mark.parametrize("values", [(1.0, 1.0000001), (0.5, 2.0, 0.5)])
def test_grid_points_sharing_a_directory_are_rejected(synthetic_manifest, tmp_path,
                                                      monkeypatch, values):
    import acsl.experiment as experiment

    def no_fit(*args):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr(experiment, "_grid_point", no_fit)
    with pytest.raises(ConfigError, match="would share the output directory grid_a"):
        run_grid(synthetic_manifest, quick_config(tmp_path / "grid"), values=values)
    assert not (tmp_path / "grid").exists()


def test_grid_rejects_an_invalid_point_before_loading(synthetic_manifest, tmp_path,
                                                     monkeypatch):
    import acsl.experiment as experiment

    def no_load(*args):
        raise AssertionError("the dataset was loaded")

    monkeypatch.setattr(experiment, "_load_problem", no_load)
    with pytest.raises(ConfigError, match="grid point grid_a1_b1_g-1: gamma must be"):
        run_grid(synthetic_manifest, quick_config(tmp_path / "grid"), values=(1.0, -1.0))
    assert not (tmp_path / "grid").exists()


def test_run_config_rejects_negative_eval_seeds(tmp_path):
    with pytest.raises(ConfigError, match="each eval_seeds entry must be non-negative"):
        quick_config(tmp_path, eval_seeds=(0, -1))


@pytest.mark.parametrize("kwargs, message", [
    ({"k_neighbors": 2.5}, "k_neighbors must be an integer, got 2.5"),
    ({"kmeans_restarts": 1.5}, "kmeans_restarts must be an integer, got 1.5"),
    ({"l_grid": (10, 2.5)}, "each l_grid entry must be an integer, got 2.5"),
    ({"eval_seeds": (0, 1.5)}, "each eval_seeds entry must be an integer, got 1.5"),
], ids=["k_neighbors", "kmeans_restarts", "l_grid", "eval_seeds"])
def test_run_config_rejects_non_integer_counts(tmp_path, kwargs, message):
    with pytest.raises(ConfigError, match=message):
        quick_config(tmp_path, **kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"kmeans_restarts": True}, "kmeans_restarts must be an integer, got True"),
    ({"k_neighbors": np.bool_(True)}, "k_neighbors must be an integer, got np.True_"),
    ({"l_grid": (10, True)}, "each l_grid entry must be an integer, got True"),
    ({"eval_seeds": (0, False)}, "each eval_seeds entry must be an integer, got False"),
], ids=["kmeans_restarts", "k_neighbors", "l_grid", "eval_seeds"])
def test_run_config_rejects_flags_as_counts(tmp_path, kwargs, message):
    with pytest.raises(ConfigError, match=message):
        quick_config(tmp_path, **kwargs)


def test_run_config_accepts_numpy_integer_counts(tmp_path):
    config = quick_config(tmp_path, k_neighbors=np.int64(8), kmeans_restarts=np.int32(5),
                          l_grid=(np.int64(10),), eval_seeds=(np.int64(0), np.uint8(1)))
    assert config.k_neighbors == 8


@pytest.mark.parametrize("name, least, in_tuple", [
    ("k_neighbors", 1, False), ("kmeans_restarts", 1, False),
    ("l_grid", 1, True), ("eval_seeds", 0, True),
])
def test_run_config_counts_follow_the_count_rule(tmp_path, name, least, in_tuple):
    def config(value):
        return quick_config(tmp_path, **{name: (value,) if in_tuple else value})
    assert check_count_rule(config, name, least, 3) == quick_config(tmp_path, **{
        name: (3,) if in_tuple else 3})


def test_grid_jobs_follow_the_count_rule(synthetic_manifest, tmp_path):
    def grid(jobs):
        config = quick_config(tmp_path / "grid", hyperparams=Hyperparams(k=3, max_outer_iters=4),
                              l_grid=(6,), eval_seeds=(0,))
        return run_grid(synthetic_manifest, config, values=(1.0,), jobs=jobs)
    assert len(check_count_rule(grid, "jobs", 1, 1)["points"]) == 1


def test_run_config_rejects_repeated_eval_seeds(tmp_path):
    with pytest.raises(ConfigError, match="eval_seeds must be distinct"):
        quick_config(tmp_path, eval_seeds=(0, 1, 0))


def test_grid_parallel_matches_serial(synthetic_manifest, tmp_path):
    config_s = quick_config(
        tmp_path / "gs", hyperparams=Hyperparams(k=3, max_outer_iters=4),
        l_grid=(6,), eval_seeds=(0,),
    )
    config_p = quick_config(
        tmp_path / "gp", hyperparams=Hyperparams(k=3, max_outer_iters=4),
        l_grid=(6,), eval_seeds=(0,),
    )
    serial = run_grid(synthetic_manifest, config_s, values=(0.5, 2.0), jobs=1)
    parallel = run_grid(synthetic_manifest, config_p, values=(0.5, 2.0), jobs=2)
    a = [{k: v for k, v in p.items() if k != "output_dir"} for p in serial["points"]]
    b = [{k: v for k, v in p.items() if k != "output_dir"} for p in parallel["points"]]
    assert a == b


def test_grid_workers_write_the_same_files_as_a_serial_grid(synthetic_manifest, tmp_path):
    # Workers get the problem once, at start-up; every file they write must
    # match the serial grid's byte for byte.
    runs = {}
    for jobs in (1, 2):
        config = quick_config(tmp_path / f"jobs{jobs}",
                              hyperparams=Hyperparams(k=3, max_outer_iters=4),
                              l_grid=(6,), eval_seeds=(0,))
        run_grid(synthetic_manifest, config, values=(0.5, 2.0), jobs=jobs)
        root = tmp_path / f"jobs{jobs}"
        runs[jobs] = {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
                      if p.is_file()}
    assert len([p for p in runs[1] if p.name == "results.json"]) == 8
    assert runs[1] == runs[2]


def test_importing_acsl_leaves_the_process_pool_unloaded():
    # concurrent.futures.process costs about 0.7 MB of RSS in every process
    # that loads it; only a parallel grid (jobs > 1) imports it.
    code = ("import sys\n"
            "import acsl\n"
            "print('concurrent.futures.process' in sys.modules)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.splitlines()[-1] == "False"


def test_results_json_is_versioned(synthetic_manifest, tmp_path):
    run_experiment(synthetic_manifest, quick_config(tmp_path / "run"))
    payload = json.loads((tmp_path / "run" / "results.json").read_text())
    assert payload["schema_version"] == 1
    assert "diagnostics" in payload
    assert "negative_weight_fraction" in payload["diagnostics"]
    assert "s_diagonal_mass" in payload["diagnostics"]


@pytest.mark.parametrize("kwargs, message", [
    ({"values": ()}, "grid values must not be empty"),
    ({"jobs": 0}, "jobs must be at least 1, got 0"),
    ({"jobs": -2}, "jobs must be at least 1, got -2"),
    ({"jobs": 1.5}, "jobs must be an integer, got 1.5"),
])
def test_grid_rejects_no_values_or_jobs_below_one_before_loading(
    synthetic_manifest, tmp_path, monkeypatch, kwargs, message
):
    import acsl.experiment as experiment

    def no_load(*args):
        raise AssertionError("the dataset was loaded")

    monkeypatch.setattr(experiment, "_load_problem", no_load)
    with pytest.raises(ConfigError, match=message):
        run_grid(synthetic_manifest, quick_config(tmp_path / "grid"), **kwargs)
    assert not (tmp_path / "grid").exists()
