import json
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

import acsl
from acsl.cli import main


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    code = main([
        "generate", "--clusters", "3", "--n-per-cluster", "15",
        "--views", "12:0.3:0.5,8:0.3:0.5", "--seed", "5",
        "--output-dir", str(out),
    ])
    assert code == 0
    return out


def test_generate_writes_dataset_and_manifest(dataset_dir):
    assert (dataset_dir / "manifest.json").exists()
    assert (dataset_dir / "view_0.csv").exists()
    assert (dataset_dir / "view_1.csv").exists()
    assert (dataset_dir / "labels.txt").exists()
    info = json.loads((dataset_dir / "informative_dims.json").read_text())
    assert len(info["per_view"]) == 2
    assert len(info["per_view"][0]) == 6
    assert len(info["stacked"]) == 10


def test_fit_writes_outputs_and_reports_convergence(dataset_dir, tmp_path):
    out = tmp_path / "fit"
    code = main([
        "fit", str(dataset_dir / "manifest.json"),
        "--clusters", "3", "--k-neighbors", "8", "--max-outer-iters", "10",
        "--output-dir", str(out),
    ])
    assert code in (0, 4)
    assert (out / "trace.csv").exists()
    assert (out / "ranking.csv").exists()
    summary = json.loads((out / "fit.json").read_text())
    assert (code == 0) == summary["converged"]
    ranking_lines = (out / "ranking.csv").read_text().splitlines()
    assert ranking_lines[0] == "dimension,view,score"
    assert len(ranking_lines) == 21  # header + 20 dimensions


def test_evaluate_writes_results(dataset_dir, tmp_path):
    out = tmp_path / "eval"
    code = main([
        "evaluate", str(dataset_dir / "manifest.json"),
        "--clusters", "3", "--k-neighbors", "8", "--max-outer-iters", "10",
        "--l-grid", "6", "--eval-seeds", "0,1", "--kmeans-restarts", "5",
        "--output-dir", str(out),
    ])
    assert code in (0, 4)
    payload = json.loads((out / "results.json").read_text())
    assert payload["selections"][0]["l"] == 6
    assert payload["selections"][0]["acc_mean"] is not None


def test_trace_verb_writes_csv(dataset_dir, tmp_path):
    target = tmp_path / "out" / "trace.csv"
    code = main([
        "trace", str(dataset_dir / "manifest.json"),
        "--clusters", "3", "--k-neighbors", "8", "--max-outer-iters", "5",
        "--out", str(target),
    ])
    assert code in (0, 4)
    lines = target.read_text().splitlines()
    assert lines[0] == "iteration,objective,components,alpha"
    assert len(lines) >= 2


def test_grid_values_that_share_a_directory_exit_2(dataset_dir, tmp_path, capsys):
    code = main([
        "grid", str(dataset_dir / "manifest.json"), "--clusters", "3",
        "--grid-values", "1,1.0000001", "--output-dir", str(tmp_path / "grid"),
    ])
    assert code == 2
    assert "would share the output directory" in capsys.readouterr().err
    assert not (tmp_path / "grid").exists()


def test_grid_verb_runs_small_sweep(dataset_dir, tmp_path):
    out = tmp_path / "grid"
    code = main([
        "grid", str(dataset_dir / "manifest.json"),
        "--clusters", "3", "--k-neighbors", "8", "--max-outer-iters", "4",
        "--l-grid", "6", "--eval-seeds", "0", "--kmeans-restarts", "3",
        "--grid-values", "0.1,10", "--jobs", "1",
        "--output-dir", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "grid_summary.json").read_text())
    assert len(summary["points"]) == 8


def test_missing_manifest_exits_2(tmp_path):
    code = main([
        "fit", str(tmp_path / "nope.json"), "--clusters", "3",
        "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2


def test_invalid_hyperparameter_exits_2(dataset_dir, tmp_path):
    code = main([
        "fit", str(dataset_dir / "manifest.json"),
        "--clusters", "3", "--alpha", "-1.0",
        "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2


def test_non_finite_hyperparameter_exits_2_before_loading(dataset_dir, tmp_path,
                                                          monkeypatch, capsys):
    def no_load(*args):
        raise AssertionError("the dataset was loaded")

    monkeypatch.setattr("acsl.cli._load_problem", no_load)
    code = main(["fit", str(dataset_dir / "manifest.json"), "--clusters", "3",
                 "--alpha", "nan", "--output-dir", str(tmp_path / "o")])
    assert code == 2
    assert "alpha must be positive and finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag", ["--alpha", "--beta", "--gamma"])
def test_weight_that_overflows_exits_3_in_the_fitting_stage(flag, dataset_dir, tmp_path,
                                                            capsys):
    code = main(["fit", str(dataset_dir / "manifest.json"), "--clusters", "3",
                 flag, "1e308", "--output-dir", str(tmp_path / "o")])
    assert code == 3
    assert "numeric failure: fitting: " in capsys.readouterr().err


def test_tiny_gamma_with_more_features_than_samples_exits_3_in_the_fitting_stage(tmp_path,
                                                                              capsys):
    # d = 40 > n = 12: K = I + X (gamma G)^-1 X^T overflows, and the solve
    # that factors it reports the overflow.
    data = tmp_path / "data"
    assert main(["generate", "--clusters", "3", "--n-per-cluster", "4",
                 "--views", "20:0.3:0.5,20:0.3:0.5", "--seed", "5",
                 "--output-dir", str(data)]) == 0
    capsys.readouterr()
    code = main(["fit", str(data / "manifest.json"), "--clusters", "3", "--k-neighbors", "5",
                 "--gamma", "1e-320", "--output-dir", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numeric failure: fitting: ") and "overflows" in err[0]


@pytest.mark.parametrize("alpha", ["1e40", "5e307"])
def test_alpha_too_large_for_the_simplex_exits_3_in_the_fitting_stage(alpha, dataset_dir,
                                                                      tmp_path, capsys):
    code = main(["fit", str(dataset_dir / "manifest.json"), "--clusters", "3",
                 "--alpha", alpha, "--output-dir", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numeric failure: fitting: outer iteration 1: S leaves the simplex")


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_non_finite_noise_level_exits_2_before_writing(noise, tmp_path, capsys):
    code = main(["generate", "--clusters", "3", "--n-per-cluster", "5",
                 "--views", f"6:{noise}:0.5", "--output-dir", str(tmp_path / "data")])
    assert code == 2
    assert "noise_level must be nonnegative and finite" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


class _Captured(Exception):
    pass


SET_FLAGS = ["--alpha", "2", "--beta", "3", "--gamma", "4", "--epsilon", "1e-6",
             "--max-outer-iters", "7", "--tol-rel-objective", "1e-5", "--adaptive-alpha",
             "--k-neighbors", "6"]
SET_EVAL_FLAGS = ["--kmeans-restarts", "5", "--eval-seeds", "3,4"]


@pytest.mark.parametrize("given", ["none", "all"])
@pytest.mark.parametrize("verb", ["fit", "evaluate", "grid", "trace"])
def test_each_flag_sets_its_field_and_unset_flags_keep_the_library_defaults(
    verb, given, dataset_dir, tmp_path, monkeypatch
):
    import acsl.cli as cli_module
    from acsl import Hyperparams, RunConfig

    seen = {}

    class Dataset:
        stacked = None

    def load(manifest, k_neighbors):
        seen["k_neighbors"] = k_neighbors
        return Dataset(), None, None

    def staged_fit(graphs, x, hp):
        seen["hp"] = hp
        raise _Captured

    def run(manifest, config, **_):
        seen["config"] = config
        raise _Captured

    monkeypatch.setattr(cli_module, "_load_problem", load)
    monkeypatch.setattr(cli_module, "_staged_fit", staged_fit)
    monkeypatch.setattr(cli_module, "run_experiment", run)
    monkeypatch.setattr(cli_module, "run_grid", run)
    monkeypatch.delenv(cli_module.OUTPUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    flags = []
    if given == "all":
        flags = SET_FLAGS + (SET_EVAL_FLAGS if verb in ("evaluate", "grid") else [])
    with pytest.raises(_Captured):
        main([verb, str(dataset_dir / "manifest.json"), "--clusters", "3", *flags])

    if given == "none":
        hp, config = Hyperparams(k=3), RunConfig(hyperparams=Hyperparams(k=3))
    else:
        hp = Hyperparams(k=3, alpha=2.0, beta=3.0, gamma=4.0, epsilon=1e-6,
                         max_outer_iters=7, tol_rel_objective=1e-5, adaptive_alpha=True)
        config = RunConfig(hyperparams=hp, k_neighbors=6, kmeans_restarts=5,
                           eval_seeds=(3, 4))
    if verb in ("fit", "trace"):
        assert seen == {"k_neighbors": config.k_neighbors, "hp": hp}
    else:
        assert seen == {"config": config}


def test_invalid_grid_point_exits_2_before_any_fit(dataset_dir, tmp_path, capsys):
    code = main([
        "grid", str(dataset_dir / "manifest.json"), "--clusters", "3",
        "--grid-values", "1,-1", "--output-dir", str(tmp_path / "grid"),
    ])
    assert code == 2
    assert "grid point grid_a1_b1_g-1: gamma must be positive" in capsys.readouterr().err
    assert not (tmp_path / "grid").exists()


def test_negative_eval_seed_exits_2_before_any_fit(dataset_dir, tmp_path, capsys):
    code = main([
        "evaluate", str(dataset_dir / "manifest.json"), "--clusters", "3",
        "--eval-seeds=-1", "--output-dir", str(tmp_path / "eval"),
    ])
    assert code == 2
    assert "each eval_seeds entry must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_k_neighbors_too_large_exits_2(dataset_dir, tmp_path):
    code = main([
        "fit", str(dataset_dir / "manifest.json"),
        "--clusters", "3", "--k-neighbors", "100",
        "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2


def test_output_dir_env_override(dataset_dir, tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("ACSL_OUTPUT_DIR", str(target))
    code = main([
        "fit", str(dataset_dir / "manifest.json"),
        "--clusters", "3", "--k-neighbors", "8", "--max-outer-iters", "3",
    ])
    assert code in (0, 4)
    assert (target / "trace.csv").exists()


def test_label_count_mismatch_exits_2_before_fitting(dataset_dir, tmp_path, capsys):
    # Without a declared n, only the data itself can tell that the label
    # file has one line too many; the check must come before the fit.
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    manifest["n"] = None
    (dataset_dir / "manifest.json").write_text(json.dumps(manifest))
    with open(dataset_dir / "labels.txt", "a") as fh:
        fh.write("0\n")
    out = tmp_path / "o"
    code = main([
        "evaluate", str(dataset_dir / "manifest.json"), "--clusters", "3",
        "--k-neighbors", "8", "--output-dir", str(out),
    ])
    assert code == 2
    assert "46 labels for 45 samples" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()
    assert not (out / "results.json").exists()


def test_numeric_failure_exits_3(dataset_dir, tmp_path, monkeypatch):
    import acsl.cli as cli_module
    from acsl.errors import NumericError

    def boom(args):
        raise NumericError("synthetic failure")

    monkeypatch.setattr(cli_module, "_fit_state", boom)
    code = main([
        "fit", str(dataset_dir / "manifest.json"), "--clusters", "3",
        "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 3


@pytest.mark.parametrize("verb", ["fit", "trace", "evaluate"])
def test_numeric_failure_in_the_solver_names_the_fitting_stage(
    verb, dataset_dir, tmp_path, monkeypatch, capsys
):
    import acsl.solver
    from acsl.errors import NumericError

    def boom(state, views):
        raise NumericError("synthetic failure")

    monkeypatch.setattr(acsl.solver, "update_w", boom)
    out = tmp_path / "o"
    dest = ["--out", str(out / "trace.csv")] if verb == "trace" else ["--output-dir", str(out)]
    code = main([
        verb, str(dataset_dir / "manifest.json"), "--clusters", "3",
        "--k-neighbors", "8", *dest,
    ])
    assert code == 3
    assert "fitting: outer iteration 1: synthetic failure" in capsys.readouterr().err


@pytest.mark.parametrize("verb,flag", [
    ("trace", "--output-dir"),  # --out is the trace's only destination
    ("fit", "--max-inner-iters"),  # fit reweights once per outer iteration
])
def test_flags_that_would_be_ignored_are_usage_errors(verb, flag, dataset_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([verb, str(dataset_dir / "manifest.json"), "--clusters", "3",
              flag, str(tmp_path / "o") if flag == "--output-dir" else "5"])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_console_entry_point_runs(tmp_path):
    # The child process imports the same acsl as this one, also when it was
    # found through pytest's `pythonpath` setting rather than PYTHONPATH.
    paths = [str(Path(acsl.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "acsl.cli", "generate",
         "--clusters", "2", "--n-per-cluster", "5", "--views", "6:0.5:0.5",
         "--seed", "1", "--output-dir", str(tmp_path / "d")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "wrote" in proc.stdout


def test_cli_determinism_across_processes(dataset_dir, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = main([
            "evaluate", str(dataset_dir / "manifest.json"),
            "--clusters", "3", "--k-neighbors", "8", "--max-outer-iters", "6",
            "--l-grid", "6", "--eval-seeds", "0,1", "--kmeans-restarts", "3",
            "--output-dir", str(out),
        ])
        assert code in (0, 4)
        outs.append(out)
    assert (outs[0] / "results.json").read_bytes() == (outs[1] / "results.json").read_bytes()
    assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()


FIT_FLAGS = ["--clusters", "3", "--k-neighbors", "8", "--max-outer-iters", "6"]


def test_every_json_output_has_the_one_layout(dataset_dir, tmp_path):
    manifest = str(dataset_dir / "manifest.json")
    eval_flags = ["--l-grid", "6", "--eval-seeds", "0", "--kmeans-restarts", "2"]
    assert main(["fit", manifest, *FIT_FLAGS, "--output-dir", str(tmp_path / "fit")]) in (0, 4)
    assert main(["evaluate", manifest, *FIT_FLAGS, *eval_flags,
                 "--output-dir", str(tmp_path / "eval")]) in (0, 4)
    assert main(["grid", manifest, *FIT_FLAGS, *eval_flags, "--grid-values", "1",
                 "--output-dir", str(tmp_path / "grid")]) == 0
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.json"))
    assert written == [
        "data/informative_dims.json", "data/manifest.json", "eval/results.json",
        "fit/fit.json", "grid/grid_a1_b1_g1/results.json", "grid/grid_summary.json",
    ]
    for name in written:
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name


def test_fit_json_is_the_fit_summary_of_results_json(dataset_dir, tmp_path):
    manifest = str(dataset_dir / "manifest.json")
    fit_code = main(["fit", manifest, *FIT_FLAGS, "--output-dir", str(tmp_path / "fit")])
    eval_code = main(["evaluate", manifest, *FIT_FLAGS, "--l-grid", "6",
                      "--eval-seeds", "0", "--kmeans-restarts", "2",
                      "--output-dir", str(tmp_path / "eval")])
    assert fit_code == eval_code
    summary = json.loads((tmp_path / "fit" / "fit.json").read_text())
    results = json.loads((tmp_path / "eval" / "results.json").read_text())
    assert sorted(summary) == ["components_final", "converged", "final_objective",
                               "iterations"]
    assert summary == {key: results[key] for key in summary}
    last_row = (tmp_path / "fit" / "trace.csv").read_text().splitlines()[-1]
    assert summary["components_final"] == int(last_row.split(",")[2])


def test_manifest_json_holds_exactly_the_manifest_fields(dataset_dir):
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    assert sorted(manifest) == ["labels_path", "n", "name", "schema_version",
                                "standardize", "views"]


@pytest.mark.parametrize("view, field, value", [
    (True, "path", 5),
    (False, "labels_path", 5),
    (True, "delimiter", 5),
    (True, "has_header", "yes"),
    (False, "standardize", "no"),
    (True, "dims", "8"),
    (False, "n", True),
])
def test_manifest_field_of_the_wrong_type_exits_2(view, field, value, dataset_dir,
                                                  tmp_path, capsys):
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    (manifest["views"][0] if view else manifest)[field] = value
    (dataset_dir / "manifest.json").write_text(json.dumps(manifest))
    code = main(["fit", str(dataset_dir / "manifest.json"), "--clusters", "3",
                 "--output-dir", str(tmp_path / "o")])
    assert code == 2
    assert f"error: manifest field '{field}' must be " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("delimiter", ["", "\n", "\x0b", "5", ".", "-", ";E"])
def test_generate_with_a_delimiter_that_cannot_split_back_exits_2(delimiter, tmp_path,
                                                                 capsys):
    code = main(["generate", "--clusters", "3", "--n-per-cluster", "5",
                 "--views", "6:0.5:0.5", f"--delimiter={delimiter}",
                 "--output-dir", str(tmp_path / "data")])
    assert code == 2
    assert f"error: delimiter {delimiter!r} must be nonempty" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_generate_with_a_negative_seed_exits_2(tmp_path, capsys):
    code = main(["generate", "--clusters", "3", "--n-per-cluster", "5",
                 "--views", "5:1:0.5", "--seed", "-1", "--output-dir", str(tmp_path / "data")])
    assert code == 2
    assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("verb, flags, message", [
    ("grid", ["--jobs", "0"], "jobs must be at least 1, got 0"),
    ("grid", ["--grid-values", ","], "grid values must not be empty"),
    ("evaluate", ["--l-grid", ","], "l_grid must be nonempty and distinct"),
    ("evaluate", ["--l-grid", "5,5"], "l_grid must be nonempty and distinct"),
    ("evaluate", ["--eval-seeds", "0,0"], "eval_seeds must be distinct"),
    ("grid", ["--eval-seeds", "0,0"], "eval_seeds must be distinct"),
])
def test_empty_lists_repeated_counts_and_jobs_below_one_exit_2_before_loading(
    verb, flags, message, dataset_dir, tmp_path, monkeypatch, capsys
):
    def no_load(*args):
        raise AssertionError("the dataset was loaded")

    monkeypatch.setattr("acsl.experiment._load_problem", no_load)
    code = main([verb, str(dataset_dir / "manifest.json"), "--clusters", "3", *flags,
                 "--output-dir", str(tmp_path / "o")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
