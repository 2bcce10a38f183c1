"""The README's library quick start, run as written, its CLI examples, parsed
and run, and its error contract."""

import ast
import json
import os
from pathlib import Path
import re
import shlex
import subprocess
import sys

from acsl.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"```python\n(.*?)```", text, re.DOTALL).group(1)


def test_library_quick_start_converges_with_k_components():
    scope = {}
    exec(compile(quick_start_code(), str(README), "exec"), scope)
    state = scope["state"]
    assert state.converged
    assert state.components_trace[-1] == 3
    assert len(scope["top"]) == 20


def test_quick_start_gives_the_same_fit_at_one_and_two_blas_threads():
    # Bits may differ between thread counts (the README says so); the
    # iteration count, the convergence flag and the top-20 selection may not.
    code = ("import json\n" + quick_start_code()
            + "print(json.dumps([state.iteration, state.converged, top.tolist()]))\n")
    src = str(README.parent / "src")
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        results.append(json.loads(run.stdout.splitlines()[-1]))
    assert results[0] == results[1]
    assert results[0][1] is True


def cli_examples() -> list[list[str]]:
    """The arguments of each `acsl ...` command of the README's sh blocks,
    continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    blocks = "".join(re.findall(r"```sh\n(.*?)```", text, re.DOTALL))
    commands = [c for c in blocks.replace("\\\n", " ").splitlines() if c.startswith("acsl ")]
    return [shlex.split(command)[1:] for command in commands]


def test_cli_examples_parse():
    # A flag the parser dropped or renamed fails here.
    examples = cli_examples()
    assert len(examples) == 5
    for argv in examples:
        args = build_parser().parse_args(argv)
        assert callable(args.func)


def test_cli_examples_run_and_exit_0(tmp_path, monkeypatch):
    # Every example but `grid` (a 27-point sweep, parsed above) runs as
    # written, in order, from one working directory.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ACSL_OUTPUT_DIR", raising=False)
    examples = [argv for argv in cli_examples() if argv[0] != "grid"]
    assert [argv[0] for argv in examples] == ["generate", "fit", "evaluate", "trace"]
    for argv in examples:
        assert main(argv) == 0, argv


def test_the_package_raises_no_bare_value_error():
    # A bad input raises ConfigError and a float64 failure NumericError, both
    # ValueErrors; a bare ValueError would pass experiment._stage unnamed.
    modules = sorted((README.parent / "src" / "acsl").glob("*.py"))
    assert modules
    bare = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    bare.append(f"{path.name}:{node.lineno}")
    assert bare == []
