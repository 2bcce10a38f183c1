"""The README's library quick start, run as written, and its CLI examples, parsed."""

from pathlib import Path
import re
import shlex

from acsl.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_converges_with_k_components():
    text = README.read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", text, re.DOTALL).group(1)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    state = scope["state"]
    assert state.converged
    assert state.components_trace[-1] == 3
    assert len(scope["top"]) == 20


def test_cli_examples_parse():
    # Each `acsl ...` command of the README's sh blocks, continuation lines
    # joined, must parse: a flag the parser dropped or renamed fails here.
    text = README.read_text(encoding="utf-8")
    blocks = "".join(re.findall(r"```sh\n(.*?)```", text, re.DOTALL))
    commands = [c for c in blocks.replace("\\\n", " ").splitlines() if c.startswith("acsl ")]
    assert len(commands) == 5
    for command in commands:
        args = build_parser().parse_args(shlex.split(command)[1:])
        assert callable(args.func)
