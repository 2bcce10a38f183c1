"""The README's library quick start, run as written."""

from pathlib import Path
import re

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
