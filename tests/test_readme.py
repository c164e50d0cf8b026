"""The README's Library example runs as written."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(monkeypatch):
    monkeypatch.chdir(ROOT)  # the example loads instances/ by relative path
    namespace: dict = {}
    exec(compile(library_block(), "README.md", "exec"), namespace)
    assert namespace["reasons"] == ()
    assert namespace["res"].fixed_pair == (0, 0)
    assert namespace["collapse"].verdict == "holds"
    assert namespace["collapse"].mode == "comparable-seeds"
    assert namespace["suite"]["uniform-local-contraction"].lambda_hat == 2.0 / 3.0
