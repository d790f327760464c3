"""Rules on the package source itself, and on the README's example."""

import ast
import re
from pathlib import Path

import hcrb

ROOT = Path(__file__).resolve().parent.parent


def test_package_has_no_assert_statements():
    # an assert vanishes under python -O, so no check may rest on one
    modules = sorted(Path(hcrb.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_readme_library_example_runs(monkeypatch):
    # the example imports only names the package exports, and runs as
    # written from the repository root: one frame and one three-radar fuse
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    monkeypatch.chdir(ROOT)
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme"})
