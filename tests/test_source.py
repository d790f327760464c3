"""Rules on the package source itself."""

import ast
from pathlib import Path

import hcrb


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
