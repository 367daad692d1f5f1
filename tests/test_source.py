"""Checks on the package source itself."""
import ast
import pathlib

import randlab

SOURCE = pathlib.Path(randlab.__file__).parent


def test_no_bare_asserts_in_package():
    # `python -O` strips assert statements; invariants must raise explicitly.
    offenders = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert len(list(SOURCE.glob("*.py"))) > 10
    assert offenders == []
