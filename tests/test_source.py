"""Checks on the package source itself."""
import ast
import importlib
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


def test_every_export_names_a_binding_of_its_module():
    # a name deleted from a module but left in its `__all__` breaks `import *`
    stale = []
    for path in sorted(SOURCE.glob("[!_]*.py")):  # not `__main__`, which runs the CLI
        module = importlib.import_module(f"randlab.{path.stem}")
        exported = getattr(module, "__all__", [])
        assert len(set(exported)) == len(exported), path.name
        stale += [f"{path.stem}.{name}" for name in exported if not hasattr(module, name)]
    assert stale == []


def test_every_imported_name_is_used_or_exported():
    # a deletion that leaves its import behind keeps a dead dependency alive
    unused = []
    for path in sorted(SOURCE.glob("[!_]*.py")):  # `__init__` imports are the package's exports
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(getattr(importlib.import_module(f"randlab.{path.stem}"), "__all__", []))
        unused += [f"{path.stem}.{name}" for name in sorted(imported - used - exported)]
    assert unused == []
