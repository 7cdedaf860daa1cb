import ast
import inspect
from pathlib import Path

import retsym


def test_all_lists_exactly_the_public_imports():
    # __all__ restates the import list of retsym/__init__.py; the two must agree.
    tree = ast.parse(Path(retsym.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    public = {
        name for name in imported
        if not name.startswith("_") and not inspect.ismodule(getattr(retsym, name))
    }
    assert sorted(retsym.__all__) == sorted(public)


def test_the_package_holds_no_assert_statement():
    # python -O strips assert statements, so a check made with one vanishes.
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(retsym.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
