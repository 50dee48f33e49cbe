"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "byzfusion"


def unused_imports(path):
    """(line, name) of each name bound by an import in `path` that the module never reads.

    A name counts as read when it appears as an identifier anywhere in the
    module (attribute chains start with one) or as a string in ``__all__``.
    ``from __future__`` imports are skipped.
    """
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [
        f"{path.name}:{line} {name}" for path in modules for line, name in unused_imports(path)
    ]
    assert unused == []


def test_scan_flags_an_unused_name(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .model import (\n"
        "    mix64,\n"
        "    placement_law,\n"
        ")\n"
        "__all__ = ['mix64']\n"
        "def f():\n"
        "    return os.path.join(np.pi)\n"
    )
    assert unused_imports(path) == [(4, "placement_law")]
