"""Static checks on the package sources.

The library computes on plain integers; only ``sl3t`` may import
``fractions``, as ``sl3t.closed_n`` is the one value in the package that
really is rational.  Only ``roots`` reads the Cartan matrix: every other
module reflects through ``roots._columns``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "demazure"


def _imported_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_only_sl3t_imports_fractions():
    users = sorted(p.name for p in SRC.glob("*.py") if "fractions" in _imported_modules(p))
    assert users == ["sl3t.py"]


def test_only_roots_reads_the_cartan_matrix():
    readers = sorted(
        p.name
        for p in SRC.glob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == "cartan"
            for node in ast.walk(ast.parse(p.read_text(), str(p)))
        )
    )
    assert readers == ["roots.py"]
