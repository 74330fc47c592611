"""Static checks on the package sources.

The library computes on plain integers; only ``sl3t`` may import
``fractions``, as ``sl3t.closed_n`` is the one value in the package that
really is rational.  Only ``roots`` reads the Cartan matrix: every other
module reflects through ``roots._columns``, or through the packed simple
roots that ``characters`` builds from it.  Only ``roots`` reads a root
system's family, so what is known per family (the Dynkin graphs, the
rank ranges, the root counts) stays in one module.  Only ``characters``
reads the fields of a packing, so the packed weight format stays in one
module too.  ``branching`` reads Demazure characters only, never an
irreducible character or a weight multiplicity.  No module imports a
name it never uses, and no private function or class is left that only
the tests call.  The tests' own oracles in ``tests/oracles.py`` import
nothing from the package.
"""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "demazure"


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


def _attribute_readers(attr):
    return sorted(
        p.name
        for p in SRC.glob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == attr
            for node in ast.walk(ast.parse(p.read_text(), str(p)))
        )
    )


def test_only_roots_reads_the_cartan_matrix():
    assert _attribute_readers("cartan") == ["roots.py"]


def test_only_roots_reads_a_root_systems_family():
    assert _attribute_readers("family") == ["roots.py"]


def test_only_characters_reads_the_packing():
    # the packed weight format is known to one module
    for field in ("places", "radius", "base", "offset", "simple"):
        assert _attribute_readers(field) == ["characters.py"], field


def _imported_names(path):
    """Names imported from a module, or read as an attribute of one."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_branching_reads_demazure_characters_only():
    irreducible = {"weyl_character", "weight_multiplicity", "freudenthal_multiplicity"}
    assert _imported_names(SRC / "branching.py") & irreducible == set()


def _unused_imports(path):
    """Names the module imports and never reads.

    A name counts as read when it occurs as a name in the code or as a
    word in a docstring, where doctests use it.  ``__future__`` imports
    are directives, and ``__init__`` imports exist to be re-exported.
    """
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            used.update(re.findall(r"\w+", ast.get_docstring(node) or ""))
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        p.name: names
        for p in sorted(SRC.glob("*.py"))
        if p.name != "__init__.py" and (names := _unused_imports(p))
    }
    assert unused == {}


def test_every_private_definition_is_used_in_the_package():
    defined = set()
    used = set()
    for p in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(defined - used) == []


def test_oracles_import_nothing_from_the_package():
    assert "demazure" not in _imported_modules(TESTS / "oracles.py")
