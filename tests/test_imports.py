"""Static checks on the package sources.

The library computes on plain integers, and no module imports
``fractions``: even the SL3 parameter n, the one rational the package
prints, is computed as the integer 6n.  No module reads the Cartan
matrix a root system stores: the build reads the matrix it makes, and
every reflection runs through the root system's ``columns``, or through
the packed simple roots that ``characters`` builds from them.
Only ``roots`` reads a root system's family, so what is known per family
(the Dynkin graphs, the rank ranges, the root counts) stays in one
module.  Only ``characters`` reads the fields of a packing, so the
packed weight format stays in one module too.  Within it, only
``_demazure_items`` sizes the packing of a memoised character and runs
a word's letters; ``demazure_operator`` packs its input for one letter,
and ``weight_multiplicity`` reads only the radius rule, ``_radius``,
for its range test.  The
package has one per-instance cache: ``_cached`` is defined only in
``roots``, and no module uses ``functools.cached_property``.
``branching`` reads Demazure characters only, never an irreducible
character or a weight multiplicity.  No module imports a name it never
uses, and no private function or class is left that only the tests
call.  The tests' own oracles in ``tests/oracles.py`` import nothing
from the package.

No public name is left that only the tests call either.  Each name in a
module's ``__all__``, and each public method or property of a class in
one, needs a user outside the tests: library code other than its own
definition, ``scripts/`` or ``perfbench/``, a backticked span or a
doctest line of README.md, a doctest in the package, or the acceptance
suite ``tests/test_acceptance.py``.  A name counts as used where it is read as
a name, as an attribute or as an imported name; in text, where it is a
word.  The exceptions are listed in ``UNUSED_PUBLIC``, each with its
reason: five one-line Weyl group and weight primitives.  Code that only
the tests need lives in the tests, as ``tests/oracles.py`` and the
test-side helpers do.

Each layer's ``__all__`` is also the one list of what the package
exports: ``__init__`` star-imports every layer but ``cli`` and names
nothing itself, so ``demazure`` binds each ``__all__`` name to the
layer's own object.
"""

import ast
import importlib
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


def test_no_module_imports_fractions():
    assert [p.name for p in SRC.glob("*.py") if "fractions" in _imported_modules(p)] == []


def _attribute_readers(attr):
    return sorted(
        p.name
        for p in SRC.glob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == attr
            for node in ast.walk(ast.parse(p.read_text(), str(p)))
        )
    )


def test_no_module_reads_the_stored_cartan_matrix():
    assert _attribute_readers("cartan") == []


def test_only_roots_reads_a_root_systems_family():
    assert _attribute_readers("family") == ["roots.py"]


def test_only_characters_reads_the_packing():
    # the packed weight format is known to one module
    for field in ("places", "radius", "base", "offset", "simple"):
        assert _attribute_readers(field) == ["characters.py"], field


def _callers(name):
    """(module, top-level function or class) pairs of the package that call name.

    A call in a module's own top-level statements counts as "<module>".
    """
    found = set()
    for p in SRC.glob("*.py"):
        for top in ast.parse(p.read_text(), str(p)).body:
            if any(
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
                for node in ast.walk(top)
            ):
                found.add((p.name, getattr(top, "name", "<module>")))
    return found


def test_one_function_packs_a_memoised_character():
    # _demazure_items alone sizes the packing of a memoised character;
    # demazure_operator packs its own input; one rule gives the radius,
    # which weight_multiplicity's range test and Freudenthal's keys read
    # without building a packing
    assert _callers("_packing") == {
        ("characters.py", "_demazure_items"),
        ("characters.py", "demazure_operator"),
    }
    assert _callers("_radius") == {
        ("characters.py", "_packing"),
        ("characters.py", "weight_multiplicity"),
        ("characters.py", "freudenthal_multiplicity"),
    }
    assert _callers("_letter") == {
        ("characters.py", "_demazure_items"),
        ("characters.py", "demazure_operator"),
    }


def test_one_per_instance_cache():
    defined = []
    cached_property = []
    for p in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == "_cached":
                defined.append(p.name)
            elif (
                isinstance(node, ast.Name) and node.id == "cached_property"
                or isinstance(node, ast.Attribute) and node.attr == "cached_property"
                or isinstance(node, ast.alias) and node.name == "cached_property"
            ):
                cached_property.append(p.name)
    assert defined == ["roots.py"]
    assert cached_property == []


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
    are directives, and ``__init__`` star-imports each layer to re-export it.
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


ROOT = TESTS.parent

# Public names that nothing outside the tests uses, each with the reason it stays.
UNUSED_PUBLIC = {
    "pairing": "names the coroot pairing <mu, alpha_i^vee>, which the library reads as mu[i - 1]",
    "add_weights": "completes sub_weights and scale_weight, which the library uses; one line",
    "inverse": "the group inverse; one line on w(rho), which every element already computes",
    "left_descents": "the descents the README describes; one line on w(rho)",
    "right_descents": "the descents the README describes; one line on the stored u = w^{-1}(rho)",
}


def _names_read(tree, skip=()):
    """Names read in a parsed file, as a name, an attribute or an imported name.

    Nodes in ``skip``, and everything below them, are left out.
    """
    names = []
    todo = [tree]
    while todo:
        node = todo.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.extend(alias.name for alias in node.names)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _doctest_words(text):
    return {
        word
        for line in text.splitlines()
        if line.lstrip().startswith((">>>", "..."))
        for word in re.findall(r"\w+", line)
    }


def _public_surface(trees):
    """Each ``__all__`` name, and each public method or property of a class in one.

    Maps a name to the (file name, definition node) pairs that define it,
    the node None for a name that is not a function or a class.
    """
    surface = {}
    for filename, tree in trees.items():
        exported = set()
        defs = {}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
        for name in exported:
            node = defs.get(name)
            surface.setdefault(name, set()).add((filename, node))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        surface.setdefault(item.name, set()).add((filename, item))
    return surface


def _unused_public_names():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SRC.glob("*.py")}
    outside = [*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py"), TESTS / "test_acceptance.py"]
    used = set()
    for p in outside:
        used.update(_names_read(ast.parse(p.read_text(), str(p))))
    readme = (ROOT / "README.md").read_text()
    used |= _doctest_words(readme)
    spans = re.sub(r"```.*?```", "", readme, flags=re.DOTALL)
    used.update(word for span in re.findall(r"`([^`]+)`", spans) for word in re.findall(r"\w+", span))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                used |= _doctest_words(ast.get_docstring(node) or "")
    unused = set()
    for name, defs in _public_surface(trees).items():
        if name in used:
            continue
        # a use inside the name's own definition does not count
        if not any(
            name in _names_read(tree, {node for where, node in defs if where == filename})
            for filename, tree in trees.items()
        ):
            unused.add(name)
    return unused


def test_every_public_name_has_a_user_outside_the_tests():
    unused = _unused_public_names()
    extra = sorted(unused - UNUSED_PUBLIC.keys())
    assert not extra, f"only the tests use {extra}"
    stale = sorted(UNUSED_PUBLIC.keys() - unused)
    assert not stale, f"allow-listed, but used outside the tests: {stale}"


def test_package_reexports_every_layer_all():
    package = importlib.import_module("demazure")
    layers = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "cli"))
    missing = []
    for layer in layers:
        module = importlib.import_module(f"demazure.{layer}")
        missing += [
            f"{layer}.{name}"
            for name in module.__all__
            if getattr(package, name, None) is not getattr(module, name)
        ]
    assert missing == [], f"demazure does not re-export {missing}"
    # the layers' __all__ are the only export lists: __init__ names no import
    tree = ast.parse((SRC / "__init__.py").read_text())
    named = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name != "*"
    ]
    assert named == [], f"__init__.py imports names {named}"
