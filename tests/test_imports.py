"""Static checks on the package sources.

The library computes on plain integers, and no module imports
``fractions``: even the SL3 parameter n, the one rational the package
prints, is computed as the integer 6n.  No module reads the Cartan
matrix a root system stores: the build reads the matrix it makes, and
every reflection runs through the root system's ``columns``, or through
the packed simple roots that ``characters`` builds from them.
Only ``roots`` reads a root system's family, so what is known per family
(the Dynkin graphs, the rank ranges, the root counts) stays in one
module.  Only ``roots`` reads ``operator.index`` too, so what counts as
an integer input, and the ValueError for one that does not, is decided
in one module.  Only ``characters`` reads the fields of a packing, so the
packed weight format stays in one module too, and within it one
layout, ``_packing``, builds every packing, of chains and of
Freudenthal's keys alike, each sized by the one radius rule,
``_radius``.  Only ``_demazure_items`` sizes the packing of a memoised
character and runs a word's letters, and only ``characters`` reads its
entries; ``weight_multiplicity`` applies the first letter of w0's coset
word to one alpha_i-string of the entry for the rest of that word;
``demazure_operator`` packs its input for one letter;
``freudenthal_multiplicity`` packs its keys with a power-of-two radius;
and ``_multiplicity_input``, the one front end of both multiplicity
routes, reads only the radius, for its range test.
The package has one per-instance cache: ``_cached`` is defined only in
``roots``, and no module uses ``functools.cached_property``.  It has one
way to make a frozen record too: ``_record`` is defined only in
``roots``, no module imports ``dataclasses``, which would load
``inspect`` and ``ast`` in every process that imports the package, and
no module makes a named tuple.  No module imports ``hashlib``, which
loads OpenSSL.  No module imports ``typing`` either: the
annotations are strings under the ``__future__`` import, and the
abstract types they name come from ``collections.abc``.
``branching`` reads Demazure characters only, never an irreducible
character or a weight multiplicity.  Every computation on a Weyl
element reads its stored peel: only the CLI's ``hecke`` and ``growth``
output and ``WeylElement.__repr__`` call ``reduced_word``, and
``characters``, ``branching`` and ``growth`` do not import it.  Only
``weyl`` reads a peel: every chain and interval elsewhere runs on a coset
word, which depends on the coset alone.  No
module imports a name it never uses, and no private function or class
is left that only the tests call.  The tests' own oracles in ``tests/oracles.py`` import nothing
from the package.

No public name is left that only the tests call either.  Each name in a
module's ``__all__``, and each public method or property of a class in
one, needs a user outside the tests: library code other than its own
definition, ``scripts/`` or ``perfbench/``, a backticked span or a
doctest line of README.md, or a doctest in the package.  No file under
``tests/`` counts, the acceptance suite included.  A name counts as used
where it is read as a name, as an attribute or as an imported name; in
text, where it is a word.  An exception would be listed in
``UNUSED_PUBLIC``, with its reason; there is none.  Code that only the tests need lives
in the tests, as ``tests/oracles.py`` and the test-side helpers do.

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


def test_only_roots_reads_operator_index():
    # one reader decides what an integer input is: roots._ints, and
    # roots._check_index for a single simple index
    readers = sorted(
        p.name
        for p in SRC.glob("*.py")
        if any(
            isinstance(node, ast.ImportFrom) and node.module == "operator"
            and any(alias.name == "index" for alias in node.names)
            or isinstance(node, ast.Attribute) and node.attr == "index"
            and isinstance(node.value, ast.Name) and node.value.id == "operator"
            for node in ast.walk(ast.parse(p.read_text(), str(p)))
        )
    )
    assert readers == ["roots.py"]


def test_only_weyl_reads_a_peel():
    # chains and intervals run on the coset word, which weyl._coset_word
    # walks from u alone, so no other module sees which word built an element
    assert _attribute_readers("_peel") == ["weyl.py"]


def test_only_characters_reads_the_packing():
    # the packed weight format is known to one module
    for field in ("places", "radius", "base", "offset", "simple"):
        assert _attribute_readers(field) == ["characters.py"], field


def _calls(tree, name):
    """Whether tree holds a call of name by its bare name."""
    return any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
        for node in ast.walk(tree)
    )


def _callers(name):
    """(module, top-level function or class) pairs of the package that call name.

    A call in a module's own top-level statements counts as "<module>".
    """
    found = set()
    for p in SRC.glob("*.py"):
        for top in ast.parse(p.read_text(), str(p)).body:
            if _calls(top, name):
                found.add((p.name, getattr(top, "name", "<module>")))
    return found


def test_one_function_packs_a_memoised_character():
    # one layout: only _packing builds a _Packing
    assert _callers("_Packing") == {("characters.py", "_packing")}
    # _demazure_items alone sizes the packing of a memoised character;
    # demazure_operator packs its own input, and Freudenthal's pass its
    # keys; one rule gives every radius, and the multiplicity routes'
    # one front end reads it for its range test without building a packing
    assert _callers("_packing") == {
        ("characters.py", "_demazure_items"),
        ("characters.py", "demazure_operator"),
        ("characters.py", "freudenthal_multiplicity"),
    }
    assert _callers("_radius") == {
        ("characters.py", "_demazure_items"),
        ("characters.py", "demazure_operator"),
        ("characters.py", "_multiplicity_input"),
        ("characters.py", "freudenthal_multiplicity"),
    }
    # weight_multiplicity reads the coefficient that the first letter of
    # w0's coset word leaves at mu off one alpha_i-string of the memo entry
    # for the rest of the word, and writes no weight: the letter itself runs only in
    # the chain and in the one-letter operator
    assert _callers("_letter") == {
        ("characters.py", "_demazure_items"),
        ("characters.py", "demazure_operator"),
    }
    assert _callers("_coefficient") == {("characters.py", "weight_multiplicity")}
    # only characters reads a memo entry; branching's Levi dimensions go
    # through _dim, as demazure_dim does
    assert _callers("_demazure_items") == {
        ("characters.py", "_character"),
        ("characters.py", "_dim"),
        ("characters.py", "_straightened"),
        ("characters.py", "weight_multiplicity"),
    }


def test_one_function_walks_into_the_dominant_chamber():
    # the walkers that the roots and characters docstrings list: a Weyl
    # element's peel, the printed word, the least element of a coset
    # w W_lam and its word, dominant_conjugate, and the Freudenthal tails
    # that no stabiliser gives
    assert _callers("_to_dominant") == {
        ("characters.py", "freudenthal_multiplicity"),
        ("roots.py", "dominant_conjugate"),
        ("weyl.py", "WeylElement"),
        ("weyl.py", "_least_in_coset"),
        ("weyl.py", "reduced_word"),
    }


def _function_callers(name):
    """Qualified functions and methods of the package that call name.

    A method counts as "Class.method", a call elsewhere in a class body
    as "Class", a top-level function by its name, and a call anywhere
    else in a module as "<module>".
    """
    found = set()
    for p in SRC.glob("*.py"):
        for top in ast.parse(p.read_text(), str(p)).body:
            if isinstance(top, ast.ClassDef):
                scopes = [
                    (f"{top.name}.{item.name}" if isinstance(item, ast.FunctionDef) else top.name, item)
                    for item in top.body
                ]
            else:
                scopes = [(getattr(top, "name", "<module>"), top)]
            found.update((p.name, qualified) for qualified, scope in scopes if _calls(scope, name))
    return found


def test_only_printing_spells_the_least_reduced_word():
    # every computation reads an element's stored peel; reduced_word's
    # walk serves the words the CLI prints and repr only
    assert _function_callers("reduced_word") == {
        ("cli.py", "_cmd_hecke"),
        ("cli.py", "_cmd_growth"),
        ("weyl.py", "WeylElement.__repr__"),
    }
    for layer in ("characters.py", "branching.py", "growth.py"):
        assert "reduced_word" not in _imported_names(SRC / layer), layer


def test_no_module_imports_dataclasses():
    assert [p.name for p in SRC.glob("*.py") if "dataclasses" in _imported_modules(p)] == []


def test_no_module_imports_hashlib():
    # hashlib loads OpenSSL's libcrypto; the cache names and checks its
    # entries with zlib
    hashlibs = {"hashlib", "_hashlib"}
    assert [p.name for p in SRC.glob("*.py") if hashlibs & _imported_modules(p)] == []


def _definers(name):
    return [
        p.name
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(), str(p)))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
    ]


def test_one_record_decorator():
    assert _definers("_record") == ["roots.py"]


def test_no_class_derives_from_named_tuple():
    # _record is the one way to make a record: no NamedTuple base and no
    # collections.namedtuple call either
    named = {"NamedTuple", "namedtuple"}
    found = [
        p.name
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(), str(p)))
        if isinstance(node, ast.Name) and node.id in named
        or isinstance(node, ast.Attribute) and node.attr in named
        or isinstance(node, ast.alias) and node.name in named
    ]
    assert found == []


def test_no_module_imports_typing():
    assert [p.name for p in SRC.glob("*.py") if "typing" in _imported_modules(p)] == []


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
UNUSED_PUBLIC = {}


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
    outside = [*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]
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
