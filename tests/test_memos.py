"""The package's memos: which are bounded, and what the benchmark reads from them.

A memo keyed on a weight, a word or a subset grows with the input, so it
has a finite ``maxsize``.  Only memos keyed on the root system alone (or
on nothing) may be unbounded: there are finitely many root systems.
A value that depends on one root system alone is no memo at all: it is
a ``_cached`` attribute of the ``RootSystem`` (``dots``, ``order``),
stored on the instance on its first read.
``MEMOS`` lists every memo with its ``maxsize``, so none is added,
dropped or resized without a line here.
``perfbench/worker.py`` reads ``cache_info()`` of two of them under
``--trace``, and the CI ``bench-smoke`` job runs that path.
``branching._levi_char_items`` is read in the library only by
``unirad_mult_identity``.  It holds an int, the dimension of a Levi
Demazure module summed from ``characters._demazure_items``, and stays,
under its name and its ``lru_cache``, until the benchmark stops reading
its counters (ROADMAP items 1 and 5).
"""

import importlib
import pkgutil

import demazure
from demazure import LeviDatum, root_system, unirad_mult_identity, weyl_character
from demazure.branching import _levi_char_items
from demazure.characters import _demazure_items

# every memo of the package and its maxsize; None only where the key is
# a root system, a (family, rank) pair or nothing
MEMOS = {
    "branching._levi_char_items": 256,
    "branching._levi_root_indices": 1024,
    "characters._demazure_items": 256,
    "cli.build_parser": None,
    "growth._interval": 1024,
    "roots.build_root_system": None,
    "weyl._min_coset_rep": 1024,
    "weyl.longest_element": None,
    "weyl.weyl_group": None,
}


def _memos():
    found = {}
    for info in pkgutil.iter_modules(demazure.__path__):
        module = importlib.import_module(f"demazure.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


def test_memos_keyed_on_input_are_bounded():
    # a memo added, dropped or resized needs a line in MEMOS
    assert {name: memo.cache_info().maxsize for name, memo in _memos().items()} == MEMOS


def test_benchmark_reads_bounded_memos():
    for memo in (_demazure_items, _levi_char_items):
        info = memo.cache_info()
        assert isinstance(info.maxsize, int) and info.maxsize > 0
        assert {"hits", "misses", "currsize"} <= set(info._fields)
        memo.cache_clear()
        assert memo.cache_info().currsize == 0


def test_full_character_keeps_one_memo_entry():
    # one whole character, not one per suffix of the 120-letter w0 word
    _demazure_items.cache_clear()
    char = weyl_character(root_system("E8"), (1, 0, 0, 0, 0, 0, 0, 0))
    assert sum(char.values()) == 3875
    assert _demazure_items.cache_info().currsize == 1


def test_unirad_fills_the_levi_memo():
    # the benchmark's branching.levi_memo_* counters read this memo
    levi = LeviDatum(root_system("A3"), {1, 2})
    _levi_char_items.cache_clear()
    assert unirad_mult_identity((1, 1, 0), levi) == (8, 8, True)
    info = _levi_char_items.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    assert unirad_mult_identity((1, 1, 0), levi) == (8, 8, True)
    info = _levi_char_items.cache_info()
    assert (info.hits, info.misses) == (1, 1)
