"""The package's memos: which are bounded, and what the benchmark reads from them.

A memo keyed on a weight, a word or a subset grows with the input, so it
has a finite ``maxsize``.  Only memos keyed on the root system alone (or
on nothing) may be unbounded: there are finitely many root systems.
A value that depends on one root system alone is no memo at all: it is
a ``_cached`` attribute of the ``RootSystem`` (``dots``, ``order``,
``dim_table``, ``supports``, ``highest_first``, ``highest_first_index``),
stored on the instance on its first read.  So is the table of a Levi's
positive roots: ``LeviDatum.dim_table``, the rows of its own
``rs.dim_table`` that ``rs.supports`` selects, stored on the
``LeviDatum`` that a query builds.  Freudenthal's tables are built from
the instance's own ``dots``: a memo keyed on the root system would hand
a copy that equals A2 and hashes like it, but holds other dot vectors,
the real A2's table.  ``characters._packing`` is keyed on a root system
and a radius, and may be: a packing reads only ``rank`` and ``columns``,
fields that equality compares, so an equal copy is handed a packing
that is right for it too.  It is bounded, as the radius grows with the
input.
``roots._build_root_system`` is keyed on the upper-case family and the
int rank that ``build_root_system`` checks, never on its raw arguments.
``MEMOS`` lists every memo with its ``maxsize``, so none is added,
dropped or resized without a line here.
Memo sharing is a design property: ``characters._demazure_items`` and
``growth._interval`` are keyed by the coset word of w at lam, which
depends on the coset w W_lam alone, so every reduced word of every
member of a coset lands on one entry of each.  The CI ``tier1`` job runs
this file under three hash seeds, as it runs the goldens.
``perfbench/worker.py`` reads ``cache_info()`` of two of them under
``--trace``, and the CI ``bench-smoke`` job runs that path.
``branching._levi_char_items`` is read in the library only by
``unirad_mult_identity``.  It holds an int, the dimension of a Levi
Demazure module, the coefficient sum that ``characters._dim`` reads
from a ``characters._demazure_items`` entry.  It stays, under its name
and its ``lru_cache``, until the benchmark stops reading its counters
(ROADMAP items 1 and 5).
"""

import importlib
import pkgutil

import pytest

import demazure
from demazure import (
    LeviDatum,
    demazure_character,
    dimension_sequence,
    from_word,
    rho,
    root_system,
    unirad_mult_identity,
    weyl_character,
    weyl_group,
)
from demazure.branching import _levi_char_items
from demazure.characters import _demazure_items
from demazure.growth import _interval
from oracles import all_reduced_words

# every memo of the package and its maxsize; None only where the key is
# a root system, a (family, rank) pair or nothing
MEMOS = {
    "branching._levi_char_items": 256,
    "characters._demazure_items": 256,
    "characters._packing": 256,
    "cli.build_parser": None,
    "growth._interval": 1024,
    "roots._build_root_system": None,
    "weyl._least_in_coset": 1024,
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


@pytest.mark.parametrize("name", ["A2", "B2", "A3", "G2"])
@pytest.mark.parametrize("which", ["rho", "omega1"])
def test_every_word_of_a_coset_shares_one_entry(name, which):
    # a chain and an interval are keyed by the coset word, which depends on
    # w W_lam alone: every reduced word of every member of a coset, each
    # element built by folding that word, lands on one entry of each memo
    rs = root_system(name)
    lam = rho(rs) if which == "rho" else (1,) + (0,) * (rs.rank - 1)
    group = weyl_group(rs)
    _demazure_items.cache_clear()
    _interval.cache_clear()
    words = 0
    for w in group:
        for word in all_reduced_words(rs.columns, w.apply(rho(rs))):
            demazure_character(rs, word, lam)
            dimension_sequence(from_word(rs, word), lam)
            words += 1
    # rho is regular, so there each coset is one element
    cosets = len({w.apply(lam) for w in group})
    assert cosets < words and (which != "rho" or cosets == len(group))
    assert _demazure_items.cache_info().currsize == cosets
    assert _interval.cache_info().currsize == cosets


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
