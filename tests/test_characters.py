import dataclasses
import json
import random
import re
import time
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from demazure import (
    LeviDatum,
    add_weights,
    all_reduced_words,
    character_from_json,
    character_to_json,
    demazure_character,
    demazure_dim,
    demazure_operator,
    dimension_sequence,
    dominant_conjugate,
    dual_weight,
    freudenthal_multiplicity,
    from_word,
    levi_weyl_dim,
    longest_element,
    reduced_word,
    restrict_to_levi,
    rho,
    root_system,
    scale_weight,
    simple_reflection,
    sub_weights,
    unirad_mult_identity,
    weight_multiplicity,
    weyl_character,
    weyl_dim,
    weyl_group,
)
from demazure import characters
from demazure.characters import (
    _demazure_items,
    _letter,
    _pack,
    _packing,
    _simple_coordinates,
    _unpack,
)
from demazure.roots import _check_index
from oracles import descent, gram_rows, half_norms, scaled_inverse_cartan, simple_root

A1 = root_system("A1")
A2 = root_system("A2")


def _apply(rs, word, char):
    """The operators along word, last letter first, as a character.

    One packing for the whole word, sized by the support of char, one
    letter loop and one unpack at the end.  It shares the kernel and the
    packed format with the library, but not ``_demazure_items``, which
    packs each memoised (word, lam) on its own.
    """
    word = tuple(word)
    for i in word:
        _check_index(rs, i)
    pk = _packing(rs, char)
    cur = {_pack(pk, mu): c for mu, c in char.items() if c}
    for i in reversed(word):
        cur = _letter(pk, i, cur)
    return dict(_unpack(pk, cur))


def test_operator_three_cases_a1():
    # hand-expanded geometric sums for e^{m omega}, m = -5..5
    for m in range(-5, 6):
        out = demazure_operator(A1, 1, {(m,): 1})
        if m >= 0:
            expected = {(m - 2 * k,): 1 for k in range(m + 1)}
        elif m == -1:
            expected = {}
        else:
            expected = {(m + 2 * k,): -1 for k in range(1, -m)}
        assert out == expected, m
        assert len(out) == (m + 1 if m >= 0 else abs(1 + m))


def test_operator_examples_from_docs():
    assert demazure_operator(A1, 1, {(-2,): 1}) == {(0,): -1}
    assert demazure_operator(A1, 1, {(-3,): 1}) == {(-1,): -1, (1,): -1}
    assert demazure_operator(A1, 1, {(-1,): 1}) == {}


def test_operator_is_linear_and_cancels():
    # e^{mu} + e^{s_i mu} with <mu, alpha^vee> = -2 collapses to zero...
    # no: D(e^mu + e^{s mu}) = D e^mu + D e^{s mu}; for mu = -2: s mu = 2,
    # D e^{2} = e^2 + e^0 + e^{-2} and D e^{-2} = -e^0, sum e^2 + e^{-2}
    out = demazure_operator(A1, 1, {(2,): 1, (-2,): 1})
    assert out == {(2,): 1, (-2,): 1}


FAMILY_TYPES = ["A3", "B3", "C3", "D4", "E6", "F4", "G2"]


@st.composite
def _small_characters(draw):
    rs = root_system(draw(st.sampled_from(FAMILY_TYPES)))
    weight = st.tuples(*[st.integers(-4, 4)] * rs.rank)
    char = draw(st.dictionaries(weight, st.integers(-5, 5).filter(bool), min_size=1, max_size=5))
    return rs, char


def _braid_order(rs, i, j):
    # m_ij = 2, 3, 4, 6 as a_ij * a_ji = 0, 1, 2, 3
    return (2, 3, 4, 6)[rs.cartan[i - 1][j - 1] * rs.cartan[j - 1][i - 1]]


@given(case=_small_characters(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_operator_braid_relations(case, data):
    rs, char = case
    i, j = data.draw(st.lists(st.integers(1, rs.rank), min_size=2, max_size=2, unique=True))
    m = _braid_order(rs, i, j)
    left = ((i, j) * m)[:m]
    right = ((j, i) * m)[:m]
    assert _apply(rs, left, char) == _apply(rs, right, char)


@given(case=_small_characters(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_operator_idempotent(case, data):
    rs, char = case
    i = data.draw(st.integers(1, rs.rank))
    once = _apply(rs, (i,), char)
    assert _apply(rs, (i, i), char) == once
    assert _apply(rs, (i,), once) == once


@given(case=_small_characters(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_operator_output_symmetric(case, data):
    # the image of D_i is pointwise s_i-invariant
    rs, char = case
    i = data.draw(st.integers(1, rs.rank))
    out = _apply(rs, (i,), char)
    for w, c in out.items():
        assert out.get(simple_reflection(rs, i, w), 0) == c


def test_empty_word_is_identity():
    char = demazure_character(A2, (), (3, 1))
    assert char == {(3, 1): 1}
    assert demazure_dim(from_word(A2, ()), (3, 1)) == 1


def test_a2_adjoint_character():
    w0 = longest_element(A2)
    char = demazure_character(A2, reduced_word(w0), (1, 1))
    expected = {
        (1, 1): 1, (-1, 2): 1, (2, -1): 1,
        (0, 0): 2,
        (1, -2): 1, (-2, 1): 1, (-1, -1): 1,
    }
    assert char == expected
    assert demazure_dim(w0, (1, 1)) == 8


def test_partial_word_dims_grow():
    # suffixes of a reduced word give a chain of submodules
    word = (1, 2, 1)
    dims = [demazure_dim(from_word(A2, word[k:]), (1, 1)) for k in (3, 2, 1, 0)]
    assert dims == [1, 2, 5, 8]


def test_demazure_character_rejects_bad_input():
    with pytest.raises(ValueError):
        demazure_character(A2, (1, 2), (-1, 1))
    with pytest.raises(ValueError):
        demazure_character(A2, (1, 1), (1, 1))  # not reduced
    with pytest.raises(ValueError):
        demazure_character(A2, (3,), (1, 1))  # no such letter


def test_weyl_dims_table():
    cases = [
        ("A2", (1, 0), 3), ("A2", (1, 1), 8), ("A2", (2, 2), 27), ("A2", (3, 3), 64),
        ("A3", (1, 0, 0), 4), ("A3", (0, 1, 0), 6), ("A3", (1, 0, 1), 15), ("A3", (1, 1, 1), 64),
        ("B2", (1, 0), 5), ("B2", (0, 1), 4),
        ("B3", (1, 0, 0), 7), ("B3", (0, 1, 0), 21), ("B3", (0, 0, 1), 8), ("B3", (1, 1, 1), 512),
        ("C3", (1, 0, 0), 6), ("C3", (0, 1, 0), 14), ("C3", (0, 0, 1), 14),
        ("D4", (1, 0, 0, 0), 8), ("D4", (0, 1, 0, 0), 28),
        ("D4", (0, 0, 1, 0), 8), ("D4", (0, 0, 0, 1), 8),
        ("G2", (1, 0), 7), ("G2", (0, 1), 14),
        ("F4", (0, 0, 0, 1), 26), ("F4", (1, 0, 0, 0), 52),
        ("E6", (1, 0, 0, 0, 0, 0), 27), ("E6", (0, 1, 0, 0, 0, 0), 78),
        ("E7", (0, 0, 0, 0, 0, 0, 1), 56), ("E7", (1, 0, 0, 0, 0, 0, 0), 133),
        ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 248),
    ]
    for name, lam, dim in cases:
        assert weyl_dim(root_system(name), lam) == dim, (name, lam)


def test_weyl_dim_at_rho_is_power_of_two():
    # the dimension product telescopes to 2 per positive root
    for name in ("A1", "A3", "B3", "C3", "D4", "G2", "F4", "E6", "E8"):
        rs = root_system(name)
        assert weyl_dim(rs, rho(rs)) == 2 ** len(rs.positive_roots), name


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim(A2, (-1, 0))


def _corrupted_dots(name, k, dots):
    """A fresh copy of the named root system with dots as its k-th dot vector.

    The copy equals the named system and hashes like it, so it is passed
    only to functions that memoise nothing by root system.
    """
    rs = dataclasses.replace(root_system(name))
    vars(rs)["dots"] = rs.dots[:k] + (dots,) + rs.dots[k + 1:]
    return rs


def test_a_corrupted_root_table_breaks_the_dimension_product():
    # the highest root of A2 read as alpha_1 + 2 alpha_2: the product at omega_1 is 8/3
    rs = _corrupted_dots("A2", 2, (1, 2))
    with pytest.raises(RuntimeError, match=r"^A2: non-integral dimension product for \(1, 0\)$"):
        weyl_dim(rs, (1, 0))


def test_weyl_character_matches_dim_and_symmetry():
    for name, lam in (("A2", (2, 1)), ("B2", (1, 1)), ("G2", (1, 0))):
        rs = root_system(name)
        char = weyl_character(rs, lam)
        assert sum(char.values()) == weyl_dim(rs, lam)
        # full characters are Weyl-invariant
        for i in range(1, rs.rank + 1):
            for mu, c in char.items():
                assert char.get(simple_reflection(rs, i, mu), 0) == c


def test_g2_seven_dim_character():
    char = weyl_character(root_system("G2"), (1, 0))
    assert sum(char.values()) == 7
    assert char[(0, 0)] == 1
    assert all(c == 1 for c in char.values())


def test_weight_multiplicity_spots():
    assert weight_multiplicity(A2, (1, 1), (0, 0)) == 2
    assert weight_multiplicity(A2, (1, 1), (1, 1)) == 1
    assert weight_multiplicity(A2, (1, 1), (5, 5)) == 0
    # mu not in the root-lattice coset of lambda
    assert weight_multiplicity(A2, (1, 0), (0, 0)) == 0
    assert weight_multiplicity(A2, (2, 2), (0, 0)) == 3


@pytest.mark.parametrize("mu", [(0.5, 0), (True, 0), (10**6, 0), (-5, -5)])
def test_both_multiplicity_routes_read_zero(mu):
    # a non-integral coordinate, a bool, a coordinate far past the
    # packing radius, and a weight whose dominant conjugate (5, 5) lies
    # above lam: both routes answer 0 rather than raise
    assert weight_multiplicity(A2, (1, 1), mu) == 0
    assert freudenthal_multiplicity(A2, (1, 1), mu) == 0


@pytest.mark.parametrize("name, lam, mu", [
    ("A2", (1, 1), (0.0, 0.0)), ("B2", (2, 2), (-1.0, 2.0)), ("A2", (3, 0), (-1.0, -1.0)),
])
def test_both_multiplicity_routes_read_mu_by_value(name, lam, mu):
    # a coordinate such as 1.0 reads as 1 on both routes; Freudenthal
    # raised TypeError on these when its descent took a step
    rs = root_system(name)
    value = weight_multiplicity(rs, lam, tuple(map(int, mu)))
    assert freudenthal_multiplicity(rs, lam, mu) == weight_multiplicity(rs, lam, mu) == value > 0


# A highest weight with a coordinate that is not an integer once reached
# the operator kernel, whose sweep never meets a float key: the first four
# calls ran until memory gave out, the rest answered wrongly or raised
# TypeError or AttributeError.  Each is now refused by name.
@pytest.mark.parametrize("call, weight", [
    (lambda: demazure_character(A2, (1, 2), (0.5, 1)), (0.5, 1)),
    (lambda: demazure_dim(longest_element(A2), (0.5, 0)), (0.5, 0)),
    (lambda: unirad_mult_identity((0.5, 1), LeviDatum(A2, {2})), (0.5, 1)),
    (lambda: demazure_operator(A2, 1, {(0.5, 0): 1}), (0.5, 0)),
    (lambda: weyl_character(A2, (1.0, 0)), (1.0, 0)),
    (lambda: levi_weyl_dim(A2, {2}, (0.5, 1)), (0.5, 1)),
    (lambda: freudenthal_multiplicity(A2, (0.5, 0), (0.5, 0)), (0.5, 0)),
    (lambda: weight_multiplicity(A2, (1.0, 1), (0, 0)), (1.0, 1)),
    (lambda: dimension_sequence(longest_element(A2), (0.5, 1)), (0.5, 1)),
], ids=["demazure_character", "demazure_dim", "unirad_mult_identity", "demazure_operator",
        "weyl_character", "levi_weyl_dim", "freudenthal_multiplicity", "weight_multiplicity",
        "dimension_sequence"])
def test_a_weight_that_is_not_integral_is_refused(call, weight):
    message = f"weight {weight} has a coordinate that is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# A simple index that is not an integer but lies between 1 and the rank:
# the first three calls raised TypeError from a list index, and LeviDatum
# kept the subset {1.0}.
@pytest.mark.parametrize("call", [
    lambda: demazure_operator(A2, 1.0, {(1, 0): 1}),
    lambda: demazure_character(A2, (1.5,), (1, 0)),
    lambda: from_word(A2, (1.0, 2)),
    lambda: LeviDatum(A2, {1.0}),
], ids=["demazure_operator", "demazure_character", "from_word", "LeviDatum"])
def test_an_index_that_is_not_an_integer_is_refused(call):
    with pytest.raises(ValueError, match=r"^simple index 1\.[05] out of range 1\.\.2$"):
        call()


def test_integer_like_coordinates_are_read_as_ints():
    class Index:  # anything with __index__, as a numpy integer has
        def __init__(self, n):
            self.n = n

        def __index__(self):
            return self.n

    assert weyl_dim(A2, (Index(1), True)) == 8
    assert weyl_character(A2, (Index(1), True)) == weyl_character(A2, (1, 1))
    assert demazure_operator(A2, 1, {(Index(1), False): 1}) == {(1, 0): 1, (-1, 1): 1}


@pytest.mark.parametrize("term", [(1,), (1, 0, 5)])
def test_demazure_operator_refuses_a_term_of_the_wrong_length(term):
    # each term was zipped with the digit places, so both read as (1, 0)
    message = f"weight {term} has {len(term)} coordinates; A2 has rank 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        demazure_operator(A2, 1, {(0, 1): 1, term: 1})


def test_freudenthal_agrees_with_character_expansion():
    # independent recursion vs the Demazure-expanded character
    grids = [
        ("A2", [(1, 0), (1, 1), (2, 1), (2, 2)]),
        ("B2", [(1, 0), (0, 1), (1, 1), (2, 2)]),
        ("G2", [(1, 0), (0, 1), (1, 1)]),
    ]
    for name, lams in grids:
        rs = root_system(name)
        for lam in lams:
            char = weyl_character(rs, lam)
            for mu, c in char.items():
                assert freudenthal_multiplicity(rs, lam, mu) == c, (name, lam, mu)
            # and a zero outside the support
            outside = tuple(x + 2 for x in lam)
            assert freudenthal_multiplicity(rs, lam, outside) == 0


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_freudenthal_matches_operator_character_across_families(name):
    # every support weight of each fundamental module (only omega_1 in
    # E6), plus a weight of the coset above the support, a weight off
    # the coset where lam + Q is not all of P, and a non-dominant one
    rs = root_system(name)
    n = rs.rank
    fundamentals = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    scale, rows = scaled_inverse_cartan(rs)
    for lam in fundamentals[: 1 if name == "E6" else n]:
        char = weyl_character(rs, lam)
        extra = [add_weights(lam, simple_root(rs, 1)), scale_weight(-1, add_weights(lam, rho(rs)))]
        off_coset = [
            sub_weights(lam, om)
            for om in fundamentals
            if any(sum(r * x for r, x in zip(row, om)) % scale for row in rows)
        ]
        for mu in list(char) + extra + off_coset[:1]:
            assert freudenthal_multiplicity(rs, lam, mu) == char.get(mu, 0), (name, lam, mu)


def _scale_at_alpha_1(rs):
    """Freudenthal's K as the first coordinate of sum_{alpha > 0} (alpha_1, alpha) alpha."""
    pairs = [sum(map(mul, dots, simple_root(rs, 1))) for dots in rs.dots]
    return sum(p * coords[0] for p, coords in zip(pairs, rs.positive_roots))


def test_freudenthal_scale_is_the_trace():
    # freudenthal_multiplicity reads K as sum_{alpha > 0} (alpha, alpha) / rank,
    # the trace of x -> sum_{alpha > 0} (x, alpha) alpha over the rank
    names = (
        [f"A{n}" for n in range(1, 13)]
        + [f"B{n}" for n in range(2, 13)]
        + [f"C{n}" for n in range(3, 13)]
        + [f"D{n}" for n in range(4, 13)]
        + ["E6", "E7", "E8", "F4", "G2"]
    )
    for name in names:
        rs = root_system(name)
        halves = half_norms(rs.positive_roots, rs.positive_roots_fund, rs.symmetrizer)
        scale, rem = divmod(2 * sum(halves), rs.rank)
        assert rem == 0 and scale == _scale_at_alpha_1(rs), name


def _gram_rows(rs):
    return gram_rows(rs.positive_roots, rs.positive_roots_fund, rs.symmetrizer)


def test_freudenthal_rows_are_k_times_inverse_cartan():
    # the Gram oracle's map x -> sum_{alpha > 0} (x, alpha) alpha is
    # K A^{-1}, against the Gauss-Jordan oracle's D A^{-1}
    for name in ["A1", "A7", "B5", "C6", "D8", "E6", "E7", "E8", "F4", "G2"]:
        rs = root_system(name)
        scale, rows = _gram_rows(rs)
        d, inverse = scaled_inverse_cartan(rs)
        assert [[d * x for x in row] for row in rows] == [[scale * x for x in row] for row in inverse], name


def _box(lo, hi, n):
    return list(product(range(lo, hi + 1), repeat=n))


# (highest weights, weights mu) per root system: whole boxes up to rank 4
DESCENT_CASES = {
    "A1": (_box(0, 6, 1), _box(-9, 9, 1)),
    "A2": (_box(0, 2, 2), _box(-3, 3, 2)),
    "B2": (_box(0, 2, 2), _box(-3, 3, 2)),
    "G2": (_box(0, 2, 2), _box(-3, 3, 2)),
    "A3": (_box(0, 1, 3), _box(-2, 2, 3)),
    "B3": (_box(0, 1, 3), _box(-2, 2, 3)),
    "C3": (_box(0, 1, 3), _box(-2, 2, 3)),
    "A4": (_box(0, 1, 4), _box(-1, 1, 4)),
    "D4": (_box(0, 1, 4), _box(-1, 1, 4)),
    "F4": ([(1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 1)], _box(-1, 1, 4)),
    "E6": ([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)], _box(-1, 1, 6)[::3]),
}


def _gram_coordinates(gram, x):
    """lam - mu+ = x in simple roots by the Gram oracle; None unless integers >= 0."""
    scale, rows = gram
    coords = [divmod(sum(map(mul, row, x)), scale) for row in rows]
    return None if any(c < 0 or rem for c, rem in coords) else [c for c, _rem in coords]


@pytest.mark.parametrize("name", DESCENT_CASES)
def test_freudenthal_descent_matches_gram_oracle(name):
    # the tree solve that writes lam - mu+ in simple roots, the halving
    # descent it replaced and the Gram oracle agree: each answers None
    # exactly where lam - mu+ is off the root lattice (a remainder) or not
    # in Q+ (a negative coordinate), Freudenthal answers 0 exactly there,
    # and its value everywhere equals the operator character's
    # coefficient; the boxes hold non-dominant mu, mu off lam's coset and
    # mu+ not below lam
    rs = root_system(name)
    lams, mus = DESCENT_CASES[name]
    gram = _gram_rows(rs)
    for lam in lams:
        char = weyl_character(rs, lam)
        for mu in mus:
            x = sub_weights(lam, dominant_conjugate(rs, mu))
            coords = _gram_coordinates(gram, x)
            assert _simple_coordinates(rs.columns, x) == descent(rs.columns, x) == coords, (name, lam, mu)
            value = freudenthal_multiplicity(rs, lam, mu)
            assert (value > 0) == (coords is not None) and value == char.get(mu, 0), (name, lam, mu)


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A5", "B2", "B3", "B5", "C3", "C5", "D4", "D6", "G2", "F4", "E6", "E7", "E8",
    "A30", "D30",
])
def test_tree_solve_matches_descent_and_gram_oracles(name):
    # x with coordinates in -6..6, which at high rank is almost never in
    # Q+, and x = sum_k c_k alpha_k for c >= 0 and for c with one
    # coordinate -1, which are in Q+ and just out of it
    rs = root_system(name)
    gram = _gram_rows(rs)
    rng = random.Random(name)
    xs = [tuple(rng.randint(-6, 6) for _ in range(rs.rank)) for _ in range(100)]
    for _ in range(100):
        c = [rng.randint(0, 4) for _ in range(rs.rank)]
        if rng.random() < 0.5:
            c[rng.randrange(rs.rank)] = -1
        x = [0] * rs.rank
        for k, col in enumerate(rs.columns):
            for j, a in col:
                x[j] += a * c[k]
        xs.append(tuple(x))
    found = 0
    for x in xs:
        coords = _gram_coordinates(gram, x)
        assert _simple_coordinates(rs.columns, x) == descent(rs.columns, x) == coords, (name, x)
        found += coords is not None
    assert found >= 25, name


def test_freudenthal_zero_answers_stay_fast():
    # lam - mu+ off the root lattice or out of Q+ at coordinates of 10^6:
    # the halving descent took from 1 ms to 14.7 s on these
    def weight(rank, *nodes):  # 10^6 times the sum of the fundamental weights at nodes
        return tuple(10**6 * (j in nodes) for j in range(1, rank + 1))

    cases = [
        ("A30", weight(30, 1, 30), weight(30, 15, 16)),
        ("A100", weight(100, 1), weight(100, 100)),
        ("A100", weight(100, 1, 100), weight(100, 50, 51)),
        ("E8", weight(8, 1, 8), weight(8, 4)),
    ]
    systems = {name: root_system(name) for name, _lam, _mu in cases}
    start = time.perf_counter()
    for name, lam, mu in cases:
        assert freudenthal_multiplicity(systems[name], lam, mu) == 0, name
    assert time.perf_counter() - start < 1.0


def test_freudenthal_at_rank_100():
    # the adjoint module of A100: 100 at the zero weight, 1 at the highest
    # weight, and 0 at omega_1, which is off its coset
    rs = root_system("A100")
    lam = (1,) + (0,) * 98 + (1,)
    assert freudenthal_multiplicity(rs, lam, (0,) * 100) == 100
    assert freudenthal_multiplicity(rs, lam, lam) == 1
    assert freudenthal_multiplicity(rs, lam, (1,) + (0,) * 99) == 0


@pytest.mark.parametrize("k", [4000, 4001])
def test_freudenthal_rank_one_deep(k):
    # V(k omega) of A1 has the weights k, k-2, ..., -k, each once; the
    # search visits (k - |mu|)/2 + 1 weights, so the ones are checked on
    # a stride plus both ends, and the zeros everywhere
    ends = set(range(k - 60, k + 1, 2))
    ones = set(range(-k, k + 1, 2)[::97]) | ends | {-mu for mu in ends} | {k % 2}
    for mu in ones:
        assert freudenthal_multiplicity(A1, (k,), (mu,)) == 1, (k, mu)
    for mu in range(-k - 5, k + 6):
        if (k - mu) % 2 or abs(mu) > k:
            assert freudenthal_multiplicity(A1, (k,), (mu,)) == 0, (k, mu)


def test_a_corrupted_root_table_breaks_freudenthal():
    # the same wrong highest root: the division at the zero weight of the
    # adjoint module leaves a remainder or a negative multiplicity
    rs = _corrupted_dots("A2", 2, (1, 2))
    with pytest.raises(RuntimeError, match=r"^A2: Freudenthal recursion broke at \(0, 0\)$"):
        freudenthal_multiplicity(rs, (1, 1), (0, 0))


def test_freudenthal_a2_closed_form():
    # the zero weight of V((k, k)) in A2 has multiplicity k + 1
    assert freudenthal_multiplicity(A2, (200, 200), (0, 0)) == 201
    for k in range(6):
        assert freudenthal_multiplicity(A2, (k, k), (0, 0)) == k + 1


def test_dual_weight():
    assert dual_weight(A2, (2, 1)) == (1, 2)
    assert dual_weight(root_system("A3"), (1, 2, 3)) == (3, 2, 1)
    assert dual_weight(root_system("B2"), (2, 1)) == (2, 1)
    assert dual_weight(root_system("D4"), (1, 2, 3, 4)) == (1, 2, 3, 4)
    e6 = root_system("E6")
    assert dual_weight(e6, (1, 0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        dual_weight(A2, (-1, 0))


def test_dual_weight_is_minus_w0_in_every_family():
    # dual_weight walks -lam into the dominant chamber; w0 takes lam to the
    # antidominant weight of its orbit, so -w0(lam) is that same weight
    rng = random.Random(5)
    for name in ("A4", "B3", "C4", "D5", "E6", "F4", "G2"):
        rs = root_system(name)
        w0 = longest_element(rs)
        fundamentals = [tuple(int(j == i) for j in range(rs.rank)) for i in range(rs.rank)]
        randoms = [tuple(rng.randint(0, 4) for _ in range(rs.rank)) for _ in range(20)]
        for lam in fundamentals + randoms:
            assert dual_weight(rs, lam) == tuple(-x for x in w0.apply(lam)), (name, lam)


@given(data=st.data())
@settings(max_examples=50)
def test_dual_is_involution_and_preserves_dim(data):
    rs = root_system(data.draw(st.sampled_from(["A3", "B3", "G2"])))
    lam = data.draw(st.tuples(*[st.integers(0, 3)] * rs.rank))
    dual = dual_weight(rs, lam)
    assert dual_weight(rs, dual) == lam
    assert weyl_dim(rs, dual) == weyl_dim(rs, lam)


def test_extremal_coefficient_is_one():
    # the weight w(lambda) appears with coefficient 1 in the w-character
    rs = root_system("A3")
    lam = rho(rs)
    for w in weyl_group(rs):
        char = demazure_character(rs, reduced_word(w), lam)
        assert char[w.apply(lam)] == 1
        assert all(c > 0 for c in char.values())


# Kohnert's rule (Kohnert, Bayreuth. Math. Schr. 38, 1991): the key polynomial of a weak composition a
# sums x^{wt(D)} over the diagrams D reached from the left-justified
# diagram of a (a_i cells in row i, row 1 lowest) by moving the rightmost
# cell of a row to the nearest empty cell below it in its column.  In type
# A_r the key polynomial of a = w(lam) is the Demazure character of (w, lam)
# with x^b read as the weight (b_1 - b_2, ..., b_r - b_{r+1}).  The rule
# shares no code with the operator kernel.

def _kohnert(a):
    start = frozenset((r, c) for r, length in enumerate(a) for c in range(length))
    seen = {start}
    todo = [start]
    while todo:
        diagram = todo.pop()
        ends = {}
        for r, c in diagram:
            ends[r] = max(ends.get(r, c), c)
        for r, c in ends.items():
            below = next((s for s in range(r - 1, -1, -1) if (s, c) not in diagram), None)
            if below is not None:
                moved = diagram - {(r, c)} | {(below, c)}
                if moved not in seen:
                    seen.add(moved)
                    todo.append(moved)
    poly = {}
    for diagram in seen:
        rows = [0] * len(a)
        for r, _c in diagram:
            rows[r] += 1
        weight = tuple(x - y for x, y in zip(rows, rows[1:]))
        poly[weight] = poly.get(weight, 0) + 1
    return poly


@pytest.mark.parametrize("name", ["A2", "A3", "A4"])
def test_type_a_characters_are_kohnert_key_polynomials(name):
    rs = root_system(name)
    lams = [rho(rs), tuple(int(j in (0, rs.rank - 1)) for j in range(rs.rank))]
    if rs.rank < 4:
        lams += [(2,) + (0,) * (rs.rank - 1), (0,) * (rs.rank - 1) + (1,)]
    for lam in lams:
        parts = [sum(lam[j:]) for j in range(rs.rank)] + [0]
        for w in weyl_group(rs):
            word = reduced_word(w)
            a = list(parts)
            for i in reversed(word):  # w(lam) = s_{i1}(... s_{ik}(lam)), s_i swaps parts i, i+1
                a[i - 1], a[i] = a[i], a[i - 1]
            assert demazure_character(rs, word, lam) == _kohnert(a), (name, word, lam)


# Lakshmibai-Seshadri paths (Littelmann, Invent. Math. 116, 1994, and
# Ann. of Math. 142, 1995).  An LS path of shape lam is a sequence
# tau_1 > ... > tau_r in the orbit W lam, in the Bruhat order there, with
# rationals 0 < a_1 < ... < a_{r-1} < 1.  For each i, tau_i and tau_{i+1}
# are joined by an a_i-chain: a descending chain of covers kappa < s_beta
# kappa, beta > 0, with <kappa, beta^vee> > 0 and a_i <kappa, beta^vee> an
# integer.  The path ends at pi(1) = sum_i (a_i - a_{i-1}) tau_i (a_0 = 0,
# a_r = 1), and ch V_w(lam) sums e^{pi(1)} over the paths whose first
# direction tau_1 is at most w lam.  In W lam the length of kappa is the
# number of positive roots beta with <kappa, beta^vee> < 0, and lam is the
# least element.  The paths read only the root tables and reflections,
# never the operator kernel.

def _ls_paths(rs, lam):
    """(below, paths) for the shape lam.

    below[kappa] is the set of orbit points strictly below kappa in the
    Bruhat order, and paths lists (tau_1, pi(1)) for every LS path.
    """
    orbit = {lam}
    todo = [lam]
    while todo:
        mu = todo.pop()
        for i in range(1, rs.rank + 1):
            nu = simple_reflection(rs, i, mu)
            if nu not in orbit:
                orbit.add(nu)
                todo.append(nu)
    halves = half_norms(rs.positive_roots, rs.positive_roots_fund, rs.symmetrizer)
    roots = list(zip(rs.positive_roots_fund, rs.dots, halves))

    def coroot(kappa, dots, half):
        return sum(map(mul, dots, kappa)) // half

    length = {kappa: sum(coroot(kappa, d, h) < 0 for _b, d, h in roots) for kappa in orbit}
    covers = {kappa: [] for kappa in orbit}  # upper -> [(kappa, <kappa, beta^vee>)]
    for kappa in orbit:
        for beta, dots, half in roots:
            p = coroot(kappa, dots, half)
            upper = tuple(k - p * b for k, b in zip(kappa, beta))
            if p > 0 and length[upper] == length[kappa] + 1:
                covers[upper].append((kappa, p))
    by_length = sorted(orbit, key=length.get)

    def below(step):
        # the elements reached from each one by a nonempty chain of the covers step admits
        reach = {}
        for sigma in by_length:
            reach[sigma] = set()
            for kappa, p in covers[sigma]:
                if step(p):
                    reach[sigma] |= {kappa} | reach[kappa]
        return reach

    stops = sorted({Fraction(k, p) for cs in covers.values() for _k, p in cs for k in range(1, p)})
    chains = [(a, below(lambda p, a=a: (a * p).denominator == 1)) for a in stops]
    paths = []

    def extend(first, tau, a, point):
        paths.append((first, tuple(x + (1 - a) * t for x, t in zip(point, tau))))
        for b, reach in chains:
            if b > a:
                for nxt in reach[tau]:
                    extend(first, nxt, b, tuple(x + (b - a) * t for x, t in zip(point, tau)))

    for tau in orbit:
        extend(tau, tau, Fraction(0), (Fraction(0),) * rs.rank)
    return below(lambda p: True), paths


def _ls_character(bruhat_below, paths, top):
    allowed = bruhat_below[top] | {top}
    char = {}
    for first, end in paths:
        if first in allowed:
            assert all(x.denominator == 1 for x in end), end
            mu = tuple(map(int, end))
            char[mu] = char.get(mu, 0) + 1
    return char


LS_CASES = [
    ("A2", [(1, 1), (2, 1)], None),
    ("B2", [(1, 1), (2, 1)], None),
    ("G2", [(1, 0), (1, 1)], None),
    ("A3", [(1, 1, 1)], None),
    ("B3", [(1, 1, 1)], None),
    ("C3", [(1, 1, 1)], None),
    ("F4", [(1, 0, 0, 0), (0, 0, 0, 1)], 6),
    ("E6", [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)], 6),
]


@pytest.mark.parametrize("name,lams,samples", LS_CASES)
def test_demazure_characters_are_ls_path_sums(name, lams, samples):
    rs = root_system(name)
    if samples is None:
        group = weyl_group(rs)
    else:
        rng = random.Random(name)
        group = [from_word(rs, rng.choices(range(1, rs.rank + 1), k=4 * k + 3)) for k in range(samples)]
    for lam in lams:
        bruhat_below, paths = _ls_paths(rs, lam)
        assert len(paths) == weyl_dim(rs, lam), (name, lam)
        for w in group:
            word = reduced_word(w)
            expected = _ls_character(bruhat_below, paths, w.apply(lam))
            assert demazure_character(rs, word, lam) == expected, (name, word, lam)


def test_apply_demazure_word_matches_demazure_character():
    lam = (2, 1)
    word = (2, 1, 2)
    assert _apply(A2, word, {lam: 1}) == demazure_character(A2, word, lam)


def test_json_round_trip():
    char = demazure_character(A2, (1, 2, 1), (1, 1))
    text = character_to_json(A2, char)
    rs2, char2 = character_from_json(text)
    assert rs2 is A2
    assert char2 == char
    # machine-readable, sorted, coefficients as strings
    doc = json.loads(text)
    assert doc["root_system"] == "A2"
    weights = [tuple(t["weight"]) for t in doc["terms"]]
    assert weights == sorted(weights)
    assert all(isinstance(t["coeff"], str) for t in doc["terms"])


def test_json_round_trip_negative_coefficients():
    char = demazure_operator(A1, 1, {(-4,): 2})
    assert char == {(-2,): -2, (0,): -2, (2,): -2}
    _, back = character_from_json(character_to_json(A1, char))
    assert back == char


@pytest.mark.parametrize("terms", [
    [{"weight": [0.5, 1], "coeff": "1"}],  # read as {(0.5, 1): 1}
    [{"weight": [1, 0], "coeff": 1.9}],  # read as {(1, 0): 1}
    [{"weight": [1, 0], "coeff": 2}],
    [{"weight": [1, 0], "coeff": "1"}, {"weight": [True, 0], "coeff": "0"}],  # read as {(1, 0): 0}
], ids=["half weight", "float coeff", "int coeff", "repeated weight"])
def test_json_that_no_character_writes_is_refused(terms):
    with pytest.raises(ValueError):
        character_from_json(json.dumps({"root_system": "A2", "terms": terms}))


def test_big_dimensions_stay_exact():
    # lambda = (n-1) rho makes every factor of the product formula equal n,
    # so the 72-digit answer is pinned exactly
    e8 = root_system("E8")
    assert weyl_dim(e8, scale_weight(3, rho(e8))) == 4 ** 120


# The tuple string walk that the packed-integer kernel replaced, kept as
# its oracle: it shares no code with the kernel beyond the Cartan matrix.

def _reference_operator(rs, i, char):
    alpha = simple_root(rs, i)
    k = i - 1
    out = {}
    for mu, coeff in char.items():
        m = mu[k]
        if m >= 0:
            w = mu
            for _ in range(m + 1):
                out[w] = out.get(w, 0) + coeff
                w = sub_weights(w, alpha)
        elif m <= -2:
            w = mu
            for _ in range(-1 - m):
                w = add_weights(w, alpha)
                out[w] = out.get(w, 0) - coeff
    return {w: c for w, c in out.items() if c}


def _reference_word(rs, word, char):
    for i in reversed(word):
        char = _reference_operator(rs, i, char)
    return char


KERNEL_TYPES = ["A1", "A3", "B3", "C3", "D4", "G2", "F4", "E6"]


@st.composite
def _kernel_cases(draw):
    rs = root_system(draw(st.sampled_from(KERNEL_TYPES)))
    n = rs.rank
    top = 3 if n <= 3 else 2
    # a spike puts the whole of sum|mu_j| on one coordinate, the shape
    # whose orbit reaches the packing radius
    spike = st.builds(
        lambda j, m: tuple(m if k == j else 0 for k in range(n)),
        st.integers(0, n - 1),
        st.integers(-2 * top, 2 * top),
    )
    weight = st.one_of(
        st.just((0,) * n), st.tuples(*[st.integers(-top, top)] * n), spike
    )
    char = draw(
        st.dictionaries(weight, st.integers(-5, 5).filter(bool), min_size=1, max_size=4)
    )
    # free words, so repeated and otherwise non-reduced ones are common
    word = draw(st.lists(st.integers(1, n), max_size=6))
    return rs, tuple(word), char


@given(case=_kernel_cases())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_operator(case):
    rs, word, char = case
    out = _apply(rs, word, char)
    assert out == _reference_word(rs, word, char)
    assert list(out) == sorted(out)  # the memos rely on sorted terms


def test_kernel_reaches_packing_radius():
    # Along the longest word, the full characters of the fundamental
    # weights contain whole Weyl orbits, so some coordinate reaches
    # h = max root coefficient, one below the radius R = h + 1 of the
    # packed digits.
    for name in KERNEL_TYPES:
        rs = root_system(name)
        h = max(max(c) for c in rs.positive_roots)
        word = reduced_word(longest_element(rs))
        reach = 0
        for j in range(rs.rank):
            for sign in (1, -1):
                lam = tuple(sign * int(k == j) for k in range(rs.rank))
                out = _apply(rs, word, {lam: 1})
                assert out == _reference_word(rs, word, {lam: 1}), (name, lam)
                reach = max([reach, *(abs(x) for mu in out for x in mu)])
        assert reach == h, name


# Long alpha_i-strings, packed simple roots of both signs (alpha_2 of A2
# packs to a negative integer) and starts whose running sums along a
# string return to 0 part of the way down, or cancel altogether.
LONG_STRING_CASES = [
    ("A1", (1,), {(2400,): 1}),
    ("A1", (1,), {(-2400,): 1}),
    ("A2", (1, 2, 1), {(40, 0): 1}),
    ("A2", (2, 1, 2), {(40, 0): 1}),
    ("A2", (1, 2, 1), {(0, 40): 1}),
    ("A2", (2, 1, 2), {(0, 40): 1}),
    ("G2", None, {(12, 12): 1}),
    ("A1", (1,), {(6,): 1, (2,): -1}),
    ("A1", (1,), {(5,): 1, (-7,): 2}),
    ("A1", (1,), {(3,): 1, (-5,): 1}),
    ("A2", (1, 2, 1), {(5, -3): 2, (1, -1): -2, (-4, 2): 1, (3, 0): -1}),
    ("B2", (2, 1, 2), {(-6, 4): 3, (2, -5): -1, (4, 0): -3}),
]


@pytest.mark.parametrize("name, word, char", LONG_STRING_CASES)
def test_kernel_on_long_strings_and_both_signs(name, word, char):
    rs = root_system(name)
    if word is None:
        word = reduced_word(longest_element(rs))
    out = _apply(rs, word, char)
    assert out == _reference_word(rs, word, char)
    assert all(out.values())


def test_letter_that_fixes_every_term_returns_its_input():
    # every term pairs to 0 with alpha_1^vee: the letter is the identity
    pk = _packing(A2, [(6, 0)])
    fixed = {_pack(pk, mu): c for mu, c in {(0, 3): 1, (0, -2): -4}.items()}
    assert _letter(pk, 1, fixed) is fixed
    moved = {**fixed, _pack(pk, (1, 0)): 2}
    out = _letter(pk, 1, moved)
    assert out is not moved and out == {**fixed, _pack(pk, (1, 0)): 2, _pack(pk, (-1, 1)): 2}


def test_weight_multiplicity_of_a_long_string_character():
    # V((200, 200)) of A2: strings of up to 401 weights through the kernel
    assert weight_multiplicity(A2, (200, 200), (0, 0)) == 201
    # (180, 195) is dominant and (-180, 375) = s_1 (180, 195)
    for mu in [(180, 195), (-180, 375)]:
        assert weight_multiplicity(A2, (200, 200), mu) == freudenthal_multiplicity(A2, (200, 200), mu) == 11


# The memo keeps whole characters of (word, lam); the result must not
# depend on which words were asked for before, nor in which order.

@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2"])
@pytest.mark.parametrize("which", ["rho", "omega1", "2omega_n"])
def test_memo_matches_reference_in_any_order(name, which):
    rs = root_system(name)
    n = rs.rank
    lam = {
        "rho": rho(rs),
        "omega1": (1,) + (0,) * (n - 1),
        "2omega_n": (0,) * (n - 1) + (2,),
    }[which]
    group = weyl_group(rs)
    expected = {w: _reference_word(rs, reduced_word(w), {lam: 1}) for w in group}
    for order in (group[::-1], group):  # longest first, then shortest first
        _demazure_items.cache_clear()
        for w in order:
            char = demazure_character(rs, reduced_word(w), lam)
            assert char == expected[w], (name, lam, w)
            assert demazure_dim(w, lam) == sum(char.values()), (name, lam, w)


def test_memo_agrees_across_reduced_words():
    # words other than the lex-least one fill the memo with their own suffixes
    rs = root_system("A3")
    lam = (1, 1, 2)
    w0 = longest_element(rs)
    expected = _reference_word(rs, reduced_word(w0), {lam: 1})
    _demazure_items.cache_clear()
    words = list(all_reduced_words(w0))
    assert len(words) == 16
    for word in words:
        assert demazure_character(rs, word, lam) == expected, word
    assert weyl_character(rs, lam) == expected


def test_long_word_stays_within_recursion_limit():
    # the longest element of A40 has 820 letters, a cold memo chain of
    # that many nested calls would pass the interpreter's limit
    rs = root_system("A40")
    lam = (1,) + (0,) * 39
    _demazure_items.cache_clear()
    char = weyl_character(rs, lam)
    assert len(char) == 41 and set(char.values()) == {1}
    assert demazure_dim(longest_element(rs), lam) == 41


def test_repeat_calls_build_no_packing(monkeypatch):
    # a memoised character is decoded with the packing stored beside it
    built = []

    def counted(rs, start):
        built.append(rs.name)
        return _packing(rs, start)

    monkeypatch.setattr(characters, "_packing", counted)
    A3 = root_system("A3")
    _demazure_items.cache_clear()
    calls = [
        lambda: demazure_character(A3, (1, 2, 3), (1, 0, 1)),
        lambda: weyl_character(A3, (2, 0, 1)),
        lambda: demazure_dim(from_word(A3, (3, 2)), (0, 1, 1)),
        lambda: restrict_to_levi((1, 1, 1), LeviDatum(A3, {1, 3})),
    ]
    for call in calls:
        first = call()
        del built[:]
        assert call() == first
        assert built == []
    assert weight_multiplicity(A3, (2, 1, 0), (0, 0, 0)) == 3
    del built[:]
    assert weight_multiplicity(A3, (2, 1, 0), (0, 0, 0)) == 3
    assert built == []  # the range test reads the radius alone


def test_out_of_range_weight_builds_no_character():
    _demazure_items.cache_clear()
    assert weight_multiplicity(A2, (300, 300), (10**6, 0)) == 0
    assert _demazure_items.cache_info().misses == 0


def test_returned_characters_are_fresh_dicts():
    lam = (2, 1)
    word = (1, 2)
    first = demazure_character(A2, word, lam)
    full = weyl_character(A2, lam)
    expected, expected_full = dict(first), dict(full)
    for char in (first, full):
        char[(0, 0)] = char.get((0, 0), 0) + 7
        char[(99, 99)] = 1
        del char[lam]
    assert demazure_character(A2, word, lam) == expected
    assert weyl_character(A2, lam) == expected_full
    assert demazure_dim(from_word(A2, word), lam) == sum(expected.values())
    assert weight_multiplicity(A2, lam, (99, 99)) == 0
    assert weight_multiplicity(A2, lam, lam) == 1


@pytest.mark.parametrize("name, lam", [("A2", (2, 1)), ("B2", (1, 2)), ("G2", (1, 1))])
def test_weight_multiplicity_at_packing_boundary(name, lam):
    # R = h * sum|lam_j| + 1 bounds every coordinate of the module's
    # weights; mu at or past it must read 0, not another weight's digit
    rs = root_system(name)
    h = max(max(c) for c in rs.positive_roots)
    radius = h * sum(lam) + 1
    char = weyl_character(rs, lam)
    base = 2 * radius + 1
    mus = [(10**6, -(10**6)), (-(10**6), 10**6)]
    for x in (radius, -radius, radius - 1, 1 - radius):
        mus += [(x, 0), (0, x), (x, -x), (x, x)]
    for nu in char:  # each of the last two packs to nu's own key
        mus += [(nu[0], nu[1] + base), (nu[0] - 1, nu[1] + base), (nu[0] + 1, nu[1] - base)]
    rng = random.Random(2003)
    mus += [(rng.randint(-3 * radius, 3 * radius), rng.randint(-3 * radius, 3 * radius)) for _ in range(200)]
    mus += list(char)
    for mu in mus:
        assert weight_multiplicity(rs, lam, mu) == char.get(mu, 0), (name, lam, mu)
