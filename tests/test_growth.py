import itertools
import random
import re
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from demazure import (
    DilationSequence,
    WeylElement,
    demazure_character,
    demazure_dim,
    demazure_fold,
    dimension_sequence,
    finite_differences,
    from_word,
    growth_degree,
    identity,
    longest_element,
    reduced_word,
    rho,
    root_system,
    weyl_group,
)
from demazure import growth, weyl
import oracles
from oracles import half_norms, principal_specialisation, scaled_inverse_cartan

A2 = root_system("A2")


def test_finite_differences():
    assert finite_differences((1, 4, 9, 16)) == (3, 5, 7)
    assert finite_differences((3, 5, 7)) == (2, 2)
    assert finite_differences((5,)) == ()


def test_frozen_quadratic_sequence():
    # dim V_{s1 s2}(n(1,1)) = (n+1)(3n+2)/2
    w = from_word(A2, (1, 2))
    seq = dimension_sequence(w, (1, 1), 6)
    assert seq.values == (1, 5, 12, 22, 35, 51, 70)
    assert all(2 * v == (n + 1) * (3 * n + 2) for n, v in enumerate(seq.values))
    assert growth_degree(seq) == 2 == w.length


def test_cubic_full_flag():
    w0 = longest_element(A2)
    seq = dimension_sequence(w0, (1, 1), 7)
    assert seq.values == tuple((n + 1) ** 3 for n in range(8))
    assert growth_degree(seq) == 3


def test_identity_is_constant():
    seq = dimension_sequence(identity(A2), (2, 3), 5)
    assert set(seq.values) == {1}
    assert growth_degree(seq) == 0


def test_singular_weight_drops_degree():
    # <omega_2, alpha_1^vee> = 0, so s1 contributes nothing at omega_2
    s1 = from_word(A2, (1,))
    seq = dimension_sequence(s1, (0, 1), 5)
    assert set(seq.values) == {1}
    assert growth_degree(seq) == 0 < s1.length
    # at omega_1 the line of weights is genuinely one-dimensional growth
    seq = dimension_sequence(s1, (1, 0), 5)
    assert seq.values == (1, 2, 3, 4, 5, 6)
    assert growth_degree(seq) == 1


def test_degree_equals_length_at_rho_b2():
    rs = root_system("B2")
    for w in weyl_group(rs):
        seq = dimension_sequence(w, rho(rs), w.length + 4)
        assert growth_degree(seq) == w.length


def test_growth_degree_accepts_raw_sequences():
    assert growth_degree((7, 7, 7, 7)) == 0
    assert growth_degree((1, 2, 3, 4, 5)) == 1
    assert growth_degree([1, 8, 27, 64, 125, 216]) == 3


def test_growth_degree_needs_a_vanishing_difference():
    with pytest.raises(RuntimeError):
        growth_degree((1, 2, 4, 8, 16))


def _polynomial(coeffs, size):
    return [sum(c * n**k for k, c in enumerate(coeffs)) for n in range(size)]


# free integer lists, which mostly have no vanishing difference, and
# values of integer polynomials, which have one; both may be empty or
# of length 1, and both take negative entries
SEQUENCES = st.one_of(
    st.lists(st.integers(-50, 50), max_size=10),
    st.builds(_polynomial, st.lists(st.integers(-9, 9), max_size=4), st.integers(0, 9)),
)


@given(values=SEQUENCES)
@settings(max_examples=300, deadline=None)
def test_differences_and_degree_match_the_generator_oracles(values):
    assert finite_differences(values) == oracles.finite_differences(values)
    try:
        expected = oracles.growth_degree(values)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError) as got:
            growth_degree(values)
        assert str(got.value) == str(exc)
    else:
        assert growth_degree(values) == expected


def test_degree_oracle_reads_known_sequences():
    assert oracles.growth_degree([-3, -3, -3]) == 0
    assert oracles.growth_degree([4, -1, -6, -11]) == 1
    assert oracles.growth_degree(_polynomial([1, -2, 0, 3], 6)) == 3
    for values in ([], [5], [1, 2, 4, 8, 16]):
        with pytest.raises(RuntimeError, match="no vanishing finite difference"):
            oracles.growth_degree(values)


def test_dimension_sequence_validation():
    w = from_word(A2, (1, 2))
    with pytest.raises(ValueError):
        dimension_sequence(w, (-1, 1), 6)
    # too short to certify a degree for this length
    with pytest.raises(ValueError):
        dimension_sequence(w, (1, 1), w.length + 1)


@pytest.mark.parametrize("n_max", [7.5, 7.0, "7"])
def test_n_max_that_is_not_an_integer_is_refused_by_name(n_max):
    # 7.5 once reached the specialisation as the weight (7.5, 7.5), and
    # "7" raised TypeError from a comparison
    message = f"n_max={n_max!r} is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dimension_sequence(longest_element(A2), (1, 1), n_max)


class _Seven:
    def __index__(self):
        return 7


def test_n_max_is_read_through_index():
    w0 = longest_element(A2)
    cubes = tuple((n + 1) ** 3 for n in range(8))
    assert dimension_sequence(w0, (1, 1), 7).values == cubes
    assert dimension_sequence(w0, (1, 1), _Seven()).values == cubes
    # a bool reads as before: True is 1, too small, and named as given
    with pytest.raises(ValueError, match=r"^n_max=True too small; need at least length\(w\)\+2 = 5$"):
        dimension_sequence(w0, (1, 1), True)


def test_default_window():
    w = from_word(A2, (1, 2))
    seq = dimension_sequence(w, (1, 1))
    assert len(seq.values) == w.length + 5  # n = 0 .. length+4


def test_sequence_is_frozen_record():
    w = from_word(A2, (1,))
    seq = dimension_sequence(w, (1, 0), 4)
    assert isinstance(seq, DilationSequence)
    with pytest.raises(AttributeError):
        seq.values = ()


def _check_against_operator(w, lam):
    # the specialisation shares no code with the operator kernel behind demazure_dim
    seq = dimension_sequence(w, lam, w.length + 2)
    expected = tuple(demazure_dim(w, tuple(n * x for x in lam)) for n in range(w.length + 3))
    assert seq.values == expected, (w, lam)


# regular and singular weights; omega_1 + omega_3 is singular in rank 3
WHOLE_GROUP_WEIGHTS = {
    "A1": [(1,), (3,)], "A2": [(1, 1), (0, 2)], "A3": [(1, 1, 1), (1, 0, 1)],
    "B2": [(1, 1), (1, 0)], "B3": [(1, 0, 1)], "C3": [(1, 0, 1)], "G2": [(1, 1), (0, 1)],
}


@pytest.mark.parametrize("name", WHOLE_GROUP_WEIGHTS)
def test_dimensions_match_operator_on_whole_group(name):
    lams = WHOLE_GROUP_WEIGHTS[name]
    for w in weyl_group(root_system(name)):
        for lam in lams:
            _check_against_operator(w, lam)


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D4", "F4"])
def test_dimensions_match_operator_on_sampled_elements(name):
    rs = root_system(name)
    rng = random.Random(f"growth-{name}")
    lam = tuple(int(j in (0, rs.rank - 1)) for j in range(rs.rank))
    for w in rng.sample([w for w in weyl_group(rs) if w.length <= 7], 6):
        _check_against_operator(w, lam)


def _principal(rs, char, lam):
    """sum_mu c_mu q^{ht(lam - mu)} as a coefficient list."""
    scale, rows = scaled_inverse_cartan(rs)
    out = {}
    for mu, c in char.items():
        diff = [a - b for a, b in zip(lam, mu)]
        ht, rem = divmod(sum(sum(r * x for r, x in zip(row, diff)) for row in rows), scale)
        assert rem == 0 and ht >= 0
        out[ht] = out.get(ht, 0) + c
    return [out.get(k, 0) for k in range(max(out) + 1)]


def _digits(x, q):
    """The base-q digits of x >= 0, lowest first."""
    out = []
    while x:
        x, d = divmod(x, q)
        out.append(d)
    return out


@pytest.mark.parametrize("name, lam", [
    ("A4", (1, 0, 1, 0)), ("B3", (1, 1, 0)), ("C3", (0, 1, 1)), ("D4", (1, 0, 0, 1)),
    ("E6", (1, 0, 0, 0, 0, 0)), ("F4", (0, 0, 0, 1)), ("G2", (1, 1)),
])
def test_base_q_digits_are_principal_specialisations(name, lam):
    rs = root_system(name)
    rng = random.Random(f"principal-{name}")
    top = len(rs.positive_roots)
    for _ in range(4):
        letters = [rng.randint(1, rs.rank) for _ in range(rng.randint(1, min(top - 1, 9)))]
        w = demazure_fold(identity(rs), letters)
        assert 0 < w.length < top
        word = reduced_word(w)
        q, at_q = growth._specialisation(rs, word, lam, 2)
        for n, got in enumerate(at_q):
            n_lam = tuple(n * x for x in lam)
            assert _digits(got, q) == _principal(rs, demazure_character(rs, word, n_lam), n_lam), (word, n)


def _check_against_slices(w, lam):
    # the gap-separated coefficient lists of the oracle, summed, and read as base-Q digits
    word = reduced_word(w)
    slices = principal_specialisation(growth._interval(w.rs, word), lam, w.length + 4)
    assert dimension_sequence(w, lam).values == tuple(map(sum, slices)), (w, lam)
    q, at_q = growth._specialisation(w.rs, word, lam, w.length + 4)
    for got, coeffs in zip(at_q, slices):
        digits = _digits(got, q)
        assert digits + [0] * (len(coeffs) - len(digits)) == coeffs, (w, lam)


@pytest.mark.parametrize("name", ["B3", "C3"])
def test_dimensions_match_slice_oracle_on_whole_group(name):
    for w in weyl_group(root_system(name)):
        _check_against_slices(w, (1, 0, 1))


def test_dimensions_match_slice_oracle_on_sampled_elements():
    rs = root_system("F4")
    sample = random.Random("slices-F4").sample([w for w in weyl_group(rs) if w.length <= 12], 6)
    for w in sample:
        _check_against_slices(w, (1, 0, 0, 1))


def _corrupted(monkeypatch, rs, word, j, k, pair):
    """Make growth read the chain of word with pair k of letter j replaced."""
    points, sizes, pairs = growth._interval(rs, word)
    letter = pairs[j][:k] + (pair,) + pairs[j][k + 1:]
    broken = pairs[:j] + (letter,) + pairs[j + 1:]
    monkeypatch.setattr(growth, "_interval", lambda rs, word: (points, sizes, broken))


def test_corrupted_division_raises(monkeypatch):
    # lengthen one c: the quotient is then not a polynomial, and the remainder test must see it
    low, high, c = growth._interval(A2, (1, 2, 1))[2][0][0]
    _corrupted(monkeypatch, A2, (1, 2, 1), 0, 0, (low, high, c + 1))
    with pytest.raises(RuntimeError, match="principal specialisation"):
        dimension_sequence(longest_element(A2), (1, 1), 5)


def test_swapped_pair_raises(monkeypatch):
    # divide from the upper point of a pair of the second letter
    low, high, c = growth._interval(A2, (1, 2, 1))[2][1][0]
    _corrupted(monkeypatch, A2, (1, 2, 1), 1, 0, (high, low, c))
    with pytest.raises(RuntimeError, match="principal specialisation"):
        dimension_sequence(longest_element(A2), (1, 1), 5)


@pytest.mark.parametrize("at_q, message", [
    ([1, 3, 2, 4, 5], "dilation sequence must be nondecreasing"),
    ([1, 2, 3, 5, 4], "dilation sequence must be nondecreasing"),
])
def test_dimension_sequence_refuses_a_broken_specialisation(monkeypatch, at_q, message):
    monkeypatch.setattr(growth, "_specialisation", lambda *args: (1 << 20, at_q))
    with pytest.raises(RuntimeError) as exc:
        dimension_sequence(from_word(A2, (1, 2)), (1, 1))
    assert str(exc.value) == message


def test_the_n_zero_entry_is_never_divided(monkeypatch):
    # one division per pair and dilation n = 1..n_max; n = 0 is 1 without one
    calls = []

    def counting(a, b):
        calls.append(b)
        return divmod(a, b)

    rs = root_system("B3")
    w0 = longest_element(rs)
    n_max = w0.length + 2
    # the chain runs on the coset word: its interval is a memo hit
    pairs = sum(map(len, growth._interval(rs, weyl._coset_word(w0, (1, 1, 1)))[2]))
    hits = growth._interval.cache_info().hits
    monkeypatch.setattr(growth, "divmod", counting, raising=False)
    seq = dimension_sequence(w0, (1, 1, 1), n_max)
    assert growth._interval.cache_info().hits == hits + 1
    assert len(calls) == pairs * n_max
    assert len(seq.values) == n_max + 1 and seq.values[0] == 1


def test_every_shifted_c_raises_on_b3():
    # c + 1 and c - 1 on each pair with c >= 2 in the chain of w0 at rho
    rs = root_system("B3")
    w0 = longest_element(rs)
    word = reduced_word(w0)
    pairs = growth._interval(rs, word)[2]
    cases = [
        (j, k, (low, high, c + d))
        for j, letter in enumerate(pairs)
        for k, (low, high, c) in enumerate(letter)
        if c >= 2
        for d in (1, -1)
    ]
    assert len(cases) == 128
    for j, k, pair in cases:
        with pytest.MonkeyPatch.context() as mp:
            _corrupted(mp, rs, word, j, k, pair)
            with pytest.raises(RuntimeError, match="principal specialisation"):
                dimension_sequence(w0, rho(rs))


def _covers_below(w, lam):
    """The pairs (w s_beta, <lam, beta^vee>) over the beta > 0 with l(w s_beta) = l(w) - 1.

    w s_beta is built from w's orbit vector u = w^{-1} rho as
    s_beta(u) = u - <u, beta^vee> beta; a coroot pairing is the dot
    vector's product over the half-norm.
    """
    rs = w.rs
    halves = half_norms(rs.positive_roots, rs.positive_roots_fund, rs.symmetrizer)
    for beta, dots, half in zip(rs.positive_roots_fund, rs.dots, halves):
        k = sum(map(mul, dots, w.u)) // half
        v = WeylElement(rs, tuple(x - k * b for x, b in zip(w.u, beta)))
        if v.length == w.length - 1:
            yield v, sum(map(mul, dots, lam)) // half


def _chevalley_degree(w, lam, memo):
    """deg_lam of the Schubert variety X_w by Chevalley's formula.

    deg(e) = 1 and deg(w) = sum <lam, beta^vee> deg(w s_beta) over the
    Bruhat covers w s_beta of w; memo maps orbit vectors to degrees at lam.
    """
    if w.u not in memo:
        memo[w.u] = 1 if w.length == 0 else sum(
            pair * _chevalley_degree(v, lam, memo) for v, pair in _covers_below(w, lam)
        )
    return memo[w.u]


def _check_leading_term(w, lam, memo):
    # the l(w)-th finite difference of n -> dim V_w(n lam) is the constant deg_lam X_w
    diffs = dimension_sequence(w, lam).values
    for _ in range(w.length):
        diffs = finite_differences(diffs)
    assert set(diffs) == {_chevalley_degree(w, lam, memo)}, (w, lam)


# a regular and a singular weight each
CHEVALLEY_WEIGHTS = {
    "A2": [(1, 1), (0, 2)], "B2": [(1, 1), (1, 0)], "G2": [(1, 1), (0, 1)],
    "A3": [(1, 1, 1), (1, 0, 1)], "B3": [(1, 1, 1), (1, 0, 1)], "C3": [(2, 1, 1), (0, 1, 0)],
}


@pytest.mark.parametrize("name", CHEVALLEY_WEIGHTS)
def test_leading_term_is_chevalley_degree_on_whole_group(name):
    rs = root_system(name)
    for lam in CHEVALLEY_WEIGHTS[name]:
        memo = {}
        for w in weyl_group(rs):
            _check_leading_term(w, lam, memo)


@pytest.mark.parametrize("name, lams", [
    ("D4", [(1, 1, 1, 1), (0, 1, 0, 0)]), ("F4", [(1, 1, 1, 1), (1, 0, 0, 1)]),
])
def test_leading_term_is_chevalley_degree_on_sampled_elements(name, lams):
    rs = root_system(name)
    rng = random.Random(f"chevalley-{name}")
    sample = rng.sample([w for w in weyl_group(rs) if w.length <= 9], 6)
    for lam in lams:
        memo = {}
        for w in sample:
            _check_leading_term(w, lam, memo)


@given(
    name=st.sampled_from(["A3", "B3", "C3", "D4", "E6", "F4", "G2"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_dimensions_grow_along_bruhat_covers(name, data):
    # V_v(lam) is a submodule of V_w(lam) for v <= w, in every dilation
    rs = root_system(name)
    letters = data.draw(st.lists(st.integers(1, rs.rank), min_size=1, max_size=8))
    w = demazure_fold(identity(rs), letters)
    assume(w.length > 0)
    lam = data.draw(st.tuples(*[st.integers(0, 2)] * rs.rank))
    v = data.draw(st.sampled_from([v for v, _pair in _covers_below(w, lam)]))
    n = w.length + 2
    below = dimension_sequence(v, lam, n).values
    above = dimension_sequence(w, lam, n).values
    assert all(a <= b for a, b in zip(below, above)), (v, w, lam)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "B2", "G2"])
def test_the_degree_is_the_length_of_the_least_coset_member(name):
    # n -> dim V_w(n lam) is the Hilbert polynomial of the Schubert variety
    # of w^lam in G/P_lam, of degree l(w^lam), w^lam the shortest x with
    # x(lam) = w(lam), found here by a search of the whole group
    rs = root_system(name)
    group = weyl_group(rs)
    for lam in itertools.product((0, 1), repeat=rs.rank):
        if not any(lam):
            continue
        least = {}
        for x in group:  # sorted by length, so the first x of each coset is its least
            least.setdefault(x.apply(lam), x.length)
        for w in group:
            assert growth_degree(dimension_sequence(w, lam)) == least[w.apply(lam)], (name, lam, w)
