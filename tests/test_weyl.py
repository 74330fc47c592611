import json

import pytest
from hypothesis import given, settings, strategies as st

from demazure import branching, characters, cli, growth, weyl
from demazure import (
    LeviDatum,
    demazure_dim,
    demazure_fold,
    demazure_product,
    dimension_sequence,
    dominant_conjugate,
    from_word,
    identity,
    inverse,
    levi_length_bound,
    longest_element,
    longest_parabolic,
    min_coset_rep,
    reduced_word,
    restrict_to_levi,
    rho,
    root_system,
    simple_element,
    simple_reflection,
    unirad_mult_identity,
    weight_multiplicity,
    weyl_character,
    weyl_group,
)
from demazure.roots import _to_dominant
from demazure.weyl import WeylElement
from oracles import all_reduced_words, left_descents, right_descents, simple_root, straighten

def _reduced_words(w):
    """All reduced words of w, by ``oracles.all_reduced_words`` from w(rho)."""
    return all_reduced_words(w.rs.columns, w.apply(rho(w.rs)))


WEYL_ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "G2": 12, "D4": 192}


def test_repr_spells_the_reduced_word():
    A2 = root_system("A2")
    assert repr(identity(A2)) == "WeylElement(A2, e)"
    assert repr(from_word(A2, (2, 1))) == "WeylElement(A2, 2,1)"
    assert repr(longest_element(A2)) == "WeylElement(A2, 1,2,1)"


def test_group_orders():
    for name, order in WEYL_ORDERS.items():
        assert len(weyl_group(root_system(name))) == order, name


def test_longest_element_length_is_root_count():
    for name in ("A2", "A3", "B2", "B3", "C3", "G2", "F4"):
        rs = root_system(name)
        assert longest_element(rs).length == len(rs.positive_roots), name


def test_longest_element_words():
    assert reduced_word(longest_element(root_system("A2"))) == (1, 2, 1)
    assert reduced_word(longest_element(root_system("B2"))) == (1, 2, 1, 2)


def test_longest_element_is_minus_one_in_b2_g2():
    for name in ("B2", "G2"):
        rs = root_system(name)
        w0 = longest_element(rs)
        assert all(w0.apply(mu) == tuple(-x for x in mu)
                   for mu in ((1, 0), (0, 1), (2, 3)))


def test_identity_and_generators():
    rs = root_system("A2")
    e = identity(rs)
    assert e.length == 0 and e.u == rho(rs)
    s1 = simple_element(rs, 1)
    assert s1.length == 1
    assert s1 * s1 == e
    assert from_word(rs, ()) == e


def test_from_word_order():
    # from_word multiplies left to right: (1,2) means s1 then s2
    rs = root_system("A2")
    w = from_word(rs, (1, 2))
    assert w == simple_element(rs, 1) * simple_element(rs, 2)
    assert w.apply((1, 0)) == simple_element(rs, 1).apply(simple_element(rs, 2).apply((1, 0)))


def test_reduced_word_round_trip():
    for name in ("A3", "B2", "G2"):
        rs = root_system(name)
        for w in weyl_group(rs):
            word = reduced_word(w)
            assert len(word) == w.length
            assert from_word(rs, word) == w


def test_reduced_word_is_lex_smallest():
    for name in ("A2", "B2"):
        rs = root_system(name)
        for w in weyl_group(rs):
            words = list(_reduced_words(w))
            assert words == sorted(words)
            assert reduced_word(w) == words[0]


def test_all_reduced_words_evaluate_back():
    rs = root_system("A3")
    w0 = longest_element(rs)
    words = list(_reduced_words(w0))
    # the count of reduced words of the longest element of S4
    assert len(words) == 16
    assert len(set(words)) == 16
    assert all(from_word(rs, word) == w0 for word in words)


def _reference_all_reduced_words(w):
    # the seed's recursion: each smallest left descent first
    if w == identity(w.rs):
        yield ()
        return
    for i in left_descents(w.apply(rho(w.rs))):
        for rest in _reference_all_reduced_words(simple_element(w.rs, i) * w):
            yield (i, *rest)


def test_all_reduced_words_match_recursive_enumeration():
    for name in ("A1", "A3", "B3", "C3", "G2"):
        for w in weyl_group(root_system(name)):
            assert list(_reduced_words(w)) == list(_reference_all_reduced_words(w)), name


def test_all_reduced_words_of_a_long_element_need_no_recursion():
    # length 1275, beyond the interpreter's recursion limit
    w0 = longest_element(root_system("A50"))
    words = _reduced_words(w0)
    assert next(words) == reduced_word(w0)
    second = next(words)
    assert len(second) == 1275 and second > reduced_word(w0)
    assert from_word(w0.rs, second) == w0


def test_descents_match_length_drop():
    for name in ("A2", "B2"):
        rs = root_system(name)
        for w in weyl_group(rs):
            for i in range(1, rs.rank + 1):
                s = simple_element(rs, i)
                assert (i in right_descents(w.u)) == ((w * s).length < w.length)
                assert (i in left_descents(w.apply(rho(rs)))) == ((s * w).length < w.length)


@given(data=st.data())
@settings(max_examples=60)
def test_length_changes_by_one(data):
    rs = root_system(data.draw(st.sampled_from(["A3", "B3"])))
    group = weyl_group(rs)
    w = data.draw(st.sampled_from(group))
    i = data.draw(st.integers(1, rs.rank))
    assert abs((w * simple_element(rs, i)).length - w.length) == 1


def test_inverse():
    for rs in (root_system("A3"), root_system("B2")):
        e = identity(rs)
        for w in weyl_group(rs):
            v = inverse(w)
            assert w * v == e
            assert v.length == w.length
            assert reduced_word(v) == reduced_word(v)  # deterministic


def test_mixed_systems_refuse_to_multiply():
    with pytest.raises(ValueError):
        simple_element(root_system("A2"), 1) * simple_element(root_system("B2"), 1)


def test_mixed_systems_refuse_the_demazure_product():
    pairs = [
        (from_word(root_system("A2"), (1,)), from_word(root_system("G2"), (2, 1))),
        (longest_element(root_system("B3")), longest_element(root_system("C3"))),
    ]
    for x, y in pairs:
        with pytest.raises(ValueError, match="different root systems"):
            demazure_product(x, y)


def test_group_order_formula_matches_enumeration():
    # every type whose group the tests enumerate, and E6, the largest allowed
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "F4", "G2", "E6"):
        rs = root_system(name)
        assert rs.order == len(weyl_group(rs)), name


def test_weyl_group_stores_each_length():
    # The breadth-first depth is stored at build time; a fresh element
    # with the same u computes its length by walking its peel.
    for name in ("A3", "B3", "C3", "G2", "F4"):
        rs = root_system(name)
        for w in weyl_group(rs):
            assert vars(w)["length"] == WeylElement(rs, w.u).length, (name, w.u)


def test_weyl_group_refuses_large_groups():
    for name, order in (("E7", "2,903,040"), ("E8", "696,729,600"), ("A9", "3,628,800")):
        message = f"the Weyl group of {name} has {order} elements; weyl_group lists at most 100,000"
        with pytest.raises(ValueError, match=f"^{message}$"):
            weyl_group(root_system(name))


def test_longest_parabolic():
    a3 = root_system("A3")
    assert longest_parabolic(a3, frozenset()) == identity(a3)
    assert longest_parabolic(a3, frozenset({1, 2, 3})) == longest_element(a3)
    # S = {1,2} spans an A2 Levi: three positive roots
    w = longest_parabolic(a3, frozenset({1, 2}))
    assert w.length == 3
    assert w * w == identity(a3)
    # only uses letters from S
    assert set(reduced_word(w)) <= {1, 2}


def test_longest_parabolic_is_involution():
    b3 = root_system("B3")
    for subset in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}):
        w = longest_parabolic(b3, frozenset(subset))
        assert w * w == identity(b3)
        assert set(reduced_word(w)) <= subset


def test_min_coset_rep():
    a2 = root_system("A2")
    w = min_coset_rep(a2, frozenset({1}))
    assert reduced_word(w) == (2, 1)
    # length additivity with the parabolic longest element
    for name in ("A3", "B3"):
        rs = root_system(name)
        w0 = longest_element(rs)
        for subset in ({1}, {2}, {1, 2}):
            w_l = longest_parabolic(rs, frozenset(subset))
            w_up = min_coset_rep(rs, frozenset(subset))
            assert w_l * w_up == w0
            assert w_l.length + w_up.length == w0.length


def test_demazure_fold_examples():
    rs = root_system("A2")
    w0 = longest_element(rs)
    # non-reduced word folds to the longest element
    assert demazure_fold(identity(rs), (1, 2, 1, 2)) == w0
    # s*s = s
    s1 = simple_element(rs, 1)
    assert demazure_fold(identity(rs), (1, 1)) == s1


def test_demazure_fold_refuses_a_letter_that_is_no_index():
    rs = root_system("A2")
    e = identity(rs)
    for letter in (1.0, 1.5, "1", 0, 3, None):
        with pytest.raises(ValueError, match=r"simple index .* out of range 1\.\.2"):
            demazure_fold(e, (2, letter))
    assert demazure_fold(e, (True,)) == simple_element(rs, 1)
    # letters that are not iterable, or an iterator that raises before
    # its first letter, are the caller's TypeError
    def broken():
        raise TypeError("from the iterator")
        yield 1

    for letters in (1, None, broken()):
        with pytest.raises(TypeError):
            demazure_fold(e, letters)


def test_a_string_index_is_named_by_its_repr():
    # the string "1" once read "simple index 1 out of range", like a valid index
    rs = root_system("A2")
    for call in (lambda: demazure_fold(identity(rs), ("1",)), lambda: from_word(rs, ("1",))):
        with pytest.raises(ValueError, match=r"^simple index '1' out of range 1\.\.2$"):
            call()
    with pytest.raises(ValueError, match=r"^simple index 3 out of range 1\.\.2$"):
        from_word(rs, (1, 3))


def test_demazure_product_absorbing():
    rs = root_system("A2")
    w0 = longest_element(rs)
    for w in weyl_group(rs):
        assert demazure_product(w0, w) == w0
        assert demazure_product(w, w0) == w0


def test_demazure_product_monotone():
    rs = root_system("B2")
    for w in weyl_group(rs):
        for v in weyl_group(rs):
            p = demazure_product(w, v)
            assert p.length >= max(w.length, v.length)
            assert p.length <= w.length + v.length


def test_monoid_idempotents_are_parabolic_longest_elements():
    # w*w = w exactly for the longest elements of parabolic subgroups;
    # e.g. (s1 s2)^2 = w0 in B2, so squaring is not the identity map.
    for name in ("A2", "B2"):
        rs = root_system(name)
        subsets = []
        for mask in range(2 ** rs.rank):
            subsets.append(frozenset(i + 1 for i in range(rs.rank) if mask >> i & 1))
        parabolic = {longest_parabolic(rs, s) for s in subsets}
        idempotent = {w for w in weyl_group(rs) if demazure_product(w, w) == w}
        assert idempotent == parabolic, name


def test_demazure_product_reduces_to_group_product():
    # when lengths add, the monoid product is the group product
    rs = root_system("A3")
    for w in weyl_group(rs):
        for i in right_ascents(rs, w):
            s = simple_element(rs, i)
            assert demazure_product(w, s) == w * s


def right_ascents(rs, w):
    return [i for i in range(1, rs.rank + 1) if i not in right_descents(w.u)]


def test_every_reduced_word_folds_to_the_demazure_product():
    # The product folds one reduced word of v; the 0-Hecke product does
    # not depend on which, so every other one must fold to it too.
    for name, step in (("A3", 1), ("G2", 1), ("B3", 7), ("C3", 5)):
        group = weyl_group(root_system(name))
        for v in group:
            words = list(_reduced_words(v))
            for w in group[::step]:
                product = demazure_product(w, v)
                assert all(demazure_fold(w, word) == product for word in words), (name, w, v)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_cached_reads_do_not_depend_on_their_order(data):
    # Pairs of fresh, equal elements read in opposite orders: what each
    # read caches must not change what the other returns.
    rs = root_system(data.draw(st.sampled_from(ORACLE_TYPES)))
    words = [data.draw(_words(rs)) for _ in range(2)]
    e = identity(rs)
    a, b = (demazure_fold(e, words[0]) for _ in range(2))
    length_a = a.length
    word_a = reduced_word(a)
    word_b = reduced_word(b)
    length_b = b.length
    assert (length_a, word_a) == (length_b, word_b)
    assert length_a == len(word_a) and from_word(rs, word_a) == a
    x = demazure_fold(e, words[1])
    v, y = (demazure_fold(e, words[0]) for _ in range(2))
    product_v = demazure_product(x, v)
    word_v = reduced_word(v)
    word_y = reduced_word(y)
    product_y = demazure_product(x, y)
    assert (product_v, word_v) == (product_y, word_y)
    assert product_v == demazure_fold(x, word_v)


@given(data=st.data())
@settings(max_examples=40)
def test_image_of_root_set_is_root_set(data):
    rs = root_system(data.draw(st.sampled_from(["A3", "B3", "G2"])))
    w = data.draw(st.sampled_from(weyl_group(rs)))
    roots = set(rs.positive_roots_fund)
    for alpha in rs.positive_roots_fund:
        image = w.apply(alpha)
        neg = tuple(-x for x in image)
        assert image in roots or neg in roots


# Independent oracles for the rho-orbit representation: they use only
# rs.positive_roots_fund, w.apply and plain matrix products.

def test_length_counts_inverted_positive_roots():
    samples = [weyl_group(root_system(name)) for name in ("A3", "B3", "G2")]
    samples.append(weyl_group(root_system("F4"))[::23])
    for group in samples:
        for w in group:
            positive = set(w.rs.positive_roots_fund)
            inverted = sum(1 for alpha in positive if w.apply(alpha) not in positive)
            assert w.length == inverted, w


def _generator_matrix(rs, i):
    # identity with column i replaced by e_i - alpha_i
    alpha = simple_root(rs, i)
    return tuple(
        tuple(int(r == c) - (alpha[r] if c == i - 1 else 0) for c in range(rs.rank))
        for r in range(rs.rank)
    )


def _matrix(w):
    # integer matrix of w on fundamental coordinates; column j is w(omega_j)
    n = w.rs.rank
    return tuple(zip(*(w.apply(tuple(int(i == j) for i in range(n))) for j in range(n))))


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


@given(data=st.data())
@settings(max_examples=60)
def test_matrix_is_product_of_generator_matrices(data):
    rs = root_system(data.draw(st.sampled_from(["B3", "D4", "F4"])))
    word = data.draw(st.lists(st.integers(1, rs.rank), max_size=30))
    expected = tuple(tuple(int(r == c) for c in range(rs.rank)) for r in range(rs.rank))
    for i in word:
        expected = _matmul(expected, _generator_matrix(rs, i))
    assert _matrix(from_word(rs, word)) == expected


def test_weyl_group_sorted_by_length_then_matrix():
    # weyl_group builds its sort keys during the search; they must be the
    # elements' own lengths and matrices
    for name in ("A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4", "F4"):
        keys = [(w.length, _matrix(w)) for w in weyl_group(root_system(name))]
        assert keys == sorted(keys), name


# The seed's tuple reflection, kept as the oracle of the sparse column
# kernel: it shares no code with it, reading the Cartan matrix row by row.

def _reference_reflect(rs, v, i):
    m = v[i - 1]
    return tuple(x - m * row[i - 1] for x, row in zip(v, rs.cartan))


def _reference_peel(rs, v):
    # reflect in the first negative coordinate until none is left
    word = []
    while negative := [i for i, x in enumerate(v, 1) if x < 0]:
        word.append(negative[0])
        v = _reference_reflect(rs, v, negative[0])
    return word, v


def _reference_walk(rs, v, letters):
    for i in letters:
        v = _reference_reflect(rs, v, i)
    return v


class _Reference:
    """w through u = w^{-1}(rho), every operation by the tuple reflection."""

    def __init__(self, rs, u):
        self.rs, self.u = rs, u
        # peeling u spells w^{-1} = s_a1 ... s_ak, so w = s_ak ... s_a1
        self.letters, _ = _reference_peel(rs, u)
        self.rho_image = self.apply((1,) * rs.rank)

    @classmethod
    def from_word(cls, rs, word):
        return cls(rs, _reference_walk(rs, (1,) * rs.rank, word))

    def apply(self, mu):
        return _reference_walk(self.rs, mu, self.letters)

    def fold(self, letters):
        u = self.u
        for i in letters:
            if u[i - 1] > 0:
                u = _reference_reflect(self.rs, u, i)
        return _Reference(self.rs, u)

    def reduced_word(self):
        return tuple(_reference_peel(self.rs, self.rho_image)[0])


ORACLE_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def _words(rs):
    return st.lists(st.integers(1, rs.rank), max_size=2 * len(rs.positive_roots))


def _weights(rs):
    small = st.integers(-4, 4)
    large = st.integers(-(10**12), 10**12)
    return st.tuples(*[st.one_of(small, large)] * rs.rank)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_weyl_layer_matches_reference_reflection(data):
    rs = root_system(data.draw(st.sampled_from(ORACLE_TYPES)))
    words = [data.draw(_words(rs)) for _ in range(3)]
    mu = data.draw(_weights(rs))
    x, y = (from_word(rs, word) for word in words[:2])
    ref_x, ref_y = (_Reference.from_word(rs, word) for word in words[:2])
    assert (x.u, y.u) == (ref_x.u, ref_y.u)
    assert x.length == len(ref_x.letters)
    assert x.apply(mu) == ref_x.apply(mu)
    for i in range(1, rs.rank + 1):
        # i is a right descent of x exactly when ref_x.u_i < 0: the fold
        # of i then keeps x, and otherwise it is one letter longer
        folded = demazure_fold(x, [i])
        assert (folded == x) == (ref_x.u[i - 1] < 0), i
        assert folded == x or folded.length == x.length + 1, i
    assert left_descents(x.apply(rho(rs))) == left_descents(ref_x.rho_image)
    assert inverse(x).u == ref_x.rho_image
    assert reduced_word(x) == ref_x.reduced_word()
    assert demazure_fold(x, words[2]).u == ref_x.fold(words[2]).u
    assert demazure_product(x, y).u == ref_x.fold(ref_y.reduced_word()).u


def test_reduced_word_is_first_of_all_reduced_words():
    # every w of six groups, so every word reduced_word can walk there
    for name in ("A3", "B3", "G2", "C3", "D4", "F4"):
        rs = root_system(name)
        for w in weyl_group(rs):
            word = reduced_word(w)
            assert word == next(_reduced_words(w)) == _Reference(rs, w.u).reduced_word()
            assert len(word) == w.length
            assert from_word(rs, word) == w


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_weight_reflections_match_reference_reflection(data):
    rs = root_system(data.draw(st.sampled_from(ORACLE_TYPES)))
    mu = data.draw(_weights(rs))
    i = data.draw(st.integers(1, rs.rank))
    assert simple_reflection(rs, i, mu) == _reference_reflect(rs, mu, i)
    # the dominant conjugate is unique, so the oracle may reflect in the
    # last negative coordinate where the library takes the first
    nu = mu
    while negative := [j for j, c in enumerate(nu, 1) if c < 0]:
        nu = _reference_reflect(rs, nu, negative[-1])
    assert dominant_conjugate(rs, mu) == nu
    # the dot action x.mu = x(mu + rho) - rho walks mu into the S-dominant
    # chamber, with the sign of x, unless mu + rho is S-singular
    subset = data.draw(st.sets(st.integers(1, rs.rank)))
    nu, sign = tuple(c + 1 for c in mu), 1
    while negative := [j for j in sorted(subset) if nu[j - 1] < 0]:
        nu, sign = _reference_reflect(rs, nu, negative[-1]), -sign
    singular = any(nu[j - 1] == 0 for j in subset)
    expected = None if singular else (tuple(c - 1 for c in nu), sign)
    assert straighten(rs.columns, subset, mu) == expected


# Stored peels.  Every builder that knows a reduced word of its result
# stores it, reversed, as the peel; an element built from a vector walks
# u to rho on first use.  The oracle is that walk: a stored peel must be
# as long as it, and reflect rho, first letter first, to the same w(rho)
# by the tuple reflection, so it spells w with no letter to spare.

PEEL_TYPES = ("B3", "D4", "F4", "E6", "G2")


def _stored_peel(w):
    """w's stored peel, checked against a fresh walk of u; None if none is stored."""
    peel = vars(w).get("_peel")
    if peel is not None:
        rs = w.rs
        walk = _to_dominant(rs.columns, list(w.u))
        assert len(peel) == len(walk), (rs, peel, walk)
        assert _reference_walk(rs, rho(rs), peel) == _reference_walk(rs, rho(rs), walk), (rs, peel)
    return peel


def _ascents(rs, word):
    """The letters of word that ascend as they are applied: a reduced word."""
    u, kept = rho(rs), []
    for i in word:
        if u[i - 1] > 0:
            kept.append(i)
            u = _reference_reflect(rs, u, i)
    return tuple(kept)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_stored_peels_are_reduced_words_reversed(data):
    rs = root_system(data.draw(st.sampled_from(PEEL_TYPES)))
    words = [data.draw(_words(rs)) for _ in range(3)]
    e = identity(rs)
    x = demazure_fold(e, words[0])
    y = from_word(rs, words[1])  # mostly not reduced
    # from_word stores a peel exactly when its word is reduced
    reduced = len(words[1]) == len(_to_dominant(rs.columns, list(y.u)))
    assert (_stored_peel(y) is not None) == reduced
    z = from_word(rs, _ascents(rs, words[2]))
    # elements built from a vector; E6's group takes about 1 s to list,
    # so its draw is w0 again
    group = (longest_element(rs),) if rs.name == "E6" else weyl_group(rs)
    vectors = [longest_element(rs), data.draw(st.sampled_from(group)), WeylElement(rs, x.u)]
    subset = data.draw(st.sets(st.integers(1, rs.rank)))
    built = [
        e, x, z, from_word(rs, reduced_word(x)),
        *(simple_element(rs, i) for i in range(1, rs.rank + 1)),
        demazure_fold(x, words[1]), demazure_fold(z, words[2]), demazure_product(x, z),
        demazure_product(z, y), *(demazure_fold(v, words[2]) for v in vectors),
        longest_parabolic(rs, subset), inverse(x), inverse(y),
    ]
    assert all(_stored_peel(w) is not None for w in built)
    assert _stored_peel(e) == ()
    # each fold walked the element built from a vector it was onto, and
    # the one onto WeylElement(rs, x.u) is the product onto x
    assert all(_stored_peel(v) is not None for v in vectors)
    assert demazure_fold(vectors[2], words[2]) == demazure_fold(x, words[2])
    assert inverse(x)._peel == x._peel[::-1]


def test_a_known_reduced_word_takes_no_peel_walk(monkeypatch, capsys):
    walks = []  # the letters of each walk weyl takes

    def counted(cols, x):
        letters = _to_dominant(cols, x)
        walks.append(tuple(letters))
        return letters

    monkeypatch.setattr(weyl, "_to_dominant", counted)
    w = weyl._check_reduced(root_system("E6"), (1, 3, 4, 2, 5, 4, 6))
    assert w.length == 7 and walks == []
    # the CLI's hecke route walks once, for the lexicographic word it prints
    assert cli.run(["hecke", "--type=F4", "--left=1,2,3,2,1,4,3", "--right=2,3,4,3,2,1"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert walks == [tuple(printed["word"])]
    # the check's one fold stores the peel of an unreduced word too, so it
    # refuses the word without a walk; it walked a second product before
    with pytest.raises(ValueError, match="not reduced"):
        weyl._check_reduced(root_system("E6"), (1, 3, 3))
    assert len(walks) == 1


def test_a_levi_subset_walks_once(monkeypatch):
    # w_S keeps the peel its fold stored, so neither query walks it:
    # the coset representative w_S * w0 walks for its length, and the
    # unipotent-radical identity runs on w_S's coset word at its weight,
    # which walks twice, once per (element, zero pattern)
    walks = []

    def counted(cols, x):
        walks.append(None)
        return _to_dominant(cols, x)

    b3 = root_system("B3")
    assert longest_element(b3).length == 9  # w0 built and walked before counting
    monkeypatch.setattr(weyl, "_to_dominant", counted)
    rep = weyl._min_coset_rep.__wrapped__(b3, frozenset({1, 2}))
    assert rep.length == 6 and len(walks) == 1
    branching._levi_char_items.cache_clear()
    weyl._least_in_coset.cache_clear()
    walks.clear()
    assert unirad_mult_identity((1, 1, 1), LeviDatum(b3, {1, 2})) == (8, 8, True)
    assert len(walks) == 2
    walks.clear()
    assert unirad_mult_identity((1, 1, 0), LeviDatum(b3, {1, 2})) == (8, 8, True)
    assert len(walks) == 2
    walks.clear()
    assert unirad_mult_identity((2, 1, 0), LeviDatum(b3, {1, 2})) == (15, 15, True)
    assert walks == []


def test_computations_read_the_stored_peel(monkeypatch):
    # once w0 and the coset representative are built, no computation on
    # an element that stores its peel walks, but for the two walks of
    # each new coset word; reduced_word, which only printing calls, walks
    # once per call
    walks = []

    def counted(cols, x):
        walks.append(None)
        return _to_dominant(cols, x)

    rs = root_system("B3")
    subset = frozenset({1, 2})
    levi = LeviDatum(rs, subset)
    lam = (1, 0, 1)
    assert longest_element(rs).length == 9 and min_coset_rep(rs, subset).length == 6
    characters._demazure_items.cache_clear()
    branching._levi_char_items.cache_clear()
    growth._interval.cache_clear()
    weyl._least_in_coset.cache_clear()
    monkeypatch.setattr(weyl, "_to_dominant", counted)
    elements = [
        demazure_fold(identity(rs), [3, 2, 3, 1, 2]),
        from_word(rs, (1, 2, 3, 2)),
        longest_parabolic(rs, {2, 3}),
    ]
    routes = {
        "weyl_character": lambda: weyl_character(rs, lam),
        "weight_multiplicity": lambda: weight_multiplicity(rs, lam, (0, 0, 0)),
        "_levi_char_items": lambda: branching._levi_char_items(rs, subset, lam),
        "_branch": lambda: restrict_to_levi(lam, levi),
        "_coset_bound": lambda: levi_length_bound(lam, levi),
    }
    for w in elements:
        routes[f"demazure_dim {w._peel}"] = lambda w=w: demazure_dim(w, lam)
        routes[f"dimension_sequence {w._peel}"] = lambda w=w: dimension_sequence(w, lam)
    for route, call in routes.items():
        misses = weyl._least_in_coset.cache_info().misses
        call()
        assert len(walks) == 2 * (weyl._least_in_coset.cache_info().misses - misses), route
        walks.clear()
    assert weyl._least_in_coset.cache_info().misses == 6  # w0, the representative, w_S and three elements
    for w in (*elements, longest_element(rs), min_coset_rep(rs, subset)):
        for k in (1, 2):
            assert len(reduced_word(w)) == w.length and len(walks) == k
        walks.clear()


def test_a_corrupted_parabolic_peel_breaks_the_coset_lengths(monkeypatch):
    # l(w_P w0) = l(w0) - l(w_P) for every w_P, so only a wrong length,
    # here from a walked peel given two letters to spare, reaches the check
    real = weyl.longest_parabolic

    def corrupted(rs, subset):
        w_p = real(rs, subset)
        return weyl._with_peel(w_p, w_p._peel + (1, 1))

    monkeypatch.setattr(weyl, "longest_parabolic", corrupted)
    rs = root_system("B3")
    with pytest.raises(RuntimeError, match="^coset representative lengths do not add up$"):
        weyl._min_coset_rep.__wrapped__(rs, frozenset({1, 2}))
