from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from demazure import (
    LeviDatum,
    demazure_character,
    dimension_conserved,
    levi_length_bound,
    levi_weyl_dim,
    longest_parabolic,
    min_coset_rep,
    reduced_word,
    restrict_to_levi,
    root_system,
    unirad_mult_identity,
    weight_multiplicity,
    weyl_character,
    weyl_dim,
)
from demazure import branching
from demazure.branching import BranchingResult, _branch, _coset_bound, s_dominant
from demazure.roots import sub_weights
from oracles import scaled_inverse_cartan, simple_root, straighten
from test_characters import _apply

A2 = root_system("A2")
A3 = root_system("A3")
B3 = root_system("B3")


def _levi_character(rs, subset, mu):
    """Character of the Levi module with highest weight mu, on the ambient lattice."""
    return _apply(rs, reduced_word(longest_parabolic(rs, subset)), {mu: 1})


def _branching_bound(lam, mu, levi):
    """(multiplicity of the Levi constituent mu, Demazure bound, bound holds)."""
    result = restrict_to_levi(lam, levi)
    mult = dict(result.constituents).get(mu, 0)
    bound = _coset_bound(result.lam, levi)
    return mult, bound, mult <= bound


def _s_maximal_weights(rs, subset, weights):
    """Weights with no other listed weight above them in the S-partial-order."""
    pool = list(weights)
    off = [j for j in range(rs.rank) if (j + 1) not in subset]
    scale, rows = scaled_inverse_cartan(rs)
    out = []
    for w in pool:
        dominated = False
        for v in pool:
            if v == w:
                continue
            # scale times the simple-root coordinates of v - w
            diff = sub_weights(v, w)
            coords = [sum(r * x for r, x in zip(row, diff)) for row in rows]
            if all(coords[j] == 0 for j in off) and all(
                coords[i - 1] % scale == 0 and coords[i - 1] >= 0 for i in subset
            ):
                dominated = True
                break
        if not dominated:
            out.append(w)
    return out


def _peel_off(lam, levi, select=None):
    """Oracle: subtract the Levi character of an S-maximal weight until nothing is left.

    ``select`` gets the sorted remaining support and must return some
    S-maximal weight; the default takes the largest S-height (sum of the
    simple-root coordinates over S), ties broken lexicographically.
    """
    rs, s = levi.rs, levi.subset
    remaining = dict(weyl_character(rs, lam))
    if select is None:
        _, rows = scaled_inverse_cartan(rs)
        height = [sum(rows[i - 1][j] for i in s) for j in range(rs.rank)]

        def select(support):
            return max(support, key=lambda w: (sum(h * x for h, x in zip(height, w)), w))

    found = {}
    while remaining:
        mu = select(sorted(remaining))
        if not s_dominant(s, mu):
            raise RuntimeError(f"extracted top weight {mu} is not S-dominant")
        mult = remaining[mu]
        for w, c in _levi_character(rs, s, mu).items():
            left = remaining.get(w, 0) - mult * c
            if left < 0:
                raise RuntimeError(f"extraction drove coefficient of {w} negative")
            if left:
                remaining[w] = left
            else:
                remaining.pop(w, None)
        found[mu] = found.get(mu, 0) + mult
    return tuple(sorted(found.items()))


def _klimyk(lam, levi):
    """Oracle: Klimyk's alternating sum over the W_S dot-orbit.

    The Levi module of S-dominant highest weight mu occurs

        n_mu = sum_{x in W_S} eps(x) m_lam(x(mu + rho) - rho)

    times (Humphreys, "Introduction to Lie Algebras and Representation
    Theory", section 24; the LiE manual, ``branch``).  The sum walks the
    dot-orbit one length level at a time: the images s_i.nu = nu - (nu_i
    + 1) alpha_i, for i in S with nu_i >= 0, of one level make up the
    next, with the opposite sign.  A level keeps only weights of V(lam),
    since below a weight that is not one no weight of the orbit is.
    """
    rs, s = levi.rs, levi.subset
    char = weyl_character(rs, lam)
    found = []
    for mu in char:  # sorted, so found is too
        if not s_dominant(s, mu):
            continue
        n, sign, level = 0, 1, {mu}
        while level:
            n += sign * sum(char[nu] for nu in level)
            below = set()
            for nu in level:
                for i in s:
                    k = nu[i - 1] + 1
                    x = tuple(a - k * b for a, b in zip(nu, simple_root(rs, i)))
                    if k > 0 and x in char:
                        below.add(x)
            level, sign = below, -sign
        if n:
            found.append((mu, n))
    return tuple(found)


def test_straighten_spots():
    s = frozenset({1, 2})
    # already S-dominant, and s_1.(-3, 3) = (1, 1) with sign -1
    assert straighten(A2.columns, s, (2, 0)) == ((2, 0), 1)
    assert straighten(A2.columns, s, (-3, 3)) == ((1, 1), -1)
    # S-singular: mu_1 = -1 at once, or after the step s_2.(1, -3) = (-1, 1)
    assert straighten(A2.columns, s, (-1, 5)) is None
    assert straighten(A2.columns, s, (1, -3)) is None
    # off the subset a coordinate may stay negative
    assert straighten(A2.columns, frozenset({1}), (-3, 3)) == ((1, 1), -1)
    assert straighten(A2.columns, frozenset(), (-3, 3)) == ((-3, 3), 1)


def test_fundamental_restriction_a2():
    levi = LeviDatum(A2, {1})
    result = restrict_to_levi((1, 0), levi)
    assert result.constituents == (((0, -1), 1), ((1, 0), 1))
    assert result.length == 2
    assert dict(result.constituents).get((1, 0), 0) == 1
    assert dict(result.constituents).get((5, 5), 0) == 0


def test_adjoint_restriction_a2():
    # 8 = 3 + 2 + 2 + 1 under the A1 Levi at node 1
    levi = LeviDatum(A2, {1})
    result = restrict_to_levi((1, 1), levi)
    assert result.constituents == (
        ((0, 0), 1), ((1, -2), 1), ((1, 1), 1), ((2, -1), 1),
    )
    dims = [levi_weyl_dim(A2, levi.subset, mu) for mu, _ in result.constituents]
    assert sorted(dims) == [1, 2, 2, 3]
    assert sum(dims) == weyl_dim(A2, (1, 1))
    assert dimension_conserved(result)


def test_branch_dims_are_the_levi_dims():
    # the dimensions the CLI prints come with the branching, one per constituent
    for rs, lam, subset in ((A2, (1, 1), {1}), (B3, (2, 1, 2), {1, 3}), (A3, (1, 0, 2), {2})):
        levi = LeviDatum(rs, subset)
        result, dims, dim = _branch(lam, levi)
        assert result == restrict_to_levi(lam, levi)
        assert dims == [levi_weyl_dim(rs, levi.subset, mu) for mu, _ in result.constituents]
        assert dim == weyl_dim(rs, lam)


def test_dimension_conserved_detects_a_missing_constituent():
    result = restrict_to_levi((1, 1), LeviDatum(A2, {1}))
    assert dimension_conserved(result)
    short = BranchingResult(result.levi, result.lam, result.constituents[1:])
    assert not dimension_conserved(short)


def test_adjoint_restriction_b3():
    # so(7) adjoint under the B2 Levi on nodes {2,3}: 21 = 10 + 5 + 5 + 1,
    # first coordinate keeps the central character
    levi = LeviDatum(B3, {2, 3})
    result = restrict_to_levi((0, 1, 0), levi)
    assert result.constituents == (
        ((-2, 1, 0), 1), ((-1, 0, 2), 1), ((0, 0, 0), 1), ((0, 1, 0), 1),
    )
    dims = [levi_weyl_dim(B3, levi.subset, mu) for mu, _ in result.constituents]
    assert sorted(dims) == [1, 5, 5, 10]
    assert result.length == 4


def test_empty_subset_recovers_weights():
    levi = LeviDatum(A2, frozenset())
    result = restrict_to_levi((1, 1), levi)
    assert dict(result.constituents) == weyl_character(A2, (1, 1))
    assert result.length == 8


def test_full_subset_is_trivial_restriction():
    levi = LeviDatum(A2, {1, 2})
    result = restrict_to_levi((1, 1), levi)
    assert result.constituents == (((1, 1), 1),)


def test_branching_bound_tight_at_fundamental():
    levi = LeviDatum(A2, {1})
    mult, bound, holds = _branching_bound((1, 0), (1, 0), levi)
    assert (mult, bound, holds) == (1, 2, True)
    length, bound, holds = levi_length_bound((1, 0), levi)
    assert (length, bound, holds) == (2, 2, True)


def test_branching_bounds_adjoint():
    levi = LeviDatum(A2, {1})
    assert _coset_bound((1, 1), levi) == 5
    length, bound, holds = levi_length_bound((1, 1), levi)
    assert (length, bound, holds) == (4, 5, True)
    # a constituent that does not occur is still bounded
    mult, bound, holds = _branching_bound((0, 0), (1, 1), levi)
    assert (mult, bound, holds) == (0, 1, True)


def test_constituent_weights_are_s_dominant():
    for subset in ({1}, {2}, {1, 2}, {1, 3}, {2, 3}):
        levi = LeviDatum(A3, frozenset(subset))
        result = restrict_to_levi((1, 1, 1), levi)
        assert all(s_dominant(levi.subset, mu) for mu, _ in result.constituents)
        assert dimension_conserved(result)


def test_s_maximal_weights():
    support = list(weyl_character(A2, (1, 1)))
    assert _s_maximal_weights(A2, frozenset({1}), support) == [(1, -2), (1, 1), (2, -1)]
    assert len(_s_maximal_weights(A2, frozenset(), support)) == len(support)
    # with both simple directions available only the highest weight survives
    assert _s_maximal_weights(A2, frozenset({1, 2}), support) == [(1, 1)]


def test_extraction_is_order_independent():
    # any rule that picks some S-maximal weight gives the same answer,
    # and it is the alternating sum's
    for lam in ((1, 1), (2, 1), (3, 2)):
        for subset in ({1}, {2}):
            levi = LeviDatum(A2, frozenset(subset))

            def pick_maximal_lex_first(sorted_support, _s=levi.subset):
                return _s_maximal_weights(A2, _s, sorted_support)[0]

            def pick_maximal_lex_last(sorted_support, _s=levi.subset):
                return _s_maximal_weights(A2, _s, sorted_support)[-1]

            default = restrict_to_levi(lam, levi)
            assert _peel_off(lam, levi) == default.constituents
            assert _peel_off(lam, levi, pick_maximal_lex_first) == default.constituents
            assert _peel_off(lam, levi, pick_maximal_lex_last) == default.constituents
    # a selector that picks a non-maximal weight must be rejected loudly
    with pytest.raises(RuntimeError):
        _peel_off((1, 1), LeviDatum(A2, {1}), lambda sup: sup[0])


def _small_dominant(rank, top):
    return [lam for lam in product(range(top + 1), repeat=rank) if sum(lam) <= top]


def test_alternating_sum_matches_peel_off_oracle():
    # every subset, the empty and the full one included, at small weights
    cases = [(name, lam) for name in ("A1", "A2", "B2", "G2", "A3", "B3", "C3")
             for lam in _small_dominant(int(name[1]), 2)]
    cases += [(name, lam) for name in ("A4", "B4", "C4", "D4", "F4")
              for lam in _small_dominant(4, 1)]
    cases += [("E6", (1, 0, 0, 0, 0, 0))]
    for name, lam in cases:
        rs = root_system(name)
        for k in range(rs.rank + 1):
            for subset in combinations(range(1, rs.rank + 1), k):
                levi = LeviDatum(rs, frozenset(subset))
                got = restrict_to_levi(lam, levi).constituents
                assert got == _peel_off(lam, levi), (name, lam, subset)
                assert got == _klimyk(lam, levi), (name, lam, subset)


def _straightened_by_oracle(rs, lam, subset):
    """The Levi constituents from the tuple walk of ``oracles.straighten``."""
    word = reduced_word(min_coset_rep(rs, subset))
    cols = rs.columns
    totals = {}
    for mu, c in demazure_character(rs, word, lam).items():
        if straight := straighten(cols, subset, mu):
            nu, sign = straight
            totals[nu] = totals.get(nu, 0) + sign * c
    return tuple((nu, n) for nu, n in sorted(totals.items()) if n)


def test_packed_walk_matches_tuple_walk_oracle():
    cases = []
    for name in ("A3", "B3", "C3", "D4", "G2"):
        rank = int(name[1])
        subsets = [s for k in range(rank + 1) for s in combinations(range(1, rank + 1), k)]
        for lam in ((1,) * rank, (0,) * (rank - 1) + (2,)):  # rho and 2 omega_n
            cases += [(name, lam, s) for s in subsets]
    cases.append(("B3", (6, 6, 6), (1,)))
    for lam in ((1, 0, 0, 0), (0, 0, 0, 1)):
        cases += [("F4", lam, s) for s in ((1,), (2, 3), (1, 2, 4))]
    cases += [("E6", (1, 0, 0, 0, 0, 0), s) for s in ((1,), (2, 3, 4), (1, 3, 5, 6))]
    for name, lam, subset in cases:
        rs = root_system(name)
        levi = LeviDatum(rs, frozenset(subset))
        expected = _straightened_by_oracle(rs, lam, levi.subset)
        assert restrict_to_levi(lam, levi).constituents == expected, (name, lam, subset)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_dimension_conserved_property(data):
    name = data.draw(st.sampled_from(["A2", "B2"]))
    rs = root_system(name)
    lam = data.draw(st.tuples(*[st.integers(0, 3)] * rs.rank))
    subset = frozenset(data.draw(st.sampled_from([{1}, {2}, {1, 2}])))
    result = restrict_to_levi(lam, LeviDatum(rs, subset))
    assert dimension_conserved(result)
    assert sum(m for _, m in result.constituents) == result.length


def test_levi_character_is_levi_weyl_character():
    # for the full subset this is the ambient Weyl character
    assert _levi_character(A2, frozenset({1, 2}), (1, 1)) == weyl_character(A2, (1, 1))
    # for a single node it is an sl2 string through mu
    char = _levi_character(A2, frozenset({1}), (2, -1))
    assert char == {(2, -1): 1, (0, 0): 1, (-2, 1): 1}


def test_unirad_identity_spots():
    assert unirad_mult_identity((1, 1, 0), LeviDatum(A3, {1, 2})) == (8, 8, True)
    assert unirad_mult_identity((2, 1), LeviDatum(A2, {1})) == (3, 3, True)
    # S-dominant but not dominant is fine
    assert unirad_mult_identity((-1, 1), LeviDatum(A2, {2})) == (2, 2, True)
    # empty subset: trivial Levi module
    assert unirad_mult_identity((2, 1), LeviDatum(A2, frozenset())) == (1, 1, True)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2"])
def test_unirad_demazure_side_matches_the_oracle_chain(name):
    # S-dominant starts with negative coordinates off S reach the memo of
    # dominant-weight characters; their dimensions must match the
    # one-packing chain of the tests
    rs = root_system(name)
    for k in range(rs.rank + 1):
        for subset in combinations(range(1, rs.rank + 1), k):
            word = reduced_word(longest_parabolic(rs, subset))
            for lam in product((-1, 0, 1), repeat=rs.rank):
                if not s_dominant(subset, lam):
                    continue
                dim = sum(_apply(rs, word, {lam: 1}).values())
                assert unirad_mult_identity(lam, LeviDatum(rs, subset)) == (dim, dim, True), (
                    name, subset, lam)


def test_unirad_rejects_non_s_dominant():
    with pytest.raises(ValueError):
        unirad_mult_identity((-1, 1), LeviDatum(A2, {1}))


def test_levi_weyl_dim_spots():
    assert levi_weyl_dim(A3, frozenset({1, 2}), (1, 1, -7)) == 8
    assert levi_weyl_dim(B3, frozenset({2, 3}), (-1, 0, 2)) == 10
    with pytest.raises(ValueError):
        levi_weyl_dim(A2, frozenset({1}), (-1, 0))
    # the subset is checked as LeviDatum checks it: index 0 or -1 would
    # read a coordinate of mu through mu[i - 1], and 5 would raise IndexError
    for subset in ({0}, {-1}, {5}, {1, 3}):
        with pytest.raises(ValueError, match=r"^simple index -?\d out of range 1\.\.2$"):
            levi_weyl_dim(A2, subset, (-1, 1))


def test_levi_datum_validation():
    with pytest.raises(ValueError):
        LeviDatum(A2, {0})
    with pytest.raises(ValueError):
        LeviDatum(A2, {3})
    # subset is normalized to a frozenset
    assert LeviDatum(A2, {1}).subset == frozenset({1})


def test_restriction_rejects_non_dominant():
    with pytest.raises(ValueError):
        restrict_to_levi((-1, 1), LeviDatum(A2, {1}))


@pytest.mark.parametrize("straightened, message", [
    ([((1, 1), -1)], "alternating sum gave multiplicity -1 at (1, 1)"),
    ([], "branching lost dimensions; the alternating sum is broken"),
])
def test_branch_refuses_a_broken_alternating_sum(monkeypatch, straightened, message):
    monkeypatch.setattr(branching, "_straightened", lambda *args: iter(straightened))
    with pytest.raises(RuntimeError) as exc:
        restrict_to_levi((1, 1), LeviDatum(A2, {1}))
    assert str(exc.value) == message


def test_multiplicity_bound_against_weight_multiplicity():
    # constituent multiplicities refine weight multiplicities: the Levi
    # constituent at mu can occur at most mult_lambda(mu) times
    levi = LeviDatum(A2, {1})
    for lam in ((2, 2), (3, 1)):
        result = restrict_to_levi(lam, levi)
        for mu, mult in result.constituents:
            assert mult <= weight_multiplicity(A2, lam, mu)
