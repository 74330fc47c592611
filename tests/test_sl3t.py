from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from demazure import (
    Biweight,
    closed_mult,
    dual_weight,
    generator_biweights,
    mult_via_weights,
    root_system,
    sigma_member,
    theorem2_mult,
    weight_multiplicity,
)
from demazure.sl3t import AUDIT_COLUMNS, audit_rows, torus_weight_coords


def closed_n(bw):
    """The paper's n, as a Fraction.

    n = (k1 + k2)/2 - (1/6) * sum over cyclic (i, j, k) of |k1 - k2 + 2 l_i - l_j - l_k|
    """
    l1, l2, l3 = bw.l
    d = bw.k1 - bw.k2
    cyclic = ((l1, l2, l3), (l2, l3, l1), (l3, l1, l2))
    return Fraction(bw.k1 + bw.k2, 2) - sum(Fraction(abs(d + 2 * i - j - k), 6) for i, j, k in cyclic)


def test_spot_values():
    assert closed_mult(Biweight(1, 1, (0, 0, 0))) == 2
    assert closed_mult(Biweight(2, 2, (0, 0, 0))) == 3
    assert closed_mult(Biweight(3, 3, (1, 1, 1))) == 4
    assert closed_mult(Biweight(0, 0, (0, 0, 0))) == 1
    assert closed_mult(Biweight(1, 0, (1, 0, 0))) == 1


def test_closed_mult_is_closed_n_plus_one_on_members():
    for k1, k2, *l in product(range(4), range(4), *[range(-2, 3)] * 3):
        bw = Biweight(k1, k2, l)
        n = closed_n(bw)
        assert isinstance(n, Fraction)
        expected = int(n) + 1 if sigma_member(bw) else 0
        assert closed_mult(bw) == expected


def test_non_members():
    # k1 - k2 - sum(l) must vanish mod 3
    bw = Biweight(1, 0, (0, 0, 0))
    assert not sigma_member(bw)
    assert closed_mult(bw) == 0
    assert mult_via_weights(bw) == 0
    assert theorem2_mult(bw) == 0
    # congruence holds but the closed count goes negative
    bw = Biweight(0, 0, (1, -1, 0))
    assert closed_n(bw) == -1
    assert not sigma_member(bw)
    assert closed_mult(bw) == 0


def test_closed_n_fractional_is_rejected_as_member():
    # n integral is part of membership, not an error
    bw = Biweight(1, 1, (1, 0, 0))
    assert isinstance(closed_n(bw), Fraction)
    assert not sigma_member(bw)
    assert closed_mult(bw) == 0 == mult_via_weights(bw)


def test_torus_weight_coords():
    assert torus_weight_coords((1, 0, 0)) == (-1, 0)
    assert torus_weight_coords((0, 0, 1)) == (0, 1)
    assert torus_weight_coords((1, 1, 1)) == (0, 0)


def test_weights_route_is_a_weight_multiplicity():
    # mult of (k, l) = multiplicity of the torus weight in V(dual k)
    a2 = root_system("A2")
    bw = Biweight(1, 1, (0, 0, 0))
    assert mult_via_weights(bw) == weight_multiplicity(a2, (1, 1), (0, 0)) == 2


def test_a2_dual_swaps_coordinates():
    # mult_via_weights reads the dual of (k1, k2) as (k2, k1) without w0
    a2 = root_system("A2")
    for a, b in product(range(7), repeat=2):
        assert dual_weight(a2, (a, b)) == (b, a)


def test_triple_agreement_small_grid():
    for k1, k2 in product(range(4), repeat=2):
        for l in product(range(-2, 3), repeat=3):
            bw = Biweight(k1, k2, l)
            a, b, c = closed_mult(bw), mult_via_weights(bw), theorem2_mult(bw)
            assert a == b == c, (bw, a, b, c)
            assert (a > 0) == sigma_member(bw)


@given(
    k1=st.integers(0, 6),
    k2=st.integers(0, 6),
    l=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
    shift=st.integers(-2, 2),
)
@settings(max_examples=150)
def test_shift_invariance(k1, k2, l, shift):
    bw = Biweight(k1, k2, l)
    moved = Biweight(k1, k2, tuple(x + shift for x in l))
    assert moved.l == tuple(x + shift for x in l)
    assert closed_n(moved) == closed_n(bw)
    assert sigma_member(moved) == sigma_member(bw)
    assert closed_mult(moved) == closed_mult(bw)
    assert mult_via_weights(moved) == mult_via_weights(bw)
    assert theorem2_mult(moved) == theorem2_mult(bw)


def test_generator_biweights():
    gens = generator_biweights()
    # three (0,1,-e_i), three (1,0,+e_i), one (1,1,0): seven distinct
    assert len(gens) == len(set(gens)) == 7
    assert all(sigma_member(bw) for bw in gens)
    for bw in gens:
        if (bw.k1, bw.k2) != (1, 1):
            assert closed_mult(bw) == 1, bw
    # the (1,1,0) biweight carries the zero torus weight of the adjoint
    assert closed_mult(Biweight(1, 1, (0, 0, 0))) == 2


def test_linear_growth_along_diagonal():
    for n in range(31):
        assert closed_mult(Biweight(n, n, (0, 0, 0))) == n + 1


def test_multiplicity_bounded_by_min_k():
    for k1, k2 in product(range(5), repeat=2):
        cap = min(k1, k2) + 1
        for l in product(range(-2, 3), repeat=3):
            assert closed_mult(Biweight(k1, k2, l)) <= cap


def test_biweight_validation():
    with pytest.raises(ValueError):
        Biweight(-1, 0, (0, 0, 0))
    with pytest.raises(ValueError):
        Biweight(0, 0, (0, 0))
    # l normalizes to a tuple
    assert Biweight(0, 0, [0, 0, 0]).l == (0, 0, 0)


def test_audit_rows():
    rows = list(audit_rows(1, 1))
    assert len(rows) == 4 * 27
    for row in rows:
        assert len(row) == len(AUDIT_COLUMNS)
        assert row[-1] is True
    # spot: the adjoint zero-weight row
    hit = [r for r in rows if r[:5] == (1, 1, 0, 0, 0)]
    assert len(hit) == 1
    member, n, closed, weights, steps, agree = hit[0][5:]
    assert (member, closed, weights, steps, agree) == (True, 2, 2, 2, True)


@pytest.mark.parametrize("kmax, lmax", [(3, 2), (1, 3)])
def test_audit_rows_match_public_routes(kmax, lmax):
    # Every audit column against the public per-biweight function it stands for.
    ns = set()
    for row in audit_rows(kmax, lmax):
        k1, k2, l1, l2, l3, member, n, closed, weights, steps, agree = row
        bw = Biweight(k1, k2, (l1, l2, l3))
        assert member is sigma_member(bw), row
        assert n == str(closed_n(bw)), row
        assert (closed, weights, steps) == (
            closed_mult(bw), mult_via_weights(bw), theorem2_mult(bw)
        ), row
        assert agree is (closed == weights == steps), row
        ns.add(closed_n(bw))
    assert any(n < 0 and n.denominator == 1 for n in ns)
    assert any(n.denominator > 1 for n in ns)
    assert any(n >= 0 and n.denominator == 1 for n in ns)
