import os
import re
import subprocess
import sys
import time
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from demazure import (
    add_weights,
    build_root_system,
    dominant_conjugate,
    is_dominant,
    pairing,
    rho,
    root_system,
    scale_weight,
    simple_reflection,
    sub_weights,
)
from demazure import roots
from demazure.roots import RootSystem, _reflect, _to_dominant
from oracles import (
    bond_cartan_matrix,
    half_norms,
    height_product_order,
    propagated_symmetrizer,
    rebuilt,
    scaled_inverse_cartan,
    simple_root,
)

ALL_NAMES = [
    "A1", "A2", "A3", "A4",
    "B2", "B3", "B4",
    "C3", "C4",
    "D4", "D5",
    "E6", "E7", "E8",
    "F4", "G2",
]

# classical positive-root counts
ROOT_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10,
    "B2": 4, "B3": 9, "B4": 16,
    "C3": 9, "C4": 16,
    "D4": 12, "D5": 20,
    "E6": 36, "E7": 63, "E8": 120,
    "F4": 24, "G2": 6,
}


def test_positive_root_counts():
    for name, count in ROOT_COUNTS.items():
        rs = root_system(name)
        assert len(rs.positive_roots) == count, name


def test_a_closure_that_loses_a_root_is_refused(monkeypatch):
    # the build checks the closure against the classical count; the
    # unmemoised build runs, so no broken system is kept
    close = roots._close_under_reflections
    monkeypatch.setattr(roots, "_close_under_reflections", lambda *table: close(*table)[:-1])
    message = "^B3: positive-root closure produced 8 roots, classical count is 9$"
    with pytest.raises(RuntimeError, match=message):
        roots._build_root_system.__wrapped__("B", 3)


def test_cartan_tables_rank2():
    assert root_system("A2").cartan == ((2, -1), (-1, 2))
    assert root_system("B2").cartan == ((2, -1), (-2, 2))
    # short root first in G2: column 1 is alpha_1 = 2w1 - w2
    assert root_system("G2").cartan == ((2, -3), (-1, 2))


def test_cartan_tables_rank3_4():
    b3 = root_system("B3")
    assert b3.cartan[1][2] == -1 and b3.cartan[2][1] == -2
    c3 = root_system("C3")
    assert c3.cartan[1][2] == -2 and c3.cartan[2][1] == -1
    f4 = root_system("F4")
    assert f4.cartan[1][2] == -1 and f4.cartan[2][1] == -2
    d4 = root_system("D4")
    # fork: nodes 3 and 4 both bonded to node 2
    assert d4.cartan[1][2] == d4.cartan[1][3] == -1
    assert d4.cartan[2][3] == 0


def test_cartan_e_series():
    # node 2 hangs off node 4 of the chain 1-3-4-5-...
    for name in ("E6", "E7", "E8"):
        a = root_system(name).cartan
        assert a[1][3] == a[3][1] == -1
        assert a[0][2] == a[2][0] == -1
        assert a[0][1] == a[1][0] == 0


def test_simple_roots_are_cartan_columns():
    rs = root_system("B3")
    assert simple_root(rs, 1) == (2, -1, 0)
    assert simple_root(rs, 2) == (-1, 2, -2)
    assert simple_root(rs, 3) == (0, -1, 2)


def test_g2_positive_roots_exact():
    # simple-root coordinates, sorted by height then lex
    assert root_system("G2").positive_roots == (
        (0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2),
    )


def test_a2_positive_roots_exact():
    assert root_system("A2").positive_roots == ((0, 1), (1, 0), (1, 1))


def test_positive_roots_sum_to_two_rho():
    for name in ALL_NAMES:
        rs = root_system(name)
        total = (0,) * rs.rank
        for alpha in rs.positive_roots_fund:
            total = add_weights(total, alpha)
        assert total == scale_weight(2, rho(rs)), name


def test_symmetrizer_values():
    assert root_system("A3").symmetrizer == (1, 1, 1)
    assert root_system("B3").symmetrizer == (2, 2, 1)
    assert root_system("C3").symmetrizer == (1, 1, 2)
    assert root_system("F4").symmetrizer == (2, 2, 1, 1)
    assert root_system("G2").symmetrizer == (1, 3)


def test_symmetrizer_symmetrizes():
    for name in ALL_NAMES:
        rs = root_system(name)
        d = rs.symmetrizer
        a = rs.cartan
        n = rs.rank
        for i in range(n):
            for j in range(n):
                assert d[i] * a[i][j] == d[j] * a[j][i], name


TABLE_SYSTEMS = [
    (family, rank)
    for family, low in (("A", 1), ("B", 2), ("C", 3), ("D", 4))
    for rank in [*range(low, 13), 50, 100]
] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


def test_dynkin_tables_match_bond_tables_and_propagated_symmetrizer():
    # the Cartan matrix as bond pairs and d by ratio propagation along the graph
    for family, rank in TABLE_SYSTEMS:
        rs = build_root_system(family, rank)
        assert rs.cartan == bond_cartan_matrix(family, rank), rs.name
        assert rs.symmetrizer == propagated_symmetrizer(rs), rs.name


def test_scaled_inverse_cartan_is_least_integral_inverse():
    # rows . A == D . I, and no proper divisor of D leaves D A^{-1} integral
    for name in ALL_NAMES:
        rs = root_system(name)
        scale, rows = scaled_inverse_cartan(rs)
        n = rs.rank
        for i in range(n):
            for j in range(n):
                s = sum(rows[i][k] * rs.cartan[k][j] for k in range(n))
                assert s == scale * int(i == j), name
        assert gcd(scale, *(x for row in rows for x in row)) == 1, name


def test_scaled_inverse_cartan_of_simple_roots():
    rs = root_system("B3")
    scale, rows = scaled_inverse_cartan(rs)
    for i in range(1, 4):
        coords = tuple(sum(r * x for r, x in zip(row, simple_root(rs, i))) for row in rows)
        assert coords == tuple(scale * int(j == i - 1) for j in range(3))


def test_dots_coroot_pairing_is_two():
    # <alpha, alpha^vee> = 2 for every positive root
    for name in ("A3", "B3", "C3", "G2", "F4"):
        rs = root_system(name)
        fund = rs.positive_roots_fund
        halves = half_norms(rs.positive_roots, fund, rs.symmetrizer)
        for alpha, dots, half_norm in zip(fund, rs.dots, halves):
            assert sum(d * a for d, a in zip(dots, alpha)) == 2 * half_norm, name


@pytest.mark.parametrize("name", [
    "A1", "A2", "A3", "A5", "B2", "B3", "B5", "C3", "C5", "D4", "D6", "G2", "F4", "E6", "E7", "E8",
    "A30", "D30",
])
def test_highest_first_raises_match_a_simple_root_oracle(name):
    # in simple-root coordinates, with the pairings read off the bond
    # Cartan matrix: s_j alpha_k = alpha_k - <alpha_k, alpha_j^vee> alpha_j,
    # listed for exactly the j where that pairing is negative
    rs = root_system(name)
    a = bond_cartan_matrix(rs.family, rs.rank)
    down = rs.positive_roots[::-1]
    halves = half_norms(rs.positive_roots, rs.positive_roots_fund, rs.symmetrizer)[::-1]
    table = rs.highest_first
    fields = zip(rs.positive_roots_fund, rs.positive_roots, rs.dots)
    assert [entry[:3] for entry in table] == list(fields)[::-1]
    assert rs.highest_first_index == {entry[0]: k for k, entry in enumerate(table)}
    for k, (_, c, dots, sq, height, rise, raises) in enumerate(table):
        assert (sq, height, rise) == (2 * halves[k], sum(c), 2 * sum(dots) - sq), (name, c)
        pairings = [sum(ci * a[j][i] for i, ci in enumerate(c)) for j in range(rs.rank)]
        assert [j for j, _ in raises] == [j for j, p in enumerate(pairings) if p < 0], (name, c)
        for j, h in raises:
            assert down[h] == tuple(ci - pairings[j] * (i == j) for i, ci in enumerate(c)), (name, c, j)
            assert h < k


@pytest.mark.parametrize("name, symmetrizer", [("G2", (1, 2)), ("B3", (1, 1, 2)), ("A2", (1, -1))])
def test_dots_raise_on_a_bad_norm(name, symmetrizer):
    # an odd (G2, B3) or a nonpositive (A2) root norm raises on every read
    broken = rebuilt(root_system(name), symmetrizer=symmetrizer)
    for _ in range(2):
        with pytest.raises(RuntimeError, match=f"{name}: bad norm for root"):
            broken.dots


def _counting(fn, calls):
    def counted(rs):
        calls.append(fn.__name__)
        return fn(rs)

    return counted


CACHED = ("dots", "order", "dim_table", "supports", "highest_first", "highest_first_index")


def test_dots_and_order_are_computed_once_per_instance(monkeypatch):
    calls = []
    for attr in CACHED:
        descriptor = vars(RootSystem)[attr]
        monkeypatch.setattr(descriptor, "fn", _counting(descriptor.fn, calls))
    named = root_system("B3")
    fresh = rebuilt(named)
    assert fresh is not named and not set(CACHED) & set(vars(fresh))
    dots, order = fresh.dots, fresh.order
    assert fresh.dots is dots and fresh.order == order
    assert calls == ["dots", "order"]
    assert vars(fresh)["dots"] is dots and vars(fresh)["order"] == order == 48
    # the dimension table is built from the stored dot vectors, once
    table = fresh.dim_table
    assert fresh.dim_table is table and table[0] is dots and table[2] == prod(table[1])
    assert calls == ["dots", "order", "dim_table"]
    # the supports, from which a Levi selects rows of that table, once
    supports = fresh.supports
    assert fresh.supports is supports is vars(fresh)["supports"] and len(supports) == len(dots)
    assert calls == ["dots", "order", "dim_table", "supports"]
    # so is Freudenthal's table, which reads the index of its raises once
    down = fresh.highest_first
    assert fresh.highest_first is down and fresh.highest_first_index is vars(fresh)["highest_first_index"]
    assert len(down) == len(dots) and all(entry[2] is v for entry, v in zip(down, reversed(dots)))
    assert calls == ["dots", "order", "dim_table", "supports", "highest_first", "highest_first_index"]
    # they are stored on the instance, not as fields: equality and hashing ignore them
    assert fresh == named and hash(fresh) == hash(named)
    assert not set(CACHED) & set(vars(rebuilt(fresh)))


ORDER_NAMES = [
    f"{family}{rank}"
    for family, low in (("A", 1), ("B", 2), ("C", 3), ("D", 4))
    for rank in [*range(low, 13), 50, 100]
] + ["E6", "E7", "E8", "F4", "G2"]


def test_order_matches_height_product():
    # |W| from the height counts, against Macdonald's product over every root
    for name in ORDER_NAMES:
        rs = root_system(name)
        assert rs.order == height_product_order(rs.positive_roots), name


@given(
    name=st.sampled_from(["A2", "A3", "B2", "B3", "C3", "G2", "F4"]),
    data=st.data(),
)
def test_simple_reflection_involution(name, data):
    rs = root_system(name)
    mu = data.draw(st.tuples(*[st.integers(-6, 6)] * rs.rank))
    i = data.draw(st.integers(1, rs.rank))
    assert simple_reflection(rs, i, simple_reflection(rs, i, mu)) == mu


@given(
    name=st.sampled_from(["A2", "B2", "G2", "A3"]),
    data=st.data(),
)
def test_simple_reflection_formula(name, data):
    # s_i(mu) = mu - <mu, alpha_i^vee> alpha_i
    rs = root_system(name)
    mu = data.draw(st.tuples(*[st.integers(-6, 6)] * rs.rank))
    i = data.draw(st.integers(1, rs.rank))
    m = pairing(rs, mu, i)
    assert simple_reflection(rs, i, mu) == sub_weights(mu, scale_weight(m, simple_root(rs, i)))


def test_rho_pairings_all_one():
    for name in ALL_NAMES:
        rs = root_system(name)
        assert all(pairing(rs, rho(rs), i) == 1 for i in range(1, rs.rank + 1))


@given(
    name=st.sampled_from(["A2", "B2", "B3", "G2"]),
    data=st.data(),
)
def test_dominant_conjugate_properties(name, data):
    rs = root_system(name)
    mu = data.draw(st.tuples(*[st.integers(-5, 5)] * rs.rank))
    dom = dominant_conjugate(rs, mu)
    assert is_dominant(dom)
    assert dominant_conjugate(rs, dom) == dom
    # reflecting mu never leaves the orbit
    for i in range(1, rs.rank + 1):
        assert dominant_conjugate(rs, simple_reflection(rs, i, mu)) == dom


def test_build_validation():
    with pytest.raises(ValueError):
        root_system("Z9")
    with pytest.raises(ValueError):
        root_system("A0")
    with pytest.raises(ValueError):
        root_system("C2")
    with pytest.raises(ValueError):
        root_system("D3")
    with pytest.raises(ValueError):
        root_system("E9")
    with pytest.raises(ValueError):
        root_system("F5")
    with pytest.raises(ValueError):
        root_system("G3")
    with pytest.raises(ValueError):
        root_system("bogus")
    # superscript digits pass str.isdigit but not int(), and other
    # Unicode decimal digits pass str.isdecimal: only ASCII digits count
    for name in ("A²", "E⁸", "A٣"):
        with pytest.raises(ValueError, match="cannot parse root system name"):
            root_system(name)
    # int() refuses more than 4,300 digits; the rank error comes first
    with pytest.raises(ValueError, match=r"^rank 9{20}\.\.\. invalid for type A; allowed 1\.\.100$"):
        root_system("A" + "9" * 5000)
    with pytest.raises(ValueError, match="unknown family 'Z'"):
        root_system("Z" + "9" * 5000)
    # a rank of 21 digits or more, of either sign, shows its sign and
    # first 20 digits, without a conversion of the whole integer to text
    for rank in (10**5000, -(10**5000), -(10**25)):
        sign = "-" if rank < 0 else ""
        with pytest.raises(ValueError, match=rf"^rank {sign}10{{19}}\.\.\. invalid for type A; allowed 1\.\.100$"):
            build_root_system("A", rank)
    assert root_system("A" + "0" * 5000 + "3") == root_system("A3")
    with pytest.raises(ValueError):
        build_root_system("H", 3)


def test_rank_cap_fails_before_building():
    for name in ("A101", "B101", "C101", "D101", "A100000"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"rank {name[1:]} invalid for type {name[0]}"):
            root_system(name)
        assert time.perf_counter() - start < 0.1, name


def test_weight_length_checked():
    rs = root_system("A2")
    with pytest.raises(ValueError):
        pairing(rs, (1, 2, 3), 1)
    with pytest.raises(ValueError):
        simple_reflection(rs, 1, (1,))
    with pytest.raises(ValueError):
        simple_reflection(rs, 3, (1, 1))


def test_instances_are_cached():
    assert root_system("B3") is root_system("B3")
    assert root_system("B3") is build_root_system("B", 3)


# build_root_system once memoised its raw arguments: ("A", True) kept a
# system of rank True named "ATrue", which every later root_system("A1")
# returned and the CLI printed.  A fresh process, so that no system built
# earlier in the session answers the first call.
_RAW_ARGUMENTS = """
from demazure import build_root_system, root_system
from demazure.cli import run

class Index:  # anything with __index__, as a numpy integer has
    def __index__(self):
        return 3

first = build_root_system("a", True)
print(first.name, type(first.rank).__name__, root_system("A1") is first)
b3 = build_root_system("B", Index())
print(b3.name, type(b3.rank).__name__, root_system("B3") is b3)
run(["unirad", "--type", "A1", "--weight", "1", "--subset", "1"])
"""


def test_the_memo_keeps_only_checked_arguments():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", _RAW_ARGUMENTS], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["A1 int True", "B3 int True"]
    assert lines[2].startswith('{"root_system":"A1",')


@pytest.mark.parametrize("rank", [2.0, "2", None])
def test_a_rank_that_is_not_an_integer_is_refused(rank):
    # 2.0 once returned A2 when A2 was built earlier, and raised TypeError otherwise
    with pytest.raises(ValueError, match=f"^rank {re.escape(repr(rank))} is not an integer$"):
        build_root_system("A", rank)


def test_name_round_trip():
    for name in ALL_NAMES:
        assert root_system(name).name == name


def test_repr_names_the_system():
    assert repr(root_system("B3")) == "RootSystem(B3)"
    assert repr(build_root_system("G", 2)) == "RootSystem(G2)"


def test_a_cached_attribute_read_on_the_class_is_its_descriptor():
    # only an instance computes and stores the value
    for attr in CACHED:
        descriptor = getattr(RootSystem, attr)
        assert isinstance(descriptor, roots._cached) and descriptor.name == attr
        assert descriptor.__doc__ == descriptor.fn.__doc__


def test_directly_built_system_equals_and_hashes_like_named_one():
    for name in ALL_NAMES:
        named = root_system(name)
        fields = (named.family, named.rank, named.cartan, named.positive_roots)
        tables = (named.columns, named.positive_roots_fund, named.symmetrizer)
        direct = RootSystem(*fields, *tables)
        assert direct is not named
        assert direct == named and hash(direct) == hash(named), name
        # reading the derived values changes neither equality nor hash
        assert [getattr(direct, a) for a in CACHED] == [getattr(named, a) for a in CACHED], name
        assert direct == named and hash(direct) == hash(named), name
        assert {named: name}[direct] == name
        # equality still compares every field
        assert RootSystem(named.family, named.rank, named.cartan, (), *tables) != named
        assert RootSystem(*fields, (), named.positive_roots_fund, named.symmetrizer) != named


# Dense references that share no code with the library: every reflection
# reads the Cartan matrix row by row, and every scan starts at coordinate 1.

def _reference_to_dominant(rs, x, y):
    letters = []
    while negative := [k for k, c in enumerate(x) if c < 0]:
        k = negative[0]
        m, p = x[k], y[k]
        x = [a - m * row[k] for a, row in zip(x, rs.cartan)]
        y = [b - p * row[k] for b, row in zip(y, rs.cartan)]
        letters.append(k + 1)
    return letters, x, y


def _reference_positive_roots(cartan, rank):
    seen = {tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(rank):
                r = list(c)
                r[i] -= sum(cartan[i][j] * c[j] for j in range(rank))
                if tuple(r) not in seen:
                    seen.add(tuple(r))
                    nxt.append(tuple(r))
        frontier = nxt
    return sorted((c for c in seen if min(c) >= 0), key=lambda c: (sum(c), c))


WALK_NAMES = ["A1", "A2", "A6", "B2", "B5", "C3", "C5", "D4", "D6", "E6", "E7", "E8", "F4", "G2"]


@given(name=st.sampled_from(WALK_NAMES), data=st.data())
@settings(max_examples=300, deadline=None)
def test_to_dominant_matches_restart_from_zero_walk(name, data):
    rs = root_system(name)
    coords = st.lists(st.integers(-8, 8), min_size=rs.rank, max_size=rs.rank)
    x, y = data.draw(coords), data.draw(coords)
    assume(y != list(rho(rs)))
    letters, x_ref, y_ref = _reference_to_dominant(rs, x, y)
    x_walk = list(x)
    walked = _to_dominant(rs.columns, x_walk)
    assert walked == letters
    assert x_walk == x_ref
    assert is_dominant(x_walk)
    # reflecting y along the returned letters gives the reference's y
    assert list(_reflect(rs, y, walked)) == y_ref


@pytest.mark.parametrize(
    "family,rank",
    [("A", 12), ("B", 8), ("C", 8), ("D", 8), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
)
def test_positive_roots_match_dense_closure(family, rank):
    rs = build_root_system(family, rank)
    assert list(rs.positive_roots) == _reference_positive_roots(rs.cartan, rank)


def _reference_root_tables(rs):
    """(columns, fundamental coordinates, symmetrizer, (dot vector, half-norm) pairs) by dense sums.

    The columns are a dense read of the nonzero entries of each column of
    the Cartan matrix, and d is the symmetrizer propagated along the graph.
    """
    a, n, d = rs.cartan, rs.rank, propagated_symmetrizer(rs)
    cols = tuple(tuple((j, a[j][i]) for j in range(n) if a[j][i] != 0) for i in range(n))
    fund = tuple(tuple(sum(row[j] * c[j] for j in range(n)) for row in a) for c in rs.positive_roots)
    data = tuple(
        (
            tuple(cj * dj for cj, dj in zip(c, d)),
            sum(c[j] * c[k] * d[k] * a[k][j] for j in range(n) for k in range(n)) // 2,
        )
        for c in rs.positive_roots
    )
    return cols, fund, d, data


@pytest.mark.parametrize(
    "name", ["A1", "A12", "B2", "B9", "C3", "C9", "D4", "D9", "E6", "E7", "E8", "F4", "G2"]
)
def test_root_tables_match_dense_oracle(name):
    rs = root_system(name)
    halves = half_norms(rs.positive_roots, rs.positive_roots_fund, rs.symmetrizer)
    tables = (rs.columns, rs.positive_roots_fund, rs.symmetrizer, tuple(zip(rs.dots, halves)))
    assert tables == _reference_root_tables(rs)
