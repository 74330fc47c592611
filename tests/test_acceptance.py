"""Acceptance suite: ten end-to-end checks with explicit budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion (a failing criterion shows up as a failed test).  Every
comparison is exact integer equality; there are no tolerances anywhere.
"""

import contextlib
import io
import random
import time
from itertools import combinations, product

from demazure import (
    Biweight,
    LeviDatum,
    closed_mult,
    demazure_character,
    demazure_dim,
    demazure_fold,
    demazure_operator,
    demazure_product,
    dimension_sequence,
    growth_degree,
    identity,
    levi_length_bound,
    longest_element,
    mult_via_weights,
    reduced_word,
    restrict_to_levi,
    rho,
    root_system,
    scale_weight,
    simple_element,
    theorem2_mult,
    unirad_mult_identity,
    weyl_dim,
    weyl_group,
)
from demazure.branching import _coset_bound
from demazure.cli import run as cli_run
from oracles import all_reduced_words, dimension_conserved, generator_biweights, sigma_member

SEED = 12345


def _report(n, t0, budget, detail):
    elapsed = time.time() - t0
    if budget is not None:
        assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    print(f"\ncriterion {n:>2} PASS ({elapsed:5.1f}s): {detail}")


def test_criterion_01_operator_three_cases():
    t0 = time.time()
    a1 = root_system("A1")
    for m in range(-5, 6):
        out = demazure_operator(a1, 1, {(m,): 1})
        if m >= 0:
            expected = {(m - 2 * k,): 1 for k in range(m + 1)}
            assert len(out) == m + 1
        elif m == -1:
            expected = {}
        else:
            expected = {(m + 2 * k,): -1 for k in range(1, -m)}
            assert len(out) == abs(1 + m)
        assert out == expected, m
    _report(1, t0, 1, "rank-1 operator matches hand-expanded sums for m in [-5, 5]")


def test_criterion_02_full_module_dimension_oracle():
    t0 = time.time()
    grids = [("A1", 249), ("A2", 12), ("B2", 10), ("A3", 4), ("G2", 5)]
    cases = 0
    for name, cmax in grids:
        rs = root_system(name)
        w0 = longest_element(rs)
        for lam in product(range(cmax + 1), repeat=rs.rank):
            assert demazure_dim(w0, lam) == weyl_dim(rs, lam), (name, lam)
            cases += 1
    # every dominant weight with coordinates <= 4 in these five types is
    # included (the per-type caps only extend the grids)
    assert cases == 701 >= 700
    _report(2, t0, 60, f"longest-word expansion equals the product formula on {cases} weights")


def test_criterion_03_reduced_word_invariance():
    t0 = time.time()
    for name in ("A2", "B2"):
        rs = root_system(name)
        targets = (rho(rs), scale_weight(2, rho(rs)))
        for w in weyl_group(rs):
            words = list(all_reduced_words(rs.columns, w.apply(rho(rs))))
            for lam in targets:
                base = demazure_character(rs, words[0], lam)
                for word in words[1:]:
                    assert demazure_character(rs, word, lam) == base, (name, word, lam)
    a3 = root_system("A3")
    rng = random.Random(SEED)
    targets = (rho(a3), scale_weight(2, rho(a3)))
    group = weyl_group(a3)
    pairs = 0
    while pairs < 200:
        w = rng.choice(group)
        words = list(all_reduced_words(a3.columns, w.apply(rho(a3))))
        if len(words) < 2:
            continue
        u, v = rng.sample(words, 2)
        for lam in targets:
            assert demazure_character(a3, u, lam) == demazure_character(a3, v, lam)
        pairs += 1
    _report(3, t0, 60, "characters are word-independent (exhaustive rank 2, 200 random A3 pairs)")


def test_criterion_04_sl3_torus_triple_agreement():
    t0 = time.time()
    cases = members = 0
    for k1, k2 in product(range(7), repeat=2):
        for l in product(range(-3, 4), repeat=3):
            bw = Biweight(k1, k2, l)
            a = closed_mult(bw)
            assert a == mult_via_weights(bw) == theorem2_mult(bw), bw
            assert (a > 0) == sigma_member(k1, k2, l)
            cases += 1
            members += a > 0
    assert cases == 16807
    # the generating biweights are all members; the six of fundamental
    # type have multiplicity 1, and the (1,1,(0,0,0)) spot value is 2
    # (its torus weight is the zero weight of the adjoint module, of
    # multiplicity 2, as the grid agreement above already forces)
    gens = [Biweight(*g) for g in generator_biweights()]
    assert len(gens) == 7
    assert all(sigma_member(bw.k1, bw.k2, bw.l) for bw in gens)
    assert all(closed_mult(bw) == 1 for bw in gens if (bw.k1, bw.k2) != (1, 1))
    assert closed_mult(Biweight(1, 1, (0, 0, 0))) == 2
    assert closed_mult(Biweight(2, 2, (0, 0, 0))) == 3
    _report(4, t0, 60, f"three multiplicity routes agree on {cases} biweights ({members} members)")


def test_criterion_05_rank_one_module_bound():
    t0 = time.time()
    a2 = root_system("A2")
    for k1, k2 in product(range(7), repeat=2):
        cap = min(k1, k2) + 1
        s_dims = [demazure_dim(simple_element(a2, i), (k1, k2)) for i in (1, 2)]
        assert min(s_dims) == cap, (k1, k2)
        for l in product(range(-3, 4), repeat=3):
            assert closed_mult(Biweight(k1, k2, l)) <= cap
    _report(5, t0, 60, "multiplicities bounded by the smallest rank-1 module dimension")


def test_criterion_06_growth_degree_equals_length():
    t0 = time.time()
    for name in ("A2", "B2"):
        rs = root_system(name)
        for w in weyl_group(rs):
            seq = dimension_sequence(w, rho(rs), w.length + 4)
            assert growth_degree(seq) == w.length, (name, reduced_word(w))
            for lam in product(range(3), repeat=rs.rank):
                deg = growth_degree(dimension_sequence(w, lam, w.length + 4))
                assert deg <= w.length, (name, reduced_word(w), lam)
    a2 = root_system("A2")
    s1s2 = simple_element(a2, 1) * simple_element(a2, 2)
    assert dimension_sequence(s1s2, rho(a2), 4).values[1] == 5
    _report(6, t0, 120, "dilation degree = length at rho, bounded for all weights with coords <= 2")


def test_criterion_07_branching_bounds():
    t0 = time.time()
    cases = 0
    for name, cmax in (("A2", 4), ("A3", 2), ("B3", 2)):
        rs = root_system(name)
        n = rs.rank
        subsets = [frozenset(s) for r in range(1, n) for s in combinations(range(1, n + 1), r)]
        for lam in product(range(cmax + 1), repeat=n):
            for subset in subsets:
                levi = LeviDatum(rs, subset)
                result = restrict_to_levi(lam, levi)
                bound = _coset_bound(lam, levi)
                for _, mult in result.constituents:
                    assert mult <= bound, (name, lam, subset)
                assert result.length <= bound, (name, lam, subset)
                assert dimension_conserved(
                    rs.positive_roots, rs.dots, subset, result.lam, result.constituents
                ), (name, lam, subset)
                cases += 1
    # tightness at the smallest nontrivial case
    length, bound, holds = levi_length_bound((1, 0), LeviDatum(root_system("A2"), {1}))
    assert (length, bound, holds) == (2, 2, True)
    _report(7, t0, 120, f"coset-representative bound and conservation on {cases} restrictions")


def test_criterion_08_parabolic_dimension_identity():
    t0 = time.time()
    cases = 0
    for name in ("A2", "A3", "B3"):
        rs = root_system(name)
        n = rs.rank
        for mask in range(2 ** n):
            subset = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            levi = LeviDatum(rs, subset)
            ranges = [range(0, 4) if (i + 1) in subset else range(-3, 4) for i in range(n)]
            for lam in product(*ranges):
                left, right, equal = unirad_mult_identity(lam, levi)
                assert equal and left == right, (name, subset, lam)
                cases += 1
    _report(8, t0, 60, f"parabolic module dimension equals Levi dimension in {cases} cases")


def _braid_orders(rs):
    for i in range(1, rs.rank + 1):
        for j in range(i + 1, rs.rank + 1):
            p = rs.cartan[i - 1][j - 1] * rs.cartan[j - 1][i - 1]
            yield i, j, {0: 2, 1: 3, 2: 4, 3: 6}[p]


def _monoid_closure(rs):
    gens = [simple_element(rs, i) for i in range(1, rs.rank + 1)]
    seen = {identity(rs), *gens}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for s in gens:
                y = demazure_product(x, s)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def test_criterion_09_monoid_relations():
    t0 = time.time()
    for name in ("A2", "B2", "G2", "A3"):
        rs = root_system(name)
        e = identity(rs)
        for i in range(1, rs.rank + 1):
            assert demazure_fold(e, (i, i)) == simple_element(rs, i)
        for i, j, m in _braid_orders(rs):
            left = tuple(i if k % 2 == 0 else j for k in range(m))
            right = tuple(j if k % 2 == 0 else i for k in range(m))
            assert demazure_fold(e, left) == demazure_fold(e, right), (name, i, j)
    a2 = root_system("A2")
    for x in weyl_group(a2):
        for y in weyl_group(a2):
            for z in weyl_group(a2):
                assert demazure_product(demazure_product(x, y), z) == \
                    demazure_product(x, demazure_product(y, z))
    rng = random.Random(SEED)
    for name in ("A3", "B3"):
        group = weyl_group(root_system(name))
        for _ in range(1000):
            x, y, z = (rng.choice(group) for _ in range(3))
            assert demazure_product(demazure_product(x, y), z) == \
                demazure_product(x, demazure_product(y, z))
    for name in ("A2", "B2", "A3"):
        rs = root_system(name)
        assert len(_monoid_closure(rs)) == len(weyl_group(rs)), name
    _report(9, t0, 60, "idempotent generators, braid relations, associativity, closure = |W|")


GOLDEN_CORPUS = [
    ["char", "--type", "A1", "--word", "", "--weight", "3"],
    ["char", "--type", "A2", "--word", "1,2,1", "--weight", "1,1"],
    ["char", "--type", "G2", "--word", "1,2,1,2,1,2", "--weight", "1,0"],
    ["dim", "--type", "A2", "--word", "1,2,1", "--weight", "1,1"],
    ["dim", "--type", "B3", "--word", "1,2,3,2,1", "--weight", "2,2,2"],
    ["weight-mult", "--type", "A2", "--weight", "1,1", "--mu", "0,0"],
    ["dual", "--type", "A3", "--weight", "1,2,3"],
    ["hecke", "--type", "B2", "--left", "1,2,1", "--right", "2,1,2"],
    ["branch", "--type", "A2", "--weight", "1,1", "--subset", "1"],
    ["branch", "--type", "B3", "--weight", "0,1,0", "--subset", "2,3"],
    ["unirad", "--type", "A3", "--weight", "1,1,0", "--subset", "1,2"],
    ["growth", "--type", "A2", "--word", "1,2", "--weight", "1,1"],
    ["growth", "--type", "B2", "--word", "2,1,2", "--weight", "1,1", "--format", "tsv"],
    ["sl3t", "--k1", "1", "--k2", "1", "--l", "0,0,0"],
    ["sl3t", "--grid", "2,2"],
]


def _capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_run(argv)
    return code, out.getvalue()


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    for argv in GOLDEN_CORPUS:
        code1, out1 = _capture(argv)
        code2, out2 = _capture(argv)
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv
        assert out1, argv
    # cold cache, warm cache, and no cache must print identical bytes
    for base in (
        ["char", "--type", "A2", "--word", "1,2,1", "--weight", "1,1"],
        ["dim", "--type", "B2", "--word", "1,2,1,2", "--weight", "2,1"],
    ):
        _, plain = _capture(base)
        cached = base + ["--cache", str(tmp_path)]
        _, cold = _capture(cached)
        _, warm = _capture(cached)
        assert plain == cold == warm, base
    _report(10, t0, 60, f"{len(GOLDEN_CORPUS)} golden invocations byte-stable, cache-independent")
