"""Characters on the weight lattice and the Demazure operator calculus.

A character is a plain dict mapping weights (fundamental-coordinate
tuples) to nonzero integer coefficients.  All arithmetic is exact; the
coefficients are ordinary Python integers and may grow without bound.

The single-index operator sends e^mu, with m = <mu, alpha_i^vee>, to

    m >= 0:   e^mu (1 + e^{-alpha_i} + ... + e^{-m alpha_i})
    m == -1:  0
    m <= -2:  -e^mu (e^{alpha_i} + ... + e^{(-1-m) alpha_i})

extended linearly with cancellation.  It is idempotent, and composing
along a reduced word is independent of the choice of word.  A word is
applied with its last letter first, so ``demazure_character`` along a
reduced word of the longest element gives the full irreducible
character; sums of coefficients of intermediate results grow weakly as
letters extend the word.

Intermediate characters may hold negative coefficients; the final
result of ``demazure_character`` on a dominant weight is always
nonnegative and contains e^lambda with coefficient 1.

Every operator letter runs through one kernel, ``_letter``, on packed
weights.  Each weight is packed once into a single integer with one
base-(2R+1) digit per coordinate, offset by R, coordinate 1 most
significant, so integer order is lexicographic weight order and
subtracting alpha_i is subtracting one fixed integer a, and the pairing
m is one digit read off the key.  A letter is Demazure's formula
D_i f = (f - e^{-alpha_i} s_i f)/(1 - e^{-alpha_i}): each term that
moves puts two signed entries into a difference table, +c at its key
and -c at key - (m + 1) a, and one sweep down each alpha_i-string, a
running sum that steps by -a, divides by 1 - e^{-alpha_i}.  So a letter
costs a sort of the table plus one dict write per weight it outputs,
not one per step of every term's string; terms with m = 0 are fixed and
added afterwards, and a letter that fixes every term returns its input
as it is.  ``_packing`` takes the radius R = h * max_mu sum_j |mu_j| + 1
over the start weights, with h the largest simple-root coefficient of a
positive root: every weight a chain writes lies in the convex hull of
the Weyl orbit of the start, where no coordinate exceeds
h * sum_j |mu_j| in absolute value.

Characters are memoised whole: ``_demazure_items`` keeps the packing
and the packed character of each (word, lam) asked for, the 256 most
recently used, and builds a new one from e^lam by the package's one
letter loop.  lam is dominant for the characters of ``V(lam)`` and
S-dominant for the Levi dimensions of ``unirad``.  A repeat is one
lookup; a new word costs all of its letters, even when it shares a
suffix with an earlier one.  Every reader of a memoised character
decodes it with the packing stored beside it, and ``_unpack`` returns
its terms sorted.  ``demazure_operator``, the one other caller of
``_letter``, packs its own input for its one letter.

Besides ``_unpack``, the packed format has one reader, ``_straightened``,
the walk of Levi branching (``demazure.branching``).  It takes each key
of a memoised packed character into the S-dominant chamber by the dot
action, one subtraction of a packed simple root per reflection, sums the
signed terms by packed key and unpacks only those totals.  No other
module reads a packing.

``weyl_dim`` (dimension product formula) and
``freudenthal_multiplicity`` are independent of the operator path and
serve as cross-checks.  Freudenthal's pass first writes lam - mu+ in
simple roots by a descent that subtracts ceil(x_k/2) alpha_k at the
first coordinate x_k >= 1 of what is left, and returns 0 before any sum
when mu+ is not below lam; it keeps no table per root system.  Its
recursion runs as one loop over the dominant weights between mu and lam,
in order of height below lam, on integers only.  It stores for each of
them the tail of every positive-root string above it and gets each new
tail from a stored one at a dominant weight higher up, by one reflection
into the dominant chamber (multiplicities and the inner product are
W-invariant).  Each tail is an exact finite sum and each multiplicity
one integer division whose remainder must be zero, so nothing is rounded
and a broken table raises instead of returning a wrong number.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import prod
from operator import add, le, mul, sub
from typing import Iterable, NamedTuple, Sequence

from demazure.roots import (
    RootSystem,
    Weight,
    _check_dominant,
    _check_index,
    _check_integral,
    _check_weight,
    _reflect,
    _to_dominant,
    dominant_conjugate,
    root_system,
    sub_weights,
)
from demazure.weyl import WeylElement, _check_reduced, longest_element, reduced_word

Character = dict[Weight, int]

__all__ = [
    "Character",
    "demazure_operator",
    "demazure_character",
    "demazure_dim",
    "weyl_character",
    "weight_multiplicity",
    "weyl_dim",
    "dual_weight",
    "freudenthal_multiplicity",
    "character_to_json",
    "character_from_json",
]


class _Packing(NamedTuple):
    radius: int
    base: int
    places: tuple[int, ...]  # coordinate 1 most significant
    offset: int  # packed zero weight
    simple: tuple[int, ...]  # packed alpha_i


def _packing(rs: RootSystem, start: Iterable[Weight]) -> _Packing:
    """Digits for the chains that start from the weights start.

    Every weight written lies in the convex hull of W.start: a letter
    writes only weights on the segment from mu to s_i(mu), and the hull
    is W-stable.  On that hull <nu, alpha_k^vee> is a convex combination
    of <mu, w^{-1} alpha_k^vee> for mu in start, and a coroot has
    simple-coroot coefficients of absolute value at most h, the largest
    simple-root coefficient of a positive root (the two maxima agree in
    every type A-G).  So every coordinate stays within h * size < R,
    with size the largest sum_j |mu_j| over start and R = h * size + 1,
    for non-dominant starts (such as the S-dominant weights of
    ``unirad``) as for dominant ones, and each coordinate fits a
    base-(2R+1) digit offset by R.  h is read off the highest root
    theta, the last in ``rs.positive_roots``, sorted by height:
    theta - alpha lies in Q+ for every positive root alpha, so every
    simple-root coefficient of alpha is at most theta's.
    """
    h = max(rs.positive_roots[-1])
    radius = h * max((sum(map(abs, mu)) for mu in start), default=0) + 1
    base = 2 * radius + 1
    n = rs.rank
    places = tuple(base ** (n - 1 - j) for j in range(n))
    simple = tuple(sum(c * places[j] for j, c in col) for col in rs.columns)
    return _Packing(radius, base, places, radius * sum(places), simple)


def _pack(pk: _Packing, mu: Weight) -> int:
    return sum(x * p for x, p in zip(mu, pk.places)) + pk.offset


def _letter(pk: _Packing, i: int, cur: dict[int, int]) -> dict[int, int]:
    """The operator for alpha_i on a packed character, with no zero entries.

    Returns cur itself when every term pairs to 0 with alpha_i^vee, so
    that the letter fixes the character, and a new dict otherwise.

    Demazure's formula reads D_i f = (f - e^{-alpha_i} s_i f)/(1 - e^{-alpha_i}).
    For one term c e^mu with m = <mu, alpha_i^vee>, s_i mu = mu - m alpha_i,
    so the numerator is c e^mu - c e^{mu - (m + 1) alpha_i}: the term puts
    +c at its key and -c at key - (m + 1) a into a difference table, a
    the packed alpha_i.  For m <= -2 the second key lies above mu; for
    m = -1 the two entries cancel and the term is skipped.

    Dividing by 1 - e^{-alpha_i} multiplies by 1 + e^{-alpha_i} +
    e^{-2 alpha_i} + ..., a running sum down each alpha_i-string.  The
    sweep visits the table's keys in integer order down the strings
    (descending when a > 0, ascending when a < 0), so each key is
    reached after every key above it on its string.  At a key whose
    running sum s is nonzero it writes s there and at each step of -a
    below it, up to the next key of the table on the string, which takes
    s into its own entry and carries the sum on.  The walk stops: a
    term's two entries lie on one string and sum to 0, so the entries of
    each string sum to 0, and a nonzero running sum leaves a nonzero
    remainder further down the string, at a key of the table.  The
    stretches between keys are disjoint, so each weight is written once,
    with its final value, and a zero sum writes nothing: the output holds
    no zero entry, and no filter pass is needed.

    Terms with m = 0 are fixed by the letter; they skip the table and
    are added after the sweep, deleting any key whose sum comes to 0.
    """
    a = pk.simple[i - 1]
    place = pk.places[i - 1]
    base = pk.base
    radius = pk.radius
    diff: dict[int, int] = {}
    get = diff.get
    fixed = []
    for key, c in cur.items():
        m = key // place % base - radius
        if not m:
            fixed.append(key)
        elif m != -1:
            diff[key] = get(key, 0) + c
            key -= (m + 1) * a
            diff[key] = get(key, 0) - c
    if len(fixed) == len(cur):
        return cur
    out: dict[int, int] = {}
    for key in sorted(diff, reverse=a > 0):
        s = diff[key]
        if s:
            out[key] = s
            key -= a
            while key not in diff:
                out[key] = s
                key -= a
            diff[key] += s
    for key in fixed:
        c = out.get(key, 0) + cur[key]
        if c:
            out[key] = c
        else:
            del out[key]
    return out


def _unpack(pk: _Packing, cur: dict[int, int]) -> list[tuple[Weight, int]]:
    """The terms of a packed character, sorted lexicographically by weight."""
    places = pk.places
    base = pk.base
    radius = pk.radius
    return [(tuple([key // p % base - radius for p in places]), cur[key]) for key in sorted(cur)]


def demazure_operator(rs: RootSystem, i: int, char: Character) -> Character:
    """Apply the single-index operator for alpha_i to a character."""
    char = {_check_integral(rs, mu): c for mu, c in char.items()}
    _check_index(rs, i)
    pk = _packing(rs, char)
    return dict(_unpack(pk, _letter(pk, i, {_pack(pk, mu): c for mu, c in char.items() if c})))


@lru_cache(maxsize=256)
def _demazure_items(
    rs: RootSystem, word: tuple[int, ...], lam: Weight
) -> tuple[_Packing, dict[int, int]]:
    # The packing and the packed character of (word, lam), the letters
    # applied last first.  Readers must not change the dict they get back.
    pk = _packing(rs, [lam])
    cur = {_pack(pk, lam): 1}
    for i in reversed(word):
        cur = _letter(pk, i, cur)
    return pk, cur


def _character(rs: RootSystem, word: tuple[int, ...], lam: Weight) -> Character:
    """A fresh, sorted dict of the memoised character of (word, lam)."""
    return dict(_unpack(*_demazure_items(rs, word, lam)))


def _straightened(
    rs: RootSystem, word: tuple[int, ...], lam: Weight, subset: frozenset[int]
) -> list[tuple[Weight, int]]:
    """The character of (word, lam), each term walked into the S-dominant chamber.

    S is subset, and the walk is the dot action: at the first i in S
    where m = <mu, alpha_i^vee> is negative, the term is dropped if
    m = -1 (mu + rho is S-singular) and otherwise replaced by
    -e^{mu - (m + 1) alpha_i}.  The walk runs on the memoised packed
    keys and stays in range: s_i.mu lies on the segment from mu to
    s_i(mu), so in the hull of W.lam that ``_packing`` covers.  Returns
    the signed totals per S-dominant weight, zeros included, sorted.
    """
    pk, items = _demazure_items(rs, word, lam)
    walls = [(pk.places[i - 1], pk.simple[i - 1]) for i in sorted(subset)]
    base = pk.base
    radius = pk.radius
    totals: dict[int, int] = {}
    for key, c in items.items():
        k = 0
        while k < len(walls):
            place, a = walls[k]
            m = key // place % base - radius
            k += 1
            if m == -1:
                break
            if m < -1:
                key -= (m + 1) * a
                c = -c
                k = 0
        else:
            totals[key] = totals.get(key, 0) + c
    return _unpack(pk, totals)


def demazure_character(rs: RootSystem, word: Sequence[int], lam: Sequence[int]) -> Character:
    """Character of the Demazure module for a reduced word and dominant weight.

    Rejects non-reduced words (the word must have length equal to the
    length of the group element it spells) and non-dominant weights.
    """
    lam = _check_dominant(rs, lam)
    word = tuple(word)
    _check_reduced(rs, word)
    return _character(rs, word, lam)


def demazure_dim(w: WeylElement, lam: Sequence[int]) -> int:
    """Dimension of the Demazure module: coefficient sum of its character."""
    lam = _check_dominant(w.rs, lam)
    return sum(_demazure_items(w.rs, reduced_word(w), lam)[1].values())


def weyl_character(rs: RootSystem, lam: Sequence[int]) -> Character:
    """Character of the irreducible module with highest weight lam."""
    return _character(rs, reduced_word(longest_element(rs)), _check_dominant(rs, lam))


def weight_multiplicity(rs: RootSystem, lam: Sequence[int], mu: Sequence[int]) -> int:
    """Multiplicity of the weight mu in the irreducible module of highest weight lam."""
    lam = _check_weight(rs, lam)
    mu = _check_weight(rs, mu)
    _check_dominant(rs, lam)  # after both length checks, whose errors come first
    # |mu_j| >= R is beyond every weight of the module, and a range test
    # also reads a non-integral coordinate as 0, as a dict lookup would;
    # it runs before the memo, so no such mu builds a character
    radius = _packing(rs, [lam]).radius
    if not all(x in range(1 - radius, radius) for x in mu):
        return 0
    pk, items = _demazure_items(rs, reduced_word(longest_element(rs)), lam)
    return items.get(_pack(pk, mu), 0)


def weyl_dim(rs: RootSystem, lam: Sequence[int]) -> int:
    """Dimension by the product formula over positive roots.

    prod <lam+rho, alpha^vee> / <rho, alpha^vee>; the half-norms cancel
    within each factor, so each factor is a ratio of integer dot
    products, and the numerators and denominators are multiplied
    separately.  Raises if the product is not an integer,
    which would signal a broken root table.
    """
    return _weyl_dims(rs, range(len(rs.positive_roots)), [_check_dominant(rs, lam)])[0]


def _weyl_dims(rs: RootSystem, root_indices: Sequence[int], mus: Iterable[Weight]) -> list[int]:
    """``weyl_dim`` of each checked weight mu, over the positive roots at root_indices."""
    roots = [rs.dots[k] for k in root_indices]
    rho_dots = list(map(sum, roots))  # dot with rho = all ones
    den = prod(rho_dots)
    dims = []
    for mu in mus:
        dim, rem = divmod(prod(sum(map(mul, dots, mu)) + r for dots, r in zip(roots, rho_dots)), den)
        if rem:
            raise RuntimeError(f"{rs.name}: non-integral dimension product for {mu}")
        dims.append(dim)
    return dims


def dual_weight(rs: RootSystem, lam: Sequence[int]) -> Weight:
    """Highest weight of the dual module: -w0(lam), the dominant conjugate of -lam."""
    return dominant_conjugate(rs, [-x for x in _check_dominant(rs, lam)])


def freudenthal_multiplicity(rs: RootSystem, lam: Sequence[int], mu: Sequence[int]) -> int:
    """Weight multiplicity by Freudenthal's formula, in one iterative pass.

    Independent of the operator machinery, so it serves as an oracle for
    ``weight_multiplicity``.  Freudenthal's formula reads

        (|lam+rho|^2 - |nu+rho|^2) m(nu) = 2 sum_{alpha > 0} T(nu, alpha),
        T(nu, alpha) = sum_{k >= 1} m(nu + k alpha) (nu + k alpha, alpha).

    Multiplicities are W-invariant, so only the dominant nu with
    mu+ <= nu <= lam are visited, mu+ the dominant conjugate of mu.  A
    search down from lam that subtracts positive roots and keeps the
    dominant weights above mu+ reaches all of them (Stembridge, "The
    partial order of dominant weights", 1998); they are processed in
    order of the height of lam - nu.  Each stores its tails
    T(nu, alpha), and a later tail takes O(1) from an earlier one:
    the ``roots._to_dominant`` walk reflects nu + alpha to the dominant
    weight d by some w, and beta = w(alpha) follows from its letters, by
    ``roots._reflect``, only when d has a stored entry.  As m and
    ( , ) are W-invariant,

        T(nu, alpha) = m(d) (d, beta) + T(d, beta),

    and d lies above nu, so it was processed first.  beta is a positive
    root: (d, beta) = (nu + alpha, alpha) = (nu, alpha) + (alpha, alpha)
    is positive, and a dominant d pairs to at most 0 with every negative
    root.  So T(d, beta) is a stored tail, and the string symmetry
    T(d, -gamma) = T(d, gamma) + m(d) (d, gamma) is never needed.  When d
    is not below lam, nu + alpha is not a weight, and since weights fill
    unbroken root strings and nu is one, no nu + k alpha is: the tail
    is 0.

    The simple-root coordinates c of x = lam - mu+ come first, by a
    descent along ``rs.columns``: at the first coordinate with x_k >= 1,
    subtract ceil(x_k/2) alpha_k from x and add that amount to c_k, then
    resume the scan at the column's first index, as the
    ``roots._to_dominant`` walk does.  If x = sum_j c_j alpha_j with
    every c_j >= 0, then x_k = 2 c_k + sum_{j != k} a_kj c_j <= 2 c_k, so
    c_k >= ceil(x_k/2) and the step keeps x in Q+.  A nonzero x in Q+ has
    some x_k >= 1, because (x, x) = sum_k c_k d_k x_k > 0, d the
    symmetrizer.  So when mu+ <= lam the walk ends at x = 0 and c is
    exact, and any other end means that mu+ is not below lam (or not in
    its coset), so the multiplicity is 0.  The walk stops on every input:
    a step of m = ceil(x_k/2) <= x_k lowers the height by m >= 1 and
    changes (x, x) by 2 m d_k (m - x_k) <= 0, and the height is bounded
    on the ball (y, y) <= (x, x).  When it ends at 0 it has taken at most
    ht(lam - mu+) steps, the number of levels the search then runs.

    Everything is an integer: lam - nu has integral simple-root
    coordinates p, and |lam+rho|^2 - |nu+rho|^2 = (lam - nu, lam + nu +
    2 rho) = sum_j p_j d_j (lam + nu + 2 rho)_j with d the symmetrizer.
    Each multiplicity is one exact division; a remainder or a negative
    quotient raises RuntimeError.

    >>> freudenthal_multiplicity(root_system("A1"), (4000,), (0,))
    1
    """
    lam = _check_weight(rs, lam)
    mu = _check_weight(rs, mu)
    _check_dominant(rs, lam)  # after both length checks, whose errors come first
    bottom = dominant_conjugate(rs, mu)
    cols = rs.columns
    x = list(sub_weights(lam, bottom))
    gap = [0] * rs.rank  # simple-root coordinates of lam - bottom
    k = 0
    while k < rs.rank:
        m = (x[k] + 1) // 2  # ceil(x_k / 2)
        if m > 0:
            gap[k] += m
            for j, c in cols[k]:
                x[j] -= m * c
            k = cols[k][0][0]
        else:
            k += 1
    if any(x):
        return 0
    roots = tuple(zip(rs.positive_roots_fund, rs.positive_roots, rs.dots))
    index = {alpha: k for k, alpha in enumerate(rs.positive_roots_fund)}
    sym = rs.symmetrizer
    shift = tuple(x + 2 for x in lam)  # lam + 2 rho
    # dominant weight -> (multiplicity, tails in positive-root order)
    memo: dict[Weight, tuple[int, list[int]]] = {lam: (1, [0] * len(roots))}
    # height of lam - nu -> [(nu, simple-root coordinates of lam - nu)]
    levels: dict[int, list[tuple[Weight, Weight]]] = {0: [(lam, (0,) * rs.rank)]}
    seen = {lam}
    for height in range(sum(gap) + 1):
        for nu, depth in levels.pop(height, ()):
            for alpha, coords, _dots in roots:
                below = tuple(map(sub, nu, alpha))
                if below in seen or min(below) < 0:
                    continue
                down = tuple(map(add, depth, coords))
                if all(map(le, down, gap)):
                    seen.add(below)
                    levels.setdefault(height + sum(coords), []).append((below, down))
            if nu == lam:  # its entry is preset: m = 1, every tail 0
                continue
            tails = []
            for alpha, _coords, dots in roots:
                x = list(map(add, nu, alpha))
                pair = sum(map(mul, dots, x))  # (nu + alpha, alpha)
                letters = _to_dominant(cols, x)
                entry = memo.get(tuple(x))
                if entry is None:
                    tails.append(0)
                else:
                    m_d, tails_d = entry
                    beta = _reflect(rs, alpha, letters) if letters else alpha
                    tails.append(m_d * pair + tails_d[index[beta]])
            norm = sum(p * d * (a + b) for p, d, a, b in zip(depth, sym, shift, nu))
            value, rem = divmod(2 * sum(tails), norm)
            if rem or value < 0:
                raise RuntimeError(f"{rs.name}: Freudenthal recursion broke at {nu}")
            memo[nu] = (value, tails)
    return memo[bottom][0]


def character_to_json(rs: RootSystem, char: Character) -> str:
    """Canonical JSON: terms sorted by weight, coefficients as decimal strings."""
    terms = [
        {"weight": list(w), "coeff": str(c)} for w, c in sorted(char.items())
    ]
    return json.dumps({"root_system": rs.name, "terms": terms}, separators=(",", ":"))


def character_from_json(text: str) -> tuple[RootSystem, Character]:
    obj = json.loads(text)
    rs = root_system(obj["root_system"])
    char: Character = {}
    for term in obj["terms"]:
        w = _check_integral(rs, term["weight"])
        if w in char or not isinstance(term["coeff"], str):
            raise ValueError(f"term {term} repeats a weight or has a coefficient that is not a string")
        char[w] = int(term["coeff"])
    return rs, char
