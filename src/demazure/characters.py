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
base-2R digit per coordinate, offset by R, coordinate 1 most
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
as it is.  ``_packing`` lays the digits out for a radius R, memoised
by (root system, R), the 256 most recently used, so no chain or
Freudenthal call at a radius met before builds one; a chain takes R
from the package's one radius rule, ``_radius``:
R = h * max_mu sum_j |mu_j| + 1 over the start weights, with h the
largest simple-root coefficient of a positive root.  Every weight a
chain writes lies in the convex hull of the Weyl orbit of the start,
where no coordinate exceeds h * sum_j |mu_j| in absolute value.

Characters are memoised whole: ``_demazure_items`` keeps the packing
and the packed character of each (word, lam) asked for, the 256 most
recently used, and builds a new one from e^lam by the package's one
letter loop.  The word of an element w is its stored peel, reversed:
a reduced word of w that takes no walk of its own.  ``demazure_dim``,
``weyl_character`` and the Levi routes of ``demazure.branching`` run
on it.  lam is dominant for the characters of ``V(lam)`` and
S-dominant for the Levi dimensions of ``unirad``.  A repeat is one
lookup; a new word costs all of its letters, even when it shares a
suffix with an earlier one.  Every reader of a memoised character
decodes it with the packing stored beside it, and ``_unpack`` returns
its terms sorted.  The operator acts on each alpha_i-string on its own,
so one coefficient never needs the letter applied last over the whole
support: ``weight_multiplicity`` reads w0's peel forwards, a reduced
word of w0 = w0^{-1} whose first letter is 1, takes the memoised
character of the rest of it and applies that letter to mu's
alpha_i-string only, which it takes by probing the string's keys or by
filtering the character's terms, whichever are fewer.
``demazure_operator``, the one other caller of ``_letter``, packs its
own input for its one letter.

A memoised packed character has four readers: ``_character`` unpacks
it whole, ``_dim`` sums its coefficients, ``weight_multiplicity`` reads
one alpha_i-string of it, and ``_straightened`` walks it for Levi
branching (``demazure.branching``).  That walk takes each key
of a memoised packed character into the S-dominant chamber by the dot
action, one subtraction of a packed simple root per reflection, sums the
signed terms by packed key and unpacks only those totals.  No other
module reads a packing.

``weyl_dim`` (dimension product formula) and
``freudenthal_multiplicity`` are independent of the operator path and
serve as cross-checks.  Freudenthal's pass first writes lam - mu+ in
simple roots by one integer solve on the Dynkin tree,
``_simple_coordinates``, and returns 0 before any sum when mu+ is not
below lam.  It reads the positive roots from one table per root system,
``RootSystem.highest_first``: highest first, each with (alpha, alpha),
its height, 2 (rho, alpha) - (alpha, alpha) and its raises, the index
of s_j alpha for each j with <alpha, alpha_j^vee> < 0.  Its recursion
runs as one loop over the dominant weights between mu and lam, in order
of height below lam, on integers only.  It stores for each of them the
tail of every positive-root string above it and gets each new tail
from a stored one: by one lookup of nu + alpha when that is dominant;
otherwise, when some raise j has nu_j = 0, from the tail of s_j alpha at
the same nu, already computed as the roots come highest first (s_j fixes
nu, and multiplicities and the inner product are W-invariant, which the
pass checks as (alpha, alpha) = (s_j alpha, s_j alpha)); and otherwise,
only in types B, C, F and G, by a walk into the dominant chamber.  It
keeps one table of entries, by packed key: its weights are packed by
``_packing`` and ``_pack`` too, with the radius rounded up to a power of
two, so the packed zero weight is a mask of one sign bit per digit,
nu +- alpha is one addition, dominance one mask test and nu_j = 0 one
digit read; no visited weight is held as a tuple.  Each queued weight
carries its pairings (nu, alpha) with every positive root, those of
nu - alpha_k being nu's less one row of inner products (alpha_k, alpha),
built from ``RootSystem.dots`` when the call first reads it, and the
norm |lam+rho|^2 - |nu+rho|^2 is carried down the search too.  Each
tail is an exact finite sum and each multiplicity one integer division
whose remainder must be zero, so nothing is rounded and a broken table
raises instead of returning a wrong number.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import compress
from operator import mul, sub

from demazure.roots import (
    RootSystem,
    Weight,
    _check_dominant,
    _check_index,
    _check_integral,
    _check_weight,
    _ints,
    _record,
    _reflect,
    _to_dominant,
    add_weights,
    dominant_conjugate,
    root_system,
    sub_weights,
)
from demazure.weyl import WeylElement, _check_reduced, longest_element

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


@_record
class _Packing:
    radius: int
    base: int
    places: tuple[int, ...]  # coordinate 1 most significant
    offset: int  # packed zero weight
    simple: tuple[int, ...]  # packed alpha_i


def _radius(rs: RootSystem, start: Iterable[Weight]) -> int:
    """R = h * size + 1, above every coordinate of a chain from the weights start.

    Every weight a letter writes lies in the convex hull of W.start: a
    letter writes only weights on the segment from mu to s_i(mu), and
    the hull is W-stable.  On that hull <nu, alpha_k^vee> is a convex
    combination of <mu, w^{-1} alpha_k^vee> for mu in start, and a
    coroot has simple-coroot coefficients of absolute value at most h,
    the largest simple-root coefficient of a positive root (the two
    maxima agree in every type A-G).  So every coordinate stays within
    h * size < R, with size the largest sum_j |mu_j| over start, for
    non-dominant starts (such as the S-dominant weights of ``unirad``)
    as for dominant ones.  The weights of V(lam) lie in the same hull
    of W.lam.  h is read off the highest root theta, the last in
    ``rs.positive_roots``, sorted by height: theta - alpha lies in Q+
    for every positive root alpha, so every simple-root coefficient of
    alpha is at most theta's.
    """
    h = max(rs.positive_roots[-1])
    return h * max((sum(map(abs, mu)) for mu in start), default=0) + 1


@lru_cache(maxsize=256)
def _packing(rs: RootSystem, radius: int) -> _Packing:
    """Digits for the weights whose coordinates lie in -radius..radius - 1.

    Each coordinate is one base-(2 radius) digit offset by radius.  A
    chain passes R of ``_radius``, above every coordinate it writes in
    absolute value.  Freudenthal's pass passes a power of two 2^t: a
    digit then has bit t set exactly when its coordinate is >= 0, and the
    offset is the mask of those bits.

    Packings are memoised by (root system, radius), the 256 most recently
    used, so a chain or a Freudenthal call with a radius met before
    builds none.  A packing reads only ``rank`` and ``columns``, fields
    that equality compares, so a copy of a root system that equals
    another but holds other derived tables still gets a correct packing.
    """
    base = 2 * radius
    n = rs.rank
    places = tuple(base ** (n - 1 - j) for j in range(n))
    simple = tuple(sum(c * places[j] for j, c in col) for col in rs.columns)
    return _Packing(radius, base, places, radius * sum(places), simple)


def _pack(pk: _Packing, mu: Weight) -> int:
    # reads the nonzero coordinates only, which a root of high rank has few of
    return sum(map(mul, filter(None, mu), compress(pk.places, mu))) + pk.offset


def _weight(pk: _Packing, key: int) -> Weight:
    """The weight packed as key."""
    return tuple([key // p % pk.base - pk.radius for p in pk.places])


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
    """Apply the single-index operator for alpha_i to a character.

    Each coefficient is read by ``_ints``, so 0.5 or "1" raises
    ValueError naming the character: a float would make the result
    inexact.
    """
    coefficients = _ints(char.values(), "character {} has a coefficient that is not an integer", char)
    char = {_check_integral(rs, mu): c for mu, c in zip(char, coefficients)}
    i = _check_index(rs, i)
    pk = _packing(rs, _radius(rs, char))
    return dict(_unpack(pk, _letter(pk, i, {_pack(pk, mu): c for mu, c in char.items() if c})))


@lru_cache(maxsize=256)
def _demazure_items(rs: RootSystem, word: tuple[int, ...], lam: Weight) -> tuple[_Packing, dict[int, int]]:
    # The packing and the packed character of (word, lam), the letters
    # applied last first.  Readers must not change the dict they get back.
    pk = _packing(rs, _radius(rs, [lam]))
    cur = {_pack(pk, lam): 1}
    for i in reversed(word):
        cur = _letter(pk, i, cur)
    return pk, cur


def _character(rs: RootSystem, word: tuple[int, ...], lam: Weight) -> Character:
    """A fresh, sorted dict of the memoised character of (word, lam)."""
    return dict(_unpack(*_demazure_items(rs, word, lam)))


def _dim(rs: RootSystem, word: tuple[int, ...], lam: Weight) -> int:
    """The coefficient sum of the memoised character of (word, lam)."""
    return sum(_demazure_items(rs, word, lam)[1].values())


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
        while True:  # one pass over the walls, from the first after each reflection
            for place, a in walls:
                m = key // place % base - radius
                if m < 0:
                    break
            else:  # S-dominant
                totals[key] = totals.get(key, 0) + c
                break
            if m == -1:
                break
            key -= (m + 1) * a
            c = -c
    return _unpack(pk, totals)


def demazure_character(rs: RootSystem, word: Sequence[int], lam: Sequence[int]) -> Character:
    """Character of the Demazure module for a reduced word and dominant weight.

    Rejects non-reduced words (the word must have length equal to the
    length of the group element it spells) and non-dominant weights.
    The chain runs on, and the memo is keyed on, the word as the check's
    fold read it: the same letters, each an int, as its stored peel
    holds them, reversed.
    """
    lam = _check_dominant(rs, lam)
    word = tuple(word)
    return _character(rs, _check_reduced(rs, word)._peel[::-1], lam)


def demazure_dim(w: WeylElement, lam: Sequence[int]) -> int:
    """Dimension of the Demazure module: coefficient sum of its character."""
    lam = _check_dominant(w.rs, lam)
    return _dim(w.rs, w._peel[::-1], lam)


def weyl_character(rs: RootSystem, lam: Sequence[int]) -> Character:
    """Character of the irreducible module with highest weight lam."""
    return _character(rs, longest_element(rs)._peel[::-1], _check_dominant(rs, lam))


def _multiplicity_input(
    rs: RootSystem, lam: Sequence[int], mu: Sequence[int]
) -> tuple[Weight, Weight | None, int]:
    """(lam, mu, R) as both multiplicity routes read them; mu is None if no weight has its value.

    The two length checks run first, so their errors come before a
    dominance error, and lam is kept as the checked tuple of ints.  R is
    ``_radius`` of lam, so |mu_j| >= R is beyond every weight of V(lam).
    mu is read by value, as a dict lookup would read it: a coordinate
    that no int equals, whatever its type, reads as no weight, and 1.0
    or a numpy integer is 1.  It takes O(rank) steps: ``x in range(...)``
    would scan the range for a float.
    """
    lam = _check_weight(rs, lam)
    mu = _check_weight(rs, mu)
    lam = _check_dominant(rs, lam)
    radius = _radius(rs, [lam])
    try:
        ints = tuple(map(int, mu))
    except (TypeError, ValueError, OverflowError):  # a str, None, nan or inf
        ints = None
    known = ints == mu and all(-radius < k < radius for k in ints)
    return lam, ints if known else None, radius


def weight_multiplicity(rs: RootSystem, lam: Sequence[int], mu: Sequence[int]) -> int:
    """Multiplicity of the weight mu in the irreducible module of highest weight lam."""
    # before the memo, so no mu that reads 0 builds a character
    lam, mu, radius = _multiplicity_input(rs, lam, mu)
    if mu is None:
        return 0
    # D_i acts on each alpha_i-string on its own, so with w0 = s_i w the
    # coefficient at mu reads only the terms of D_w e^lam on mu's string:
    # mu + t alpha_i for the t that keep every coordinate inside (-R, R),
    # where every weight of the chain lies and key + t a is the key of
    # mu + t alpha_i; further out it can be the key of a weight off the
    # string.  The string is read by probing its keys, or by filtering the
    # chain's terms when there are fewer of those: the same keys either way.
    # The word is w0's peel read forwards, a reduced word of w0 = w0^{-1}.
    # Its first letter is 1, where -rho's walk starts, and alpha_1 packs to
    # a nonzero a at every radius: its coordinate 1, 2 in the most
    # significant place, outweighs its one other, -1 or -2.
    word = longest_element(rs)._peel
    i = word[0]
    pk, cur = _demazure_items(rs, word[1:], lam)
    key = _pack(pk, mu)
    lo, hi = -radius, radius
    for j, c in rs.columns[i - 1]:
        x = mu[j] if c > 0 else -mu[j]  # -R < x + t |c| < R
        lo = max(lo, (-radius - x) // abs(c) + 1)
        hi = min(hi, (radius - 1 - x) // abs(c))
    a = pk.simple[i - 1]
    if hi - lo < len(cur):
        string = {k: cur[k] for k in range(key + lo * a, key + (hi + 1) * a, a) if k in cur}
    else:
        string = {k: c for k, c in cur.items() if not (k - key) % a and lo <= (k - key) // a <= hi}
    return _letter(pk, i, string).get(key, 0)


def weyl_dim(rs: RootSystem, lam: Sequence[int]) -> int:
    """Dimension by the product formula over positive roots.

    prod <lam+rho, alpha^vee> / <rho, alpha^vee>; the half-norms cancel
    within each factor, so each factor is a ratio of integer dot
    products, and the numerators and denominators are multiplied
    separately.  Raises if the product is not an integer,
    which would signal a broken root table.
    """
    return _weyl_dims(rs, rs.dim_table, [_check_dominant(rs, lam)])[0]


def _weyl_dims(rs: RootSystem, table: tuple, mus: Iterable[Weight]) -> list[int]:
    """``weyl_dim`` of each checked weight mu, over the roots of a (dots, rho_dots, den) table.

    The full root set's table is ``rs.dim_table``, built once per root
    system, and a Levi's is ``branching.LeviDatum.dim_table``, a selection
    of its rows built once per ``LeviDatum``.
    """
    roots, rho_dots, den = table
    dims = []
    for mu in mus:
        num = 1
        for dots, r in zip(roots, rho_dots):
            num *= sum(map(mul, dots, mu)) + r
        dim, rem = divmod(num, den)
        if rem:
            raise RuntimeError(f"{rs.name}: non-integral dimension product for {mu}")
        dims.append(dim)
    return dims


def dual_weight(rs: RootSystem, lam: Sequence[int]) -> Weight:
    """Highest weight of the dual module: -w0(lam), the dominant conjugate of -lam."""
    return dominant_conjugate(rs, [-x for x in _check_dominant(rs, lam)])


def _simple_coordinates(cols: Sequence, x: Weight) -> list[int] | None:
    """The simple-root coordinates c of x, or None unless they are integers >= 0.

    x is in fundamental coordinates and cols is ``rs.columns``, so x = A c
    for the Cartan matrix A, with a_jk the j-th coordinate of alpha_k.
    The Dynkin graph of a finite type is a tree, so A c = x solves by
    eliminating leaves, in integers and with no fill-in.  Rooted at node
    1, each node k is visited after its children: with S_k the product of
    the pivots P_j of k's children,

        P_k = 2 S_k - sum_j a_kj a_jk S_j (S_k / P_j),
        R_k = S_k x_k - sum_j a_kj (S_k / P_j) R_j,

    accumulated here child by child with no division: folding child j
    into row k multiplies that row by P_j.  Row k then reads
    P_k c_k + a_{k,parent} S_k c_parent = R_k.  P_k is the
    determinant of the Cartan matrix of k's subtree (expand it along row
    k), a connected diagram of finite type, so it is positive and no
    division below is by zero.  Parents first, c_k = (R_k - a_{k,parent}
    S_k c_parent) / P_k.  When x lies in the root lattice every c_k is an
    integer and each division is exact; otherwise the first c_k that is
    not an integer leaves a remainder, as its parent's is exact.  A
    remainder, or any c_k < 0, returns None.
    """
    n = len(cols)
    col = [dict(c) for c in cols]  # col[k][j] = a_jk
    parent, link, order = [0] * n, [0] * n, [0]  # link[k] = a_{k,parent}, 0 at the root
    for k in order:
        for j in col[k]:
            if j != k and j != parent[k]:
                parent[j], link[j] = k, col[k][j]
                order.append(j)
    piv, prods, rhs = [2] * n, [1] * n, list(x)  # P, S and R, before any child is folded in
    for k in reversed(order[1:]):  # children first: fold row k into its parent's
        p = parent[k]
        rhs[p] = rhs[p] * piv[k] - col[k][p] * prods[p] * rhs[k]
        piv[p] = piv[p] * piv[k] - col[k][p] * link[k] * prods[p] * prods[k]
        prods[p] *= piv[k]
    c = [0] * n
    for k in order:
        c[k], rem = divmod(rhs[k] - link[k] * prods[k] * c[parent[k]], piv[k])
        if rem or c[k] < 0:
            return None
    return c


def freudenthal_multiplicity(rs: RootSystem, lam: Sequence[int], mu: Sequence[int]) -> int:
    """Weight multiplicity by Freudenthal's formula, in one iterative pass.

    Independent of the operator machinery, so it serves as an oracle for
    ``weight_multiplicity``; both read lam and mu by
    ``_multiplicity_input``, so a mu that equals no weight of the module
    gives 0.  Freudenthal's formula reads

        (|lam+rho|^2 - |nu+rho|^2) m(nu) = 2 sum_{alpha > 0} T(nu, alpha),
        T(nu, alpha) = sum_{k >= 1} m(nu + k alpha) (nu + k alpha, alpha).

    Multiplicities are W-invariant, so only the dominant nu with
    mu+ <= nu <= lam are visited, mu+ the dominant conjugate of mu.  The
    simple-root coordinates of lam - mu+ come first, by the tree solve
    ``_simple_coordinates``; when they are not all integers >= 0, mu+ is
    not below lam and the multiplicity is 0.  A search down from lam that
    subtracts positive roots and keeps the dominant weights above mu+
    reaches all of them (Stembridge, "The partial order of dominant
    weights", 1998); they are processed in order of the height of
    lam - nu, and lam - nu stays within those coordinates.

    Each stores its tails T(nu, alpha), and a later tail takes O(1) from
    an earlier one.  Let d be the dominant weight W-conjugate to
    nu + alpha, by some w, and beta = w(alpha).  As m and ( , ) are
    W-invariant,

        T(nu, alpha) = m(d) (d, beta) + T(d, beta),

    and d >= nu + alpha > nu, so d was processed first if it is a weight
    at all.  beta is a positive root: (d, beta) = (nu + alpha, alpha) =
    (nu, alpha) + (alpha, alpha) is positive, and a dominant d pairs to
    at most 0 with every negative root.  So T(d, beta) is a stored tail,
    and the string symmetry T(d, -gamma) = T(d, gamma) + m(d) (d, gamma)
    is never needed.  When d is not below lam, nu + alpha is not a
    weight, and since weights fill unbroken root strings and nu is one,
    no nu + k alpha is: the tail is 0.

    The roots are read from ``rs.highest_first``, highest first, so each
    tail may read a higher root's tail at the same nu.  For most pairs
    nu + alpha is dominant already: then d = nu + alpha and beta = alpha,
    one lookup.  Every stored weight is dominant and, once the level
    above nu is processed, every dominant weight above nu in the search is
    stored; so a stored entry at nu + alpha is d's, and a dominant
    nu + alpha with no entry is not below lam, and its tail is 0.  When
    nu + alpha is not dominant, some j has <alpha, alpha_j^vee> < 0, one of
    alpha's raises; if nu_j = 0 for one of them, s_j fixes nu and takes
    alpha to the higher root s_j alpha, so (Moody and Patera, *Bull. AMS*
    7, 1982)

        T(nu, alpha) = T(nu, s_j alpha),

    a tail already computed at nu.  That rests on the W-invariance of
    ( , ), so the pass checks (alpha, alpha) = (s_j alpha, s_j alpha)
    first, and raises RuntimeError at nu when a broken table fails it.
    Only the rest, where nu_j >= 1 and <alpha, alpha_j^vee> <= -2 (types
    B, C, F and G), unpack nu + alpha from its key and take the
    ``roots._to_dominant`` walk to d; beta follows from its letters, by
    ``roots._reflect`` and ``rs.highest_first_index``, only when d has a
    stored entry.  One table holds the entries, by packed key, and the
    packed keys make the first two cases a few integer operations.  They
    come from ``_packing`` with the radius 2^t, the least power of two
    that is at least both ``_radius`` of lam + theta, theta the highest
    root, and max(gap) + 1.  Every weight the pass packs (nu, nu +- alpha
    and a walked d) is a weight of V(lam) (x) V(theta), the adjoint
    module, so it lies in the hull of W.(lam + theta) that ``_radius``
    bounds; so nu +- alpha is one integer addition, bit t of every digit
    is set exactly when the weight is dominant, nu_j = 0 exactly when
    digit j is 2^t, and no two weights share a key.  The remaining room
    gap - (lam - nu), in simple roots, lies in -h..max(gap), h < 2^t the
    largest simple-root coefficient of a root; it is packed the same way,
    and one mask test keeps the search inside the gap.

    Everything is an integer.  Each queued nu carries its pairings
    (nu, alpha) over the table, and the norm N(nu) = |lam+rho|^2 -
    |nu+rho|^2, carried down the search from N(lam) = 0:

        (nu - alpha_k, alpha) = (nu, alpha) - (alpha_k, alpha),
        N(nu - alpha) = N(nu) + 2 (nu, alpha) + 2 (rho, alpha) - (alpha, alpha).

    lam's pairings are the dot vectors of ``rs.dots`` applied to lam, and
    the row (alpha_k, alpha) over the table is built from them when the
    call first subtracts alpha_k, so no call holds more rows than roots
    it subtracts.  Each multiplicity is one exact division; a remainder or
    a negative quotient raises RuntimeError.

    >>> freudenthal_multiplicity(root_system("A1"), (4000,), (0,))
    1
    """
    lam, mu, _ = _multiplicity_input(rs, lam, mu)
    if mu is None:
        return 0
    bottom = dominant_conjugate(rs, mu)
    gap = _simple_coordinates(rs.columns, sub_weights(lam, bottom))
    if gap is None:
        return 0
    radius = max(_radius(rs, [add_weights(lam, rs.positive_roots_fund[-1])]), max(gap) + 1)
    pk = _packing(rs, 1 << (radius - 1).bit_length())
    mask, places, base, radius = pk.offset, pk.places, pk.base, pk.radius
    table = rs.highest_first
    # per entry of the table: its index i, alpha packed, its simple-root
    # coordinates packed, alpha, (alpha, alpha), its height,
    # 2 (rho, alpha) - (alpha, alpha) and its raises
    roots = [
        (i, _pack(pk, alpha) - mask, _pack(pk, c) - mask, alpha, *rest)
        for i, (alpha, c, _, *rest) in enumerate(table)
    ]
    gram: dict[int, list[int]] = {}  # i -> (alpha, alpha_i) over the table, built when first read
    # packed dominant weight -> None while queued, (multiplicity, tails) once
    # computed; lam's entry is preset: m = 1, every tail 0
    entries: dict[int, tuple[int, list[int]] | None] = {_pack(pk, lam): (1, [0] * len(roots))}
    # height of lam - nu -> [(packed nu, packed gap - (lam - nu), N(nu), (nu, alpha) over the table)]
    levels: list[list[tuple[int, int, int, list[int]]]] = [[] for _ in range(sum(gap) + 1)]
    pairs = [sum(map(mul, dots, lam)) for _, _, dots, *_ in table]
    levels[0].append((_pack(pk, lam), _pack(pk, gap), 0, pairs))
    for height, level in enumerate(levels):
        for key, room, norm, pairs in level:
            tails = []
            for (i, a, c, alpha, sq, ht, rise, raises), pair in zip(roots, pairs):
                below = key - a
                if below & mask == mask and below not in entries:  # nu - alpha is dominant and new
                    left = room - c
                    if left & mask == mask:  # and within the gap
                        entries[below] = None
                        row = gram.get(i)
                        if row is None:
                            row = gram[i] = [sum(map(mul, dots, alpha)) for _, _, dots, *_ in table]
                        below_norm = norm + 2 * pair + rise
                        levels[height + ht].append((below, left, below_norm, list(map(sub, pairs, row))))
                if not height:  # lam's entry is preset
                    continue
                up = key + a
                if up & mask == mask:  # d = nu + alpha, beta = alpha
                    entry = entries.get(up)
                    tails.append(entry[0] * (pair + sq) + entry[1][i] if entry else 0)
                    continue
                for j, h in raises:
                    if key // places[j] % base == radius:  # nu_j = 0, so T(nu, alpha) = T(nu, s_j alpha)
                        if roots[h][4] != sq:  # the form is W-invariant unless the table is broken
                            nu = _weight(pk, key)
                            raise RuntimeError(f"{rs.name}: Freudenthal recursion broke at {nu}")
                        tails.append(tails[h])
                        break
                else:
                    x = list(_weight(pk, up))
                    letters = _to_dominant(rs.columns, x)
                    entry = entries.get(_pack(pk, x))
                    beta = rs.highest_first_index[_reflect(rs, alpha, letters)] if entry else i
                    tails.append(entry[0] * (pair + sq) + entry[1][beta] if entry else 0)
            if height:
                value, rem = divmod(2 * sum(tails), norm)
                if rem or value < 0:
                    nu = _weight(pk, key)
                    raise RuntimeError(f"{rs.name}: Freudenthal recursion broke at {nu}")
                entries[key] = (value, tails)
    return entries[_pack(pk, bottom)][0]


def character_to_json(rs: RootSystem, char: Character) -> str:
    """Canonical JSON: terms sorted by weight, coefficients as decimal strings."""
    terms = [
        {"weight": list(w), "coeff": str(c)} for w, c in sorted(char.items())
    ]
    return json.dumps({"root_system": rs.name, "terms": terms}, separators=(",", ":"))


def character_from_json(text: str) -> tuple[RootSystem, Character]:
    """The root system and character that ``character_to_json`` wrote as text.

    The text is read by one round trip: it is parsed, each weight is
    checked by ``roots._check_integral`` and each coefficient read by
    ``int``, and the character is written back by ``character_to_json``.
    Unless that gives the text again, byte for byte, with no zero
    coefficient, it raises ValueError, whatever the types of its values.
    """
    try:
        obj = json.loads(text)
        rs = root_system(obj["root_system"])
        char = {_check_integral(rs, t["weight"]): int(t["coeff"]) for t in obj["terms"]}
    except RecursionError:
        raise ValueError("JSON nested too deeply for a character") from None
    except (AttributeError, KeyError, OverflowError, TypeError):
        raise ValueError("text is not a character's JSON") from None
    if 0 in char.values() or character_to_json(rs, char) != text:
        raise ValueError("text is not a character as character_to_json writes it")
    return rs, char
