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
as it is.  ``_packing`` takes the radius that ``_radius`` gives,
R = h * max_mu sum_j |mu_j| + 1 over the start weights, with h the
largest simple-root coefficient of a positive root: every weight a
chain writes lies in the convex hull of the Weyl orbit of the start,
where no coordinate exceeds h * sum_j |mu_j| in absolute value.

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
simple roots by one integer solve on the Dynkin tree,
``_simple_coordinates``, and returns 0 before any sum when mu+ is not
below lam; it keeps no table per root system.  Its recursion runs as
one loop over the dominant weights between mu and lam, in order of
height below lam, on integers only.  It stores for each of them the
tail of every positive-root string above it and gets each new tail from
a stored one at a dominant weight higher up: memo-first, by one lookup
of nu + alpha when that is dominant, and otherwise by a walk into the
dominant chamber (multiplicities and the inner product are
W-invariant).  Its weights are packed integers of their own, with a
sign bit in each digit, so nu +- alpha is one addition and dominance
one mask test, and the norm |lam+rho|^2 - |nu+rho|^2 is carried down
the search.  Each tail is an exact finite sum and each multiplicity one
integer division whose remainder must be zero, so nothing is rounded
and a broken table raises instead of returning a wrong number.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import compress
from math import prod
from operator import add, lshift, mul, sub
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


def _packing(rs: RootSystem, start: Iterable[Weight]) -> _Packing:
    """Digits for the chains that start from the weights start.

    Each coordinate of a weight the chains write is below R of
    ``_radius`` in absolute value, so it fits a base-(2R+1) digit offset
    by R.
    """
    radius = _radius(rs, start)
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
    radius = _radius(rs, [lam])
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
    ``weight_multiplicity``.  Freudenthal's formula reads

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

    The lookup is memo-first.  For most pairs nu + alpha is dominant
    already: then d = nu + alpha and beta = alpha, with no walk.  Every
    stored weight is dominant and, once the level above nu is done,
    every dominant weight above nu in the search is stored; so a stored
    entry at nu + alpha is d's, and a dominant nu + alpha with no entry
    is not below lam, and its tail is 0.  Only a non-dominant nu + alpha
    takes the ``roots._to_dominant`` walk to d, and beta follows from its
    letters, by ``roots._reflect``, only when d has a stored entry other
    than lam's, whose tails are all 0.  The packed keys make the first
    case a few integer operations: each coordinate is one digit of t + 1
    bits holding 2^t plus the coordinate, 2^t above every coordinate that
    ``_radius`` allows a weight of V(lam), plus 3 for a root, so
    nu +- alpha is one integer addition, bit t of every digit is set
    exactly when the weight is dominant, and no two weights share a key.
    The remaining room gap - (lam - nu), in simple roots, is packed the
    same way, and one mask test keeps the search inside the gap.

    Everything is an integer.  The norm N(nu) = |lam+rho|^2 - |nu+rho|^2
    is carried down the search from N(lam) = 0:

        N(nu - alpha) = N(nu) + 2 (nu, alpha) + 2 (rho, alpha) - (alpha, alpha),

    all integers, since (mu, alpha) is the dot vector of alpha applied to
    mu.  Each multiplicity is one exact division; a remainder or a
    negative quotient raises RuntimeError.

    >>> freudenthal_multiplicity(root_system("A1"), (4000,), (0,))
    1
    """
    lam = _check_weight(rs, lam)
    mu = _check_weight(rs, mu)
    lam = _check_dominant(rs, lam)  # after both length checks, whose errors come first
    bottom = dominant_conjugate(rs, mu)
    # mu is read by value, as a dict lookup would: a coordinate that is
    # not an integer leaves a remainder, and 1.0 or a numpy integer is 1
    gap = _simple_coordinates(rs.columns, sub_weights(lam, bottom))
    if gap is None:
        return 0
    gap = list(map(int, gap))
    # coordinates of nu +- alpha lie in -3..R + 2, and gap - (lam - nu) - alpha in -6..max(gap)
    t = max((_radius(rs, [lam]) + 2).bit_length(), max(gap).bit_length(), 3)
    places = range(0, rs.rank * (t + 1), t + 1)
    mask = sum(1 << (t + p) for p in places)  # bit t of every digit

    def packed(v):  # reads the nonzero coordinates only, which a root of high rank has few of
        return sum(map(lshift, filter(None, v), compress(places, v)))

    # k, alpha packed, alpha, its simple-root coordinates packed, its height,
    # its dot vector, (alpha, alpha) and 2 (rho, alpha) - (alpha, alpha)
    roots = [
        (k, packed(alpha), alpha, packed(c), sum(c), dots, sq, 2 * sum(dots) - sq)
        for k, (alpha, c, dots) in enumerate(zip(rs.positive_roots_fund, rs.positive_roots, rs.dots))
        for sq in [sum(map(mul, dots, alpha))]
    ]
    index = {alpha: k for k, alpha in enumerate(rs.positive_roots_fund)}
    top = (1, [0] * len(roots))  # lam's entry: m = 1, every tail 0
    # packed dominant weight -> None while queued, (multiplicity, tails) once done
    entries: dict[int, tuple[int, list[int]] | None] = {mask + packed(lam): top}
    done = {lam: top}  # the done entries by weight, where a walk looks them up
    # height of lam - nu -> [(packed nu, nu, packed gap - (lam - nu), N(nu))]
    levels: list[list[tuple[int, Weight, int, int]]] = [[] for _ in range(sum(gap) + 1)]
    levels[0].append((mask + packed(lam), lam, mask + packed(gap), 0))
    for height, level in enumerate(levels):
        for key, nu, room, norm in level:
            tails = []
            for k, a, alpha, c, ht, dots, sq, rise in roots:
                below = key - a
                if below & mask == mask and below not in entries:  # nu - alpha is dominant and new
                    left = room - c
                    if left & mask == mask:  # and within the gap
                        entries[below] = None
                        below_norm = norm + 2 * sum(map(mul, dots, nu)) + rise
                        levels[height + ht].append((below, tuple(map(sub, nu, alpha)), left, below_norm))
                if not height:  # lam's entry is preset
                    continue
                up = key + a
                if up & mask == mask:  # d = nu + alpha, beta = alpha
                    entry, beta = entries.get(up), k
                else:
                    x = list(map(add, nu, alpha))
                    letters = _to_dominant(rs.columns, x)
                    entry, beta = done.get(tuple(x)), k
                    if entry and entry is not top:
                        beta = index[_reflect(rs, alpha, letters)]
                tails.append(entry[0] * (sum(map(mul, dots, nu)) + sq) + entry[1][beta] if entry else 0)
            if height:
                value, rem = divmod(2 * sum(tails), norm)
                if rem or value < 0:
                    raise RuntimeError(f"{rs.name}: Freudenthal recursion broke at {nu}")
                entries[key] = done[nu] = (value, tails)
    return done[bottom][0]


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
