"""Weyl group elements as rho-orbit vectors, and the 0-Hecke product.

An element w is stored as the integer vector u = w^{-1}(rho) in
fundamental-weight coordinates.  rho is regular, so u determines w, and
equality of group elements is equality of vectors regardless of which
word produced them.  The coordinate u_i is <rho, w(alpha_i^vee)>, so i
is a right descent of w exactly when u_i < 0, and right multiplication
by s_i stores s_i(u).

Each element carries its peel: letters a1, ..., ak with
w = s_ak ... s_a1, a reduced word of w reversed.  Every builder that
knows a reduced word of its result stores it, reversed: ``identity``
the empty word; ``demazure_fold`` the letters it applies before the
peel of w, and so ``from_word`` of a word whose every letter ascends,
``simple_element``, ``demazure_product`` and ``longest_parabolic``,
which folds its subset in; and ``inverse`` the peel of w backwards.
Only an element built from a vector walks: ``WeylElement(rs, u)``,
``longest_element``, ``*``, ``from_word`` of an unreduced word and
``weyl_group``.  It walks once, on first use, a fold onto it
included: reflecting u at its first negative coordinate until it
reaches rho takes letters a1, ..., ak with s_ak ... s_a1 w^{-1} = 1.
The peel is the one word an element keeps, and it serves every
computation without scanning again, as any reduced word serves: the
length is its count; ``apply`` reflects a weight along it, a1 first,
and w(rho) is rho reflected so; ``*`` reflects along it reversed; and
``demazure_product`` folds it reversed.

The Demazure characters, weight multiplicities, Levi branching and
dilation sequences of w at a weight lam run on the coset word,
``_coset_word``: a reduced word of w^lam, the least element of the coset
w W_lam, W_lam generated by the s_j with lam_j = 0.  Each such D_j fixes
e^lam, so a chain or a Bruhat interval of w^lam gives what w's would,
with length(w^lam) letters (Demazure 1974; Kumar 2002, ch. VIII).  It is
the one word any chain or interval runs on and is memoised under:
``_least_in_coset`` walks u at the zeros of lam, then to rho, through
the one walk, and keeps the word per (element, zero pattern), so every
member of a coset, and every word of each, gets the same word, the
coset's alone.  For lam with no zero coordinate the first walk takes no
step, and the word is the walk of u to rho, reversed; no module but this
one reads a peel.

Folding any reduced word of v gives the same 0-Hecke product w * v.
The product is associative, and along a reduced word i1, ..., ik every
step raises the length, so s_i1 * ... * s_ik = v and folding the
letters into w gives w * v (Knutson-Miller, "Subword complexes in
Coxeter groups", 2004).

``reduced_word`` returns the lexicographically smallest reduced word,
the one word anything prints.  It is the greedy walk from w(rho) at the
smallest left descent, taken on each call and never stored; only
printing reads it, once per element.  A walked peel and the length
are stored in the instance dictionary by ``roots._cached``, which,
unlike ``functools.cached_property`` before Python 3.12, takes no lock
on the first read; ``_with_peel`` stores a known peel in the same
slot.  ``min_coset_rep`` is memoised per subset, so the minimal coset
representative of a Levi subset, and with it its peel, is built once.

Every letter is one simple reflection, and s_i changes only coordinate
i and the coordinates of i's Dynkin neighbours: the entries of column i
of the Cartan matrix that are not zero.  The root system's ``columns``
field holds those entries, and every loop here reflects a list in place
through it and builds one tuple at the end.  Peeling is
``roots._to_dominant``, the package's one walk into the dominant
chamber; its docstring says why each scan may resume where it does.

``demazure_product`` is the monoid product generated by
``x * s = x s`` when that increases length and ``x * s = x`` otherwise;
the simple generators are idempotent for it and the longest element is
absorbing.

>>> a2 = root_system("A2")
>>> w0 = longest_element(a2)
>>> (w0.length, reduced_word(w0))
(3, (1, 2, 1))
>>> demazure_product(w0, simple_element(a2, 2)) == w0
True
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from operator import add, sub

from demazure.roots import (
    RootSystem,
    Weight,
    _cached,
    _check_index,
    _check_integral,
    _record,
    _reflect,
    _to_dominant,
    rho,
    root_system,
)

__all__ = [
    "WeylElement",
    "identity",
    "simple_element",
    "from_word",
    "reduced_word",
    "inverse",
    "longest_element",
    "longest_parabolic",
    "min_coset_rep",
    "demazure_fold",
    "demazure_product",
    "weyl_group",
]


def _rho_image(w: "WeylElement") -> Weight:
    """w(rho): rho reflected along the peel, a1 first, as w = s_ak ... s_a1."""
    return _reflect(w.rs, rho(w.rs), w._peel)


@_record
class WeylElement:
    rs: RootSystem
    u: Weight  # w^{-1}(rho)

    @_cached
    def _peel(self) -> tuple[int, ...]:
        """Letters a1, ..., ak with w = s_ak ... s_a1: a reduced word of w, reversed.

        Every builder that knows one stores it with ``_with_peel``; for an
        element built from a vector, the first read walks u to rho, and
        takes these letters.
        """
        return tuple(_to_dominant(self.rs.columns, list(self.u)))

    @_cached
    def length(self) -> int:
        """Number of letters in the peel, which is reduced."""
        return len(self._peel)

    def apply(self, mu: Sequence[int]) -> Weight:
        """Image of a weight (fundamental coordinates) under this element."""
        return _reflect(self.rs, _check_integral(self.rs, mu), self._peel)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs != other.rs:
            raise ValueError("cannot multiply elements of different root systems")
        # (vw)^{-1}(rho) = w^{-1}(v^{-1}(rho)); w^{-1} = s_a1 ... s_ak acts ak first.
        return WeylElement(self.rs, _reflect(self.rs, self.u, reversed(other._peel)))

    def __repr__(self) -> str:
        word = ",".join(map(str, reduced_word(self))) or "e"
        return f"WeylElement({self.rs.name}, {word})"


def _with_peel(w: WeylElement, peel: tuple[int, ...]) -> WeylElement:
    """w, with peel stored as its ``_peel``: a reduced word of w, reversed."""
    w.__dict__["_peel"] = peel
    return w


def identity(rs: RootSystem) -> WeylElement:
    return _with_peel(WeylElement(rs, rho(rs)), ())


def simple_element(rs: RootSystem, i: int) -> WeylElement:
    return from_word(rs, (i,))


def from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Product s_{i1} s_{i2} ... s_{ik} for word (i1, ..., ik).

    The word is folded first: when every letter ascends, it is reduced,
    the fold is the product, and it keeps the word, reversed, as its peel.
    Otherwise rho is reflected along the letters as ints: the fold has
    read every letter and refused each one that is not an index.
    """
    word = tuple(word)
    x = demazure_fold(identity(rs), word)
    if x.length != len(word):
        x = WeylElement(rs, _reflect(rs, rho(rs), map(int, word)))
    return x


def _check_reduced(rs: RootSystem, word: tuple[int, ...]) -> WeylElement:
    """The element the word spells; ValueError unless the word is reduced.

    One fold from the identity reads the word: it is reduced exactly
    when every letter ascends, and then the fold's stored peel is the
    word, reversed, as the ints the fold read.  An unreduced word is
    refused after that fold alone.
    """
    w = demazure_fold(identity(rs), word)
    if w.length != len(word):
        raise ValueError(f"word {word} is not reduced")
    return w


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """Lexicographically smallest reduced word for w, walked afresh on each call.

    The valid first letters of reduced words are exactly the left
    descents, the negative coordinates of w(rho), so the walk that
    always reflects at the smallest one spells the least word.
    """
    return tuple(_to_dominant(w.rs.columns, list(_rho_image(w))))


def inverse(w: WeylElement) -> WeylElement:
    return _with_peel(WeylElement(w.rs, _rho_image(w)), w._peel[::-1])


@lru_cache(maxsize=None)
def longest_element(rs: RootSystem) -> WeylElement:
    # w0(rho) = -rho, and w0 is an involution.
    return WeylElement(rs, tuple(-x for x in rho(rs)))


def longest_parabolic(rs: RootSystem, subset: Iterable[int]) -> WeylElement:
    """Longest element of the parabolic subgroup generated by {s_i : i in subset}."""
    # Fold the subset in until a pass adds no letter: the unique element
    # with no ascent in the subset is the parabolic longest element.
    order = sorted({_check_index(rs, i) for i in subset})
    w = identity(rs)
    while (x := demazure_fold(w, order)) != w:
        w = x
    return w


def min_coset_rep(rs: RootSystem, subset: Iterable[int]) -> WeylElement:
    """Minimal-length representative w such that w0 = w_P * w with lengths adding.

    w_P is the parabolic longest element for the subset; the result is
    w_P^{-1} w0 (= w_P w0 since parabolic longest elements are involutions).
    It is memoised per subset of checked ints, so its peel is walked
    once, however the indices came.
    """
    return _min_coset_rep(rs, frozenset(_check_index(rs, i) for i in subset))


@lru_cache(maxsize=1024)
def _min_coset_rep(rs: RootSystem, subset: frozenset[int]) -> WeylElement:
    w_p = longest_parabolic(rs, subset)
    w0 = longest_element(rs)
    rep = w_p * w0
    if w_p.length + rep.length != w0.length:
        raise RuntimeError("coset representative lengths do not add up")
    return rep


def _coset_word(w: WeylElement, lam: Weight) -> tuple[int, ...]:
    """A reduced word of w^lam, the least element of the coset w W_lam.

    W_lam is generated by the s_j with lam_j = 0, lam a checked weight,
    and D_j fixes e^lam for each such j, so every chain and interval at
    lam runs on this word in place of a word of w, and every memo of one
    is keyed on it.  It is ``_least_in_coset``'s, one entry per (element,
    zero pattern), and reads no peel: w is compared by u alone, so every
    member of a coset, however it was built, gets the same word.
    """
    return _least_in_coset(w, tuple(x == 0 for x in lam))


@lru_cache(maxsize=1024)
def _least_in_coset(w: WeylElement, zeros: tuple[bool, ...]) -> tuple[int, ...]:
    """A reduced word of the least element of w W_J, J the indices where zeros is True.

    Reflecting u = w^{-1}(rho) at a j in J with u_j < 0 takes w to the
    shorter w s_j, and u is J-dominant exactly at the least element.  The
    one walk, ``roots._to_dominant``, takes those reflections on
    x = u + N e, e_k = 1 off J and 0 on J: each s_j with j in J fixes e,
    so it moves x as it moves u, and no other coordinate turns negative,
    since |u_k|, the height of the coroot w(alpha_k^vee), is at most N,
    the number of positive roots.  The least element's u is then walked
    to rho for its peel, which is returned reversed.
    """
    big = len(w.rs.positive_roots)
    cols = w.rs.columns
    lift = [0 if z else big for z in zeros]
    x = list(map(add, w.u, lift))
    _to_dominant(cols, x)
    x = list(map(sub, x, lift))
    return tuple(_to_dominant(cols, x))[::-1]


def demazure_fold(w: WeylElement, letters: Iterable[int]) -> WeylElement:
    """Fold letters into w by x*s = xs if that is longer, else x.

    The letters applied, j1, ..., jm, give x = w s_j1 ... s_jm with the
    lengths adding, so x stores as its peel (jm, ..., j1) followed by
    w's.  A w built from a vector walks its peel here, once.

    Each letter is read once.  A plain int in 1..rank is used as it
    comes; any other letter goes through ``_check_index``, which returns
    it as an int, such as True or a numpy integer, or raises its
    ValueError, such as for 0, 1.0 or "1".  So every letter applied is
    an int, and so is every letter of a stored peel.  A TypeError from
    iterating letters itself reaches the caller.
    """
    rs = w.rs
    n = rs.rank
    cols = rs.columns
    u = list(w.u)
    applied = []
    for i in letters:
        if i.__class__ is not int or not 1 <= i <= n:
            i = _check_index(rs, i)
        m = u[i - 1]
        # i is an ascent of x exactly when u_i > 0
        if m > 0:
            applied.append(i)
            for j, c in cols[i - 1]:
                u[j] -= m * c
    return _with_peel(WeylElement(rs, tuple(u)), (*reversed(applied), *w._peel))


def demazure_product(w: WeylElement, v: WeylElement) -> WeylElement:
    """0-Hecke (Demazure) product of two group elements.

    Folds v's peel reversed, a reduced word of v; any reduced word of v
    gives the same product.
    """
    if w.rs != v.rs:
        raise ValueError("cannot multiply elements of different root systems")
    return demazure_fold(w, reversed(v._peel))


# Largest group weyl_group lists.  E6 (51,840 elements), the largest
# group below it, builds in about 1 s with a peak RSS of 73 MB (CPython
# 3.11, 2-vCPU x86-64); E7 has 56 times as many elements and E8 13,440
# times as many.
_MAX_GROUP_ORDER = 100_000


@lru_cache(maxsize=None)
def weyl_group(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The full Weyl group, sorted by (length, matrix). Small ranks only.

    The matrix is that of w on fundamental coordinates, with column j
    equal to w(omega_j), compared row by row.  Raises ValueError, before
    any search, for a group of more than 100,000 elements (E7, E8, A9).
    """
    order = rs.order
    if order > _MAX_GROUP_ORDER:
        raise ValueError(
            f"the Weyl group of {rs.name} has {order:,} elements; "
            f"weyl_group lists at most {_MAX_GROUP_ORDER:,}"
        )
    # Breadth-first search over the orbit of rho: right multiplication
    # by s_i reflects u = w^{-1}(rho) in alpha_i.  The search carries each
    # element's sort key: its length is the depth at which it is first
    # reached, and w s_i keeps the columns of w's matrix except column i,
    # which becomes w(omega_i - alpha_i) = col_i - sum_k cartan[k][i-1] col_k,
    # a sum over i and its neighbours k only.
    n = rs.rank
    table = rs.columns
    unit = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    orbit = [(rho(rs), 0, unit)]
    seen = {orbit[0][0]}
    for u, length, cols in orbit:
        for i in range(n):
            x = list(u)
            m = x[i]
            for j, c in table[i]:
                x[j] -= m * c
            x = tuple(x)
            if x not in seen:
                seen.add(x)
                col = list(cols[i])
                for k, c in table[i]:
                    for r, y in enumerate(cols[k]):
                        col[r] -= c * y
                orbit.append((x, length + 1, cols[:i] + (tuple(col),) + cols[i + 1 :]))
    orbit.sort(key=lambda entry: (entry[1], tuple(zip(*entry[2]))))
    group = []
    for u, length, _cols in orbit:
        w = WeylElement(rs, u)
        w.__dict__["length"] = length  # the depth, stored as ``_cached`` would
        group.append(w)
    return tuple(group)

