"""Weyl group elements as rho-orbit vectors, and the 0-Hecke product.

An element w is stored as the integer vector u = w^{-1}(rho) in
fundamental-weight coordinates.  rho is regular, so u determines w, and
equality of group elements is equality of vectors regardless of which
word produced them.  The coordinate u_i is <rho, w(alpha_i^vee)>, so i
is a right descent of w exactly when u_i < 0, and right multiplication
by s_i stores s_i(u).  Peeling right descents off u until it reaches
rho gives a reduced word; length is the number of descents peeled.
Left descents are the negative coordinates of w(rho).
``reduced_word`` returns the lexicographically smallest reduced word,
obtained by greedily taking the smallest left descent.

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

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

from demazure.roots import (
    RootSystem,
    Weight,
    _check_index,
    _check_weight,
    rho,
    root_system,
)

__all__ = [
    "WeylElement",
    "identity",
    "simple_element",
    "from_word",
    "reduced_word",
    "all_reduced_words",
    "left_descents",
    "right_descents",
    "inverse",
    "longest_element",
    "longest_parabolic",
    "min_coset_rep",
    "demazure_fold",
    "demazure_product",
    "weyl_group",
]


def _reflect(rs: RootSystem, v: Weight, letters: Iterable[int]) -> Weight:
    """s_{ik}(... s_{i1}(v)) for letters (i1, ..., ik): the first letter acts first."""
    cartan = rs.cartan
    for i in letters:
        m = v[i - 1]
        v = tuple(x - m * row[i - 1] for x, row in zip(v, cartan))
    return v


def _negative(v: Weight) -> tuple[int, ...]:
    return tuple(i for i, x in enumerate(v, 1) if x < 0)


def _peel(rs: RootSystem, v: Weight) -> tuple[int, ...]:
    """Reflect v in its first negative coordinate until none is left.

    For v = w(rho) the letters taken spell the lexicographically smallest
    reduced word of w: each is the smallest left descent of what remains.
    """
    word = []
    while descents := _negative(v):
        word.append(descents[0])
        v = _reflect(rs, v, descents[:1])
    return tuple(word)


@dataclass(frozen=True)
class WeylElement:
    rs: RootSystem
    u: Weight  # w^{-1}(rho)

    @cached_property
    def _word(self) -> tuple[int, ...]:
        # u = w^{-1}(rho), so peeling it spells w^{-1}; reversed, it spells w.
        return _peel(self.rs, self.u)[::-1]

    @property
    def length(self) -> int:
        """Number of right descents peeled off before reaching the identity."""
        return len(self._word)

    @property
    def is_identity(self) -> bool:
        return self.u == rho(self.rs)

    def apply(self, mu: Sequence[int]) -> Weight:
        """Image of a weight (fundamental coordinates) under this element."""
        return _reflect(self.rs, _check_weight(self.rs, mu), self._word[::-1])

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.rs != other.rs:
            raise ValueError("cannot multiply elements of different root systems")
        # (vw)^{-1}(rho) = w^{-1}(v^{-1}(rho)); w^{-1} acts by w's word, first letter first.
        return WeylElement(self.rs, _reflect(self.rs, self.u, other._word))

    def __repr__(self) -> str:
        word = ",".join(map(str, reduced_word(self))) or "e"
        return f"WeylElement({self.rs.name}, {word})"


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, rho(rs))


def simple_element(rs: RootSystem, i: int) -> WeylElement:
    return from_word(rs, (i,))


def from_word(rs: RootSystem, word: Iterable[int]) -> WeylElement:
    """Product s_{i1} s_{i2} ... s_{ik} for word (i1, ..., ik)."""
    word = tuple(word)
    for i in word:
        _check_index(rs, i)
    return WeylElement(rs, _reflect(rs, rho(rs), word))


def right_descents(w: WeylElement) -> tuple[int, ...]:
    """Indices i with length(w s_i) < length(w), i.e. u_i < 0 for u = w^{-1}(rho)."""
    return _negative(w.u)


def left_descents(w: WeylElement) -> tuple[int, ...]:
    """Indices i with length(s_i w) < length(w), i.e. w(rho)_i < 0."""
    return _negative(w.apply(rho(w.rs)))


def reduced_word(w: WeylElement) -> tuple[int, ...]:
    """Lexicographically smallest reduced word for w.

    Greedy: the valid first letters of reduced words are exactly the left
    descents, the negative coordinates of w(rho), so taking the smallest
    one at every step is optimal.
    """
    return _peel(w.rs, w.apply(rho(w.rs)))


def all_reduced_words(w: WeylElement) -> Iterator[tuple[int, ...]]:
    """All reduced words for w, in lexicographic order."""
    if w.is_identity:
        yield ()
        return
    for i in left_descents(w):
        for rest in all_reduced_words(simple_element(w.rs, i) * w):
            yield (i, *rest)


def inverse(w: WeylElement) -> WeylElement:
    return WeylElement(w.rs, w.apply(rho(w.rs)))


@lru_cache(maxsize=None)
def longest_element(rs: RootSystem) -> WeylElement:
    # w0(rho) = -rho, and w0 is an involution.
    return WeylElement(rs, tuple(-x for x in rho(rs)))


def longest_parabolic(rs: RootSystem, subset: Iterable[int]) -> WeylElement:
    """Longest element of the parabolic subgroup generated by {s_i : i in subset}."""
    s = frozenset(subset)
    for i in s:
        _check_index(rs, i)
    return _longest_parabolic_cached(rs, s)


@lru_cache(maxsize=None)
def _longest_parabolic_cached(rs: RootSystem, subset: frozenset[int]) -> WeylElement:
    # Greedy ascent inside the parabolic: keep appending the smallest
    # generator that still increases length; the unique element with no
    # ascent in the subset is the parabolic longest element.
    u = rho(rs)
    while ascents := [i for i in sorted(subset) if u[i - 1] > 0]:
        u = _reflect(rs, u, ascents[:1])
    return WeylElement(rs, u)


def min_coset_rep(rs: RootSystem, subset: Iterable[int]) -> WeylElement:
    """Minimal-length representative w such that w0 = w_P * w with lengths adding.

    w_P is the parabolic longest element for the subset; the result is
    w_P^{-1} w0 (= w_P w0 since parabolic longest elements are involutions).
    """
    w_p = longest_parabolic(rs, subset)
    w0 = longest_element(rs)
    rep = w_p * w0
    if w_p.length + rep.length != w0.length:
        raise RuntimeError("coset representative lengths do not add up")
    return rep


def demazure_fold(w: WeylElement, letters: Iterable[int]) -> WeylElement:
    """Fold letters into w by x*s = xs if that is longer, else x."""
    rs = w.rs
    u = w.u
    for i in letters:
        _check_index(rs, i)
        # i is an ascent of x exactly when u_i > 0
        if u[i - 1] > 0:
            u = _reflect(rs, u, (i,))
    return WeylElement(rs, u)


def demazure_product(w: WeylElement, v: WeylElement) -> WeylElement:
    """0-Hecke (Demazure) product of two group elements."""
    return demazure_fold(w, reduced_word(v))


@lru_cache(maxsize=None)
def weyl_group(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The full Weyl group, sorted by (length, matrix). Small ranks only.

    The matrix is that of w on fundamental coordinates, with column j
    equal to w(omega_j), compared row by row.
    """
    # Breadth-first search over the orbit of rho: right multiplication
    # by s_i reflects u = w^{-1}(rho) in alpha_i.  The search carries each
    # element's sort key: its length is the depth at which it is first
    # reached, and w s_i keeps the columns of w's matrix except column i,
    # which becomes w(omega_i - alpha_i) = col_i - sum_k cartan[k][i-1] col_k.
    n = rs.rank
    cartan = rs.cartan
    unit = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    orbit = [(rho(rs), 0, unit)]
    seen = {orbit[0][0]}
    for u, length, cols in orbit:
        for i in range(1, n + 1):
            x = _reflect(rs, u, (i,))
            if x not in seen:
                seen.add(x)
                col = tuple(
                    c - sum(row[i - 1] * v[r] for row, v in zip(cartan, cols))
                    for r, c in enumerate(cols[i - 1])
                )
                orbit.append((x, length + 1, cols[: i - 1] + (col,) + cols[i:]))
    orbit.sort(key=lambda entry: (entry[1], tuple(zip(*entry[2]))))
    return tuple(WeylElement(rs, u) for u, _length, _cols in orbit)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
