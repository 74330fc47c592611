"""Multiplicities for the torus quotient of SL3, by three independent routes.

A biweight pairs a dominant SL3 weight (k1, k2) with a torus character
written as integers (l1, l2, l3) against the standard basis characters
eps_1, eps_2, eps_3 of the diagonal torus; (l1, l2, l3) and
(l1+m, l2+m, l3+m) denote the same character, and every quantity here is
invariant under that shift.

Routes to the multiplicity of the simple module V(k1, k2) in the
eigensection space for the torus character:

* ``closed_mult``: n + 1 when the biweight is a member of the weight
  combinatorics, else 0, where

      n = (k1 + k2)/2 - (1/6) * sum over cyclic (i, j, k) of
          |k1 - k2 + 2 l_i - l_j - l_k|

  and membership requires k1 - k2 == l1 + l2 + l3 (mod 3) together with
  n being a nonnegative integer.

* ``mult_via_weights``: the multiplicity of the negated torus character,
  converted to fundamental coordinates via eps_1 = omega_1,
  eps_2 = omega_2 - omega_1, eps_3 = -omega_2, inside the dual module
  V(k2, k1).

* ``theorem2_mult``: counts how many times (1, 1) can be subtracted from
  (k1, k2) with the biweight staying a member, plus one.

Everything here is computed on plain integers, n as the integer 6n.
The CLI's single query and ``audit_rows`` build a biweight's row the same
way, given route 2's multiplicity: 6n is computed once, and membership,
the closed multiplicity and the printed n all come from it; route 3
steps down from each member by its own membership tests, as
``theorem2_mult`` does.  The single query reads route 2 through
``mult_via_weights``.  ``audit_rows`` expands the character of V(k2, k1)
once per (k1, k2), the same memoised longest-element character that
``weight_multiplicity`` reads, and looks each torus character up in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Iterator, Sequence

from demazure.characters import weight_multiplicity, weyl_character
from demazure.roots import Weight, root_system

__all__ = [
    "Biweight",
    "sigma_member",
    "closed_mult",
    "mult_via_weights",
    "theorem2_mult",
    "torus_weight_coords",
    "generator_biweights",
    "audit_rows",
    "AUDIT_COLUMNS",
]

@dataclass(frozen=True)
class Biweight:
    k1: int
    k2: int
    l: tuple[int, int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "l", tuple(self.l))
        if len(self.l) != 3:
            raise ValueError("torus character needs exactly three integers")
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError(f"({self.k1}, {self.k2}) is not a dominant weight")


def _six_n(k1: int, k2: int, l: Sequence[int]) -> int:
    """6n = 3(k1 + k2) - sum over cyclic (i, j, k) of |k1 - k2 + 2 l_i - l_j - l_k|."""
    l1, l2, l3 = l
    d = k1 - k2
    return (
        3 * (k1 + k2)
        - abs(d + 2 * l1 - l2 - l3)
        - abs(d + 2 * l2 - l3 - l1)
        - abs(d + 2 * l3 - l1 - l2)
    )


def _closed(k1: int, k2: int, l: Sequence[int], six_n: int) -> int:
    """``closed_mult`` on integers, given six_n = 6n and k1, k2 >= 0.

    Membership is k1 - k2 == l1 + l2 + l3 (mod 3) and n a nonnegative
    integer, so the result, n + 1 or 0, is positive exactly for members.
    """
    if (k1 - k2 - sum(l)) % 3 or six_n < 0 or six_n % 6:
        return 0
    return six_n // 6 + 1


def _member(k1: int, k2: int, l: Sequence[int]) -> bool:
    return k1 >= 0 and k2 >= 0 and _closed(k1, k2, l, _six_n(k1, k2, l)) > 0


def _steps(k1: int, k2: int, l: Sequence[int]) -> int:
    """How many of (k1, k2), (k1 - 1, k2 - 1), ... are members, counted until one is not."""
    t = 0
    while _member(k1 - t, k2 - t, l):
        t += 1
    return t


def _n_text(six_n: int) -> str:
    """n = six_n / 6 in lowest terms, as ``p`` or ``p/q`` with q > 0."""
    g = gcd(six_n, 6)
    return str(six_n // g) if g == 6 else f"{six_n // g}/{6 // g}"


def sigma_member(bw: Biweight) -> bool:
    """Whether the biweight occurs at all (congruence plus n a nonnegative integer)."""
    return _member(bw.k1, bw.k2, bw.l)


def closed_mult(bw: Biweight) -> int:
    return _closed(bw.k1, bw.k2, bw.l, _six_n(bw.k1, bw.k2, bw.l))


def torus_weight_coords(l: Sequence[int]) -> Weight:
    """Fundamental coordinates of minus the torus character sum(l_i eps_i)."""
    return (l[1] - l[0], l[2] - l[1])


def mult_via_weights(bw: Biweight) -> int:
    """Multiplicity read off the weight spaces of the dual module V(k2, k1).

    In A2, -w0 swaps the two fundamental weights, so the dual of
    (k1, k2) is (k2, k1); ``dual_weight`` computes the same by a chamber walk.
    """
    return weight_multiplicity(root_system("A2"), (bw.k2, bw.k1), torus_weight_coords(bw.l))


def theorem2_mult(bw: Biweight) -> int:
    """Multiplicity as one plus the number of (1,1)-steps staying members.

    Terminates because each step lowers k1 (and membership requires
    nonnegative weights).
    """
    return _steps(bw.k1, bw.k2, bw.l)


def generator_biweights() -> tuple[Biweight, ...]:
    """The distinct generator biweights of the eigensection algebra.

    Three with SL3 weight omega_2 and a negated basis character, three
    with omega_1 and a basis character, one with omega_1 + omega_2 and
    the trivial character.
    """
    gens = []
    for i in range(3):
        l = tuple(-1 if j == i else 0 for j in range(3))
        gens.append(Biweight(0, 1, l))
    for i in range(3):
        l = tuple(1 if j == i else 0 for j in range(3))
        gens.append(Biweight(1, 0, l))
    gens.append(Biweight(1, 1, (0, 0, 0)))
    return tuple(gens)


AUDIT_COLUMNS = (
    "k1", "k2", "l1", "l2", "l3", "member", "n", "closed", "weights", "steps", "agree",
)


def _audit_row(k1: int, k2: int, l: Sequence[int], weights: int) -> tuple:
    """The ``AUDIT_COLUMNS`` row of a biweight, given route 2's multiplicity."""
    six_n = _six_n(k1, k2, l)
    a = _closed(k1, k2, l, six_n)
    c = _steps(k1, k2, l) if a else 0
    return (k1, k2, *l, a > 0, _n_text(six_n), a, weights, c, a == weights == c)


def audit_rows(kmax: int, lmax: int) -> Iterator[tuple]:
    """Grid audit of the three routes; one row per biweight.

    k1, k2 range over 0..kmax and each l_i over -lmax..lmax.  Each row
    holds the biweight's membership, n, and its multiplicity by the
    closed formula, by weights and by steps, the same row the CLI prints
    for a single biweight.  Route 2 expands the character of the dual
    module V(k2, k1) once per (k1, k2): it is the character
    ``weight_multiplicity`` reads, so each row still reads a weight
    multiplicity.
    """
    a2 = root_system("A2")
    span = range(-lmax, lmax + 1)
    for k1 in range(kmax + 1):
        for k2 in range(kmax + 1):
            dual = weyl_character(a2, (k2, k1))
            for l in product(span, repeat=3):
                yield _audit_row(k1, k2, l, dual.get(torus_weight_coords(l), 0))
