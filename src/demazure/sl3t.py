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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from demazure.characters import weight_multiplicity
from demazure.roots import Weight, root_system

__all__ = [
    "Biweight",
    "closed_n",
    "sigma_member",
    "closed_mult",
    "mult_via_weights",
    "theorem2_mult",
    "torus_weight_coords",
    "generator_biweights",
    "audit_rows",
    "AUDIT_COLUMNS",
]

_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


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

    def shifted(self, m: int) -> "Biweight":
        """The same biweight with the torus character rewritten by l -> l + (m, m, m)."""
        return Biweight(self.k1, self.k2, tuple(x + m for x in self.l))


def _six_n(k1: int, k2: int, l: Sequence[int]) -> int:
    """6n = 3(k1 + k2) - sum over cyclic (i, j, k) of |k1 - k2 + 2 l_i - l_j - l_k|."""
    return 3 * (k1 + k2) - sum(abs(k1 - k2 + 2 * l[i] - l[j] - l[k]) for i, j, k in _CYCLIC)


def closed_n(bw: Biweight) -> Fraction:
    """The closed-formula parameter n; the multiplicity is n + 1 for members."""
    return Fraction(_six_n(bw.k1, bw.k2, bw.l), 6)


def _member(k1: int, k2: int, l: Sequence[int]) -> bool:
    if k1 < 0 or k2 < 0:
        return False
    if (k1 - k2 - sum(l)) % 3:
        return False
    six_n = _six_n(k1, k2, l)
    return six_n >= 0 and six_n % 6 == 0


def sigma_member(bw: Biweight) -> bool:
    """Whether the biweight occurs at all (congruence plus n a nonnegative integer)."""
    return _member(bw.k1, bw.k2, bw.l)


def closed_mult(bw: Biweight) -> int:
    if not sigma_member(bw):
        return 0
    return _six_n(bw.k1, bw.k2, bw.l) // 6 + 1


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
    if not sigma_member(bw):
        return 0
    t = 0
    while _member(bw.k1 - t - 1, bw.k2 - t - 1, bw.l):
        t += 1
    return t + 1


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


def audit_rows(kmax: int, lmax: int) -> Iterator[tuple]:
    """Grid audit of the three routes; one row per biweight.

    k1, k2 range over 0..kmax and each l_i over -lmax..lmax.
    """
    for k1 in range(kmax + 1):
        for k2 in range(kmax + 1):
            for l1 in range(-lmax, lmax + 1):
                for l2 in range(-lmax, lmax + 1):
                    for l3 in range(-lmax, lmax + 1):
                        bw = Biweight(k1, k2, (l1, l2, l3))
                        member = sigma_member(bw)
                        n = closed_n(bw)
                        a = closed_mult(bw)
                        b = mult_via_weights(bw)
                        c = theorem2_mult(bw)
                        yield (
                            k1, k2, l1, l2, l3,
                            member, str(n), a, b, c,
                            a == b == c,
                        )
