"""Branching to Levi subgroups and the associated multiplicity bounds.

``restrict_to_levi`` decomposes an irreducible character into characters
of the Levi subgroup attached to a subset S of simple indices, by
repeatedly extracting an S-maximal S-dominant weight and subtracting the
Levi character it generates.  The result does not depend on which
maximal weight is picked when several are incomparable; the default
picks the one with the largest S-height (sum of simple-root coordinates
over S), breaking ties lexicographically.

The bound functions compare Levi multiplicities and constituent counts
against the dimension of the Demazure module attached to the minimal
coset representative for S at the dual weight.  ``unirad_mult_identity``
checks that the Demazure module of the parabolic longest element has
exactly the dimension of the Levi module with the same highest weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from demazure.characters import (
    Character,
    _apply_word,
    demazure_dim,
    dual_weight,
    weyl_character,
    weyl_dim,
)
from demazure.roots import (
    RootSystem,
    Weight,
    _check_index,
    _check_weight,
    _scaled_inverse_cartan,
    add_weights,
    is_dominant,
    root_pairing_data,
    rho,
    sub_weights,
)
from demazure.weyl import longest_parabolic, min_coset_rep, reduced_word

__all__ = [
    "LeviDatum",
    "BranchingResult",
    "levi_character",
    "levi_weyl_dim",
    "restrict_to_levi",
    "dimension_conserved",
    "levi_branching_bound",
    "levi_length_bound",
    "unirad_mult_identity",
    "s_dominant",
    "s_maximal_weights",
]


@dataclass(frozen=True)
class LeviDatum:
    """A subset of simple indices defining a Levi subgroup."""

    rs: RootSystem
    subset: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "subset", frozenset(self.subset))
        for i in self.subset:
            _check_index(self.rs, i)


@dataclass(frozen=True)
class BranchingResult:
    levi: LeviDatum
    lam: Weight
    constituents: tuple[tuple[Weight, int], ...]

    @property
    def length(self) -> int:
        """Number of Levi constituents counted with multiplicity."""
        return sum(m for _, m in self.constituents)

    def multiplicity(self, mu: Sequence[int]) -> int:
        target = tuple(mu)
        return dict(self.constituents).get(target, 0)


def s_dominant(subset: Iterable[int], mu: Sequence[int]) -> bool:
    return all(mu[i - 1] >= 0 for i in subset)


@lru_cache(maxsize=None)
def _levi_root_indices(rs: RootSystem, subset: frozenset[int]) -> tuple[int, ...]:
    # positive roots supported on the subset
    off = [j for j in range(rs.rank) if (j + 1) not in subset]
    return tuple(
        k for k, c in enumerate(rs.positive_roots) if all(c[j] == 0 for j in off)
    )


@lru_cache(maxsize=None)
def _levi_char_items(
    rs: RootSystem, subset: frozenset[int], mu: Weight
) -> tuple[tuple[Weight, int], ...]:
    word = reduced_word(longest_parabolic(rs, subset))
    return tuple(_apply_word(rs, word, {mu: 1}))


def levi_character(rs: RootSystem, subset: Iterable[int], mu: Sequence[int]) -> Character:
    """Character of the Levi module with highest weight mu, on the ambient lattice."""
    s = frozenset(subset)
    mu = _check_weight(rs, mu)
    if not s_dominant(s, mu):
        raise ValueError(f"weight {mu} is not dominant on subset {sorted(s)}")
    return dict(_levi_char_items(rs, s, mu))


def levi_weyl_dim(rs: RootSystem, subset: Iterable[int], mu: Sequence[int]) -> int:
    """Dimension of the Levi module by the product formula over its roots."""
    s = frozenset(subset)
    mu = _check_weight(rs, mu)
    if not s_dominant(s, mu):
        raise ValueError(f"weight {mu} is not dominant on subset {sorted(s)}")
    shifted = add_weights(mu, rho(rs))
    data = root_pairing_data(rs)
    num = den = 1
    for k in _levi_root_indices(rs, s):
        dots, _halfnorm = data[k]
        num *= sum(d * x for d, x in zip(dots, shifted))
        den *= sum(dots)
    dim, rem = divmod(num, den)
    if rem:
        raise RuntimeError(f"{rs.name}: non-integral Levi dimension for {mu}")
    return dim


def s_maximal_weights(
    rs: RootSystem, subset: Iterable[int], weights: Iterable[Weight]
) -> list[Weight]:
    """Weights with no other listed weight above them in the S-partial-order."""
    s = frozenset(subset)
    pool = list(weights)
    off = [j for j in range(rs.rank) if (j + 1) not in s]
    scale, rows = _scaled_inverse_cartan(rs)
    out = []
    for w in pool:
        dominated = False
        for v in pool:
            if v == w:
                continue
            # scale times the simple-root coordinates of v - w
            diff = sub_weights(v, w)
            coords = [sum(r * x for r, x in zip(row, diff)) for row in rows]
            if all(coords[j] == 0 for j in off) and all(
                coords[i - 1] % scale == 0 and coords[i - 1] >= 0 for i in s
            ):
                dominated = True
                break
        if not dominated:
            out.append(w)
    return out


def restrict_to_levi(
    lam: Sequence[int],
    levi: LeviDatum,
    _select: Callable[[list[Weight]], Weight] | None = None,
) -> BranchingResult:
    """Decompose the irreducible character of lam into Levi constituents.

    ``_select`` is a hook for tests: given the sorted remaining support
    it must return some S-maximal weight.  The default picks the weight
    of largest S-height, ties broken by lexicographic order.
    """
    rs = levi.rs
    s = levi.subset
    lam = _check_weight(rs, lam)
    if not is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    remaining = dict(weyl_character(rs, lam))
    found: dict[Weight, int] = {}
    # Support only shrinks during extraction, so the default argmax can
    # walk a single descending sort of the initial support instead of
    # rescanning the dict each round.  The S-height is the sum over S of
    # the rows of the inverse Cartan matrix applied to w; the integral
    # rows of D times that matrix give a positive multiple of it, with
    # the same order and the same ties.
    _, rows = _scaled_inverse_cartan(rs)
    height = [sum(rows[i - 1][j] for i in s) for j in range(rs.rank)]
    queue = sorted(
        remaining,
        key=lambda w: (sum(h * x for h, x in zip(height, w)), w),
        reverse=True,
    )
    pos = 0
    while remaining:
        if _select is None:
            while queue[pos] not in remaining:
                pos += 1
            mu = queue[pos]
        else:
            mu = _select(sorted(remaining))
        if not s_dominant(s, mu):
            raise RuntimeError(f"extracted top weight {mu} is not S-dominant")
        mult = remaining[mu]
        if mult <= 0:
            raise RuntimeError(f"nonpositive multiplicity {mult} at {mu} during extraction")
        for w, c in _levi_char_items(rs, s, mu):
            left = remaining.get(w, 0) - mult * c
            if left < 0:
                raise RuntimeError(f"extraction drove coefficient of {w} negative")
            if left:
                remaining[w] = left
            else:
                remaining.pop(w, None)
        found[mu] = found.get(mu, 0) + mult
    result = BranchingResult(levi, lam, tuple(sorted(found.items())))
    if not dimension_conserved(result):
        raise RuntimeError("branching lost dimensions; extraction is broken")
    return result


def dimension_conserved(result: BranchingResult) -> bool:
    rs = result.levi.rs
    total = sum(
        m * levi_weyl_dim(rs, result.levi.subset, mu) for mu, m in result.constituents
    )
    return total == weyl_dim(rs, result.lam)


def _coset_bound(lam: Weight, levi: LeviDatum) -> int:
    rep = min_coset_rep(levi.rs, levi.subset)
    return demazure_dim(rep, dual_weight(levi.rs, lam))


def levi_branching_bound(
    lam: Sequence[int], mu: Sequence[int], levi: LeviDatum
) -> tuple[int, int, bool]:
    """(multiplicity of mu, Demazure bound, bound holds)."""
    result = restrict_to_levi(lam, levi)
    mult = result.multiplicity(mu)
    bound = _coset_bound(result.lam, levi)
    return mult, bound, mult <= bound


def levi_length_bound(lam: Sequence[int], levi: LeviDatum) -> tuple[int, int, bool]:
    """(number of constituents with multiplicity, Demazure bound, bound holds)."""
    result = restrict_to_levi(lam, levi)
    bound = _coset_bound(result.lam, levi)
    return result.length, bound, result.length <= bound


def unirad_mult_identity(lam: Sequence[int], levi: LeviDatum) -> tuple[int, int, bool]:
    """(Demazure side, Levi product-formula side, equal).

    The Demazure module of the parabolic longest element for an
    S-dominant weight has exactly the dimension of the Levi module with
    that highest weight.  Accepts any S-dominant lam; coordinates off
    the subset may be negative.
    """
    rs = levi.rs
    s = levi.subset
    lam = _check_weight(rs, lam)
    if not s_dominant(s, lam):
        raise ValueError(f"weight {lam} is not dominant on subset {sorted(s)}")
    demazure_side = sum(c for _, c in _levi_char_items(rs, s, lam))
    levi_side = levi_weyl_dim(rs, s, lam)
    return demazure_side, levi_side, demazure_side == levi_side
