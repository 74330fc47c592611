"""Branching to Levi subgroups and the associated multiplicity bounds.

``restrict_to_levi`` decomposes the irreducible character of a dominant
lam into characters L(nu) of the Levi subgroup L_S attached to a subset
S of simple indices, by straightening one Demazure character (Demazure,
"Une nouvelle formule des caracteres", Bull. Sci. Math. 98 (1974);
Kumar, "Kac-Moody Groups, their Flag Varieties and Representation
Theory" (2002), ch. VIII).  With w_S the longest element of W_S,
v = w_S w0 the minimal coset representative and eps(x) = (-1)^length(x),

    ch V(lam) = D_{w_S}(ch V_v(lam)),
    D_{w_S} e^mu = eps(x) ch L(x.mu), or 0 when mu + rho is S-singular,

where x in W_S takes mu + rho into the S-dominant chamber and
x.mu = x(mu + rho) - rho is the dot action.

Proof.  ``min_coset_rep`` checks that w0 = w_S v with lengths adding, so
a reduced word of w_S followed by one of v spells w0, and
D_{w0} = D_{w_S} D_v.  Demazure's character formula reads
ch V(lam) = D_{w0} e^lam and ch V_v(lam) = D_v e^lam.

Let rho_S be half the sum of the positive roots of L_S.  For i in S,
s_i permutes the positive roots of L_S other than alpha_i, so
<rho_S, alpha_i^vee> = 1 = <rho, alpha_i^vee>: all of W_S fixes
rho - rho_S.  D_{w_S} is the Weyl symmetriser of L_S,
D_{w_S} f = J(e^{rho_S} f) / J(e^{rho_S}) with
J(g) = sum_{x in W_S} eps(x) x(g), and multiplying through by the
W_S-invariant e^{rho - rho_S} gives D_{w_S} e^mu = J(e^{mu+rho}) / J(e^rho).
As J(e^{x(mu+rho)}) = eps(x) J(e^{mu+rho}), this is 0 when a reflection
in W_S fixes mu + rho, and otherwise eps(x) ch L(x.mu) by the Weyl
character formula of L_S.

The walk finds x one simple reflection at a time.  For i in S,
<mu + rho, alpha_i^vee> = mu_i + 1.  At mu_i = -1 the term is 0; at
mu_i <= -2 it is minus that of s_i.mu = mu - (mu_i + 1) alpha_i, whose
mu + rho is higher by a positive multiple of alpha_i.  The W_S-orbit is
finite, so the walk stops, at an S-dominant weight.  The walk runs in
``characters._straightened``, on the packed keys of the memoised
character of v, and only the totals per S-dominant weight are unpacked.  The signed sums per
S-dominant nu are the multiplicities, since the characters L(nu) are
linearly independent.  A negative one, or a total that misses
dim V(lam), raises RuntimeError.

The bound is ``_coset_bound``, the dimension of the Demazure module of
the minimal coset representative for S at the dual weight.
``levi_length_bound`` compares the number of constituents with it, and
the CLI ``branch`` compares that number and each multiplicity.
``unirad_mult_identity`` checks that the Demazure module of the
parabolic longest element has exactly the dimension of the Levi module
with the same highest weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from demazure.characters import (
    _demazure_items,
    _straightened,
    _weyl_dims,
    demazure_dim,
    dual_weight,
    weyl_dim,
)
from demazure.roots import (
    RootSystem,
    Weight,
    _check_dominant,
    _check_index,
    _check_integral,
)
from demazure.weyl import longest_parabolic, min_coset_rep, reduced_word

__all__ = [
    "LeviDatum",
    "BranchingResult",
    "levi_weyl_dim",
    "restrict_to_levi",
    "dimension_conserved",
    "levi_length_bound",
    "unirad_mult_identity",
    "s_dominant",
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


def s_dominant(subset: Iterable[int], mu: Sequence[int]) -> bool:
    return all(mu[i - 1] >= 0 for i in subset)


def _check_s_dominant(rs: RootSystem, s: frozenset[int], mu: Sequence[int]) -> Weight:
    """mu as a checked tuple of ints; ValueError unless it is dominant on s."""
    t = _check_integral(rs, mu)
    if not s_dominant(s, t):
        raise ValueError(f"weight {t} is not dominant on subset {sorted(s)}")
    return t


@lru_cache(maxsize=1024)
def _levi_root_indices(rs: RootSystem, subset: frozenset[int]) -> tuple[int, ...]:
    # positive roots supported on the subset
    off = [j for j in range(rs.rank) if (j + 1) not in subset]
    return tuple(
        k for k, c in enumerate(rs.positive_roots) if all(c[j] == 0 for j in off)
    )


@lru_cache(maxsize=256)
def _levi_char_items(rs: RootSystem, subset: frozenset[int], mu: Weight) -> int:
    # The dimension of the Demazure module of w_S at mu.  The benchmark's
    # branching.levi_memo_* counters read this memo, under this name.
    return sum(_demazure_items(rs, reduced_word(longest_parabolic(rs, subset)), mu)[1].values())


def levi_weyl_dim(rs: RootSystem, subset: Iterable[int], mu: Sequence[int]) -> int:
    """Dimension of the Levi module by the product formula over its roots."""
    s = LeviDatum(rs, subset).subset
    return _weyl_dims(rs, _levi_root_indices(rs, s), [_check_s_dominant(rs, s, mu)])[0]


def restrict_to_levi(lam: Sequence[int], levi: LeviDatum) -> BranchingResult:
    """Decompose the irreducible character of lam into Levi constituents."""
    return _branch(lam, levi)[0]


def _branch(lam: Sequence[int], levi: LeviDatum) -> tuple[BranchingResult, list[int], int]:
    """restrict_to_levi, with the Levi dimension of each constituent and dim V(lam)."""
    rs = levi.rs
    s = levi.subset
    lam = _check_dominant(rs, lam)
    found = []
    for mu, n in _straightened(rs, reduced_word(min_coset_rep(rs, s)), lam, s):
        if n < 0:
            raise RuntimeError(f"alternating sum gave multiplicity {n} at {mu}")
        if n:
            found.append((mu, n))
    result = BranchingResult(levi, lam, tuple(found))
    dims = _weyl_dims(rs, _levi_root_indices(rs, s), (mu for mu, _ in found))
    dim = weyl_dim(rs, lam)
    if _filled(result, dims) != dim:
        raise RuntimeError("branching lost dimensions; the alternating sum is broken")
    return result, dims, dim


def dimension_conserved(result: BranchingResult) -> bool:
    rs = result.levi.rs
    mus = (mu for mu, _ in result.constituents)
    dims = _weyl_dims(rs, _levi_root_indices(rs, result.levi.subset), mus)
    return _filled(result, dims) == weyl_dim(rs, result.lam)


def _filled(result: BranchingResult, dims: Sequence[int]) -> int:
    """The dimension the constituents fill, given their Levi dimensions dims."""
    return sum(m * d for (_, m), d in zip(result.constituents, dims))


def _coset_bound(lam: Weight, levi: LeviDatum) -> int:
    rep = min_coset_rep(levi.rs, levi.subset)
    return demazure_dim(rep, dual_weight(levi.rs, lam))


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
    lam = _check_s_dominant(rs, s, lam)
    demazure_side = _levi_char_items(rs, s, lam)
    levi_side = levi_weyl_dim(rs, s, lam)
    return demazure_side, levi_side, demazure_side == levi_side
