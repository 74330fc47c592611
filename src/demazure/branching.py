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
character of v, whose chain runs on v's stored peel, reversed, and
only the totals per S-dominant weight are unpacked.  The signed sums
per S-dominant nu are the multiplicities, since the characters L(nu) are
linearly independent.  A negative one, or a total that misses
dim V(lam), raises RuntimeError.

Each Levi dimension, of a constituent or of ``levi_weyl_dim``, is
Weyl's product over the positive roots of L_S, read from the table that
the ``LeviDatum`` keeps (``LeviDatum.dim_table``, built on its first
read by selecting the rows of ``RootSystem.dim_table`` whose roots
``RootSystem.supports`` places inside S).  ``_branch`` multiplies each
constituent's multiplicity by its Levi dimension, read from that table,
and checks the sum against dim V(lam), Weyl's product over all the
positive roots.

The bound is ``_coset_bound``, the dimension of the Demazure module of
the minimal coset representative for S at the dual weight, read from
the memoised chain of the same word with no second check of the weight.
``levi_length_bound`` runs the restriction and the bound once each on
the weight ``_branch`` checked, and compares the number of constituents
with the bound; the CLI ``branch`` compares that number and each
multiplicity.
``unirad_mult_identity`` checks that the Demazure module of the
parabolic longest element has exactly the dimension of the Levi module
with the same highest weight, from the chain of that element's stored
peel, reversed, which its folds spelt, so no walk is taken.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import prod

from demazure.characters import _dim, _straightened, _weyl_dims, dual_weight, weyl_dim
from demazure.roots import (
    RootSystem,
    Weight,
    _cached,
    _check_dominant,
    _check_index,
    _check_integral,
    _integral,
    _ints,
    _record,
)
from demazure.weyl import longest_parabolic, min_coset_rep

__all__ = [
    "LeviDatum",
    "BranchingResult",
    "levi_weyl_dim",
    "restrict_to_levi",
    "levi_length_bound",
    "unirad_mult_identity",
    "s_dominant",
]


@_record
class LeviDatum:
    """A subset of simple indices defining a Levi subgroup.

    The subset is stored as a frozenset of the ints ``roots._check_index``
    returns, so no Levi query meets an index as it was given.
    ``dim_table`` is ``_cached``: the rows of ``rs.dim_table`` whose
    roots are supported on the subset, as ``rs.supports`` tells, built
    on its first read and stored on the instance.  It reads the
    instance's own ``rs``, so a copy of a root system that equals another
    but holds other dot vectors gets a Levi table of its own.
    """

    rs: RootSystem
    subset: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "subset", frozenset(_check_index(self.rs, i) for i in self.subset))

    @_cached
    def dim_table(self) -> tuple[tuple[Weight, ...], tuple[int, ...], int]:
        """Weyl's dimension product over the positive roots of the Levi."""
        rs = self.rs
        mask = sum(1 << (i - 1) for i in self.subset)
        rows = [k for k, support in enumerate(rs.supports) if support | mask == mask]
        dots, rho_dots, _ = rs.dim_table
        rho_dots = tuple(rho_dots[k] for k in rows)
        return tuple(dots[k] for k in rows), rho_dots, prod(rho_dots)


@_record
class BranchingResult:
    levi: LeviDatum
    lam: Weight
    constituents: tuple[tuple[Weight, int], ...]

    @property
    def length(self) -> int:
        """Number of Levi constituents counted with multiplicity."""
        return sum(m for _, m in self.constituents)


def s_dominant(subset: Iterable[int], mu: Sequence[int]) -> bool:
    """Whether mu_i >= 0 for each i in subset.

    The indices and the coordinates of mu are read by ``roots._ints``,
    so a coordinate such as 1.5 raises ``roots._integral``'s ValueError.
    No root system is given, so the indices are bounded by mu's length:
    one outside 1..len(mu) raises ValueError in ``_check_index``'s words.
    """
    t = _integral(mu)
    s = _ints(subset, "subset {!r} is not all integers", subset)
    if bad := [i for i in s if not 1 <= i <= len(t)]:
        raise ValueError(f"simple index {bad[0]} out of range 1..{len(t)}")
    return all(t[i - 1] >= 0 for i in s)


def _check_s_dominant(rs: RootSystem, s: frozenset[int], mu: Sequence[int]) -> Weight:
    """mu as a checked tuple of ints; ValueError unless it is dominant on s."""
    t = _check_integral(rs, mu)
    if any(t[i - 1] < 0 for i in s):  # s holds checked ints, and t is read once
        raise ValueError(f"weight {t} is not dominant on subset {sorted(s)}")
    return t


@lru_cache(maxsize=256)
def _levi_char_items(rs: RootSystem, subset: frozenset[int], mu: Weight) -> int:
    # The dimension of the Demazure module of w_S at mu.  The benchmark's
    # branching.levi_memo_* counters read this memo, under this name.
    return _dim(rs, longest_parabolic(rs, subset)._peel[::-1], mu)


def levi_weyl_dim(rs: RootSystem, subset: Iterable[int], mu: Sequence[int]) -> int:
    """Dimension of the Levi module by the product formula over its roots."""
    levi = LeviDatum(rs, subset)
    return _weyl_dims(rs, levi.dim_table, [_check_s_dominant(rs, levi.subset, mu)])[0]


def restrict_to_levi(lam: Sequence[int], levi: LeviDatum) -> BranchingResult:
    """Decompose the irreducible character of lam into Levi constituents."""
    return _branch(lam, levi)[0]


def _branch(lam: Sequence[int], levi: LeviDatum) -> tuple[BranchingResult, list[int], int]:
    """restrict_to_levi, with the Levi dimension of each constituent and dim V(lam)."""
    rs = levi.rs
    s = levi.subset
    lam = _check_dominant(rs, lam)
    found = []
    for mu, n in _straightened(rs, min_coset_rep(rs, s)._peel[::-1], lam, s):
        if n < 0:
            raise RuntimeError(f"alternating sum gave multiplicity {n} at {mu}")
        if n:
            found.append((mu, n))
    result = BranchingResult(levi, lam, tuple(found))
    dims = _weyl_dims(rs, levi.dim_table, (mu for mu, _ in found))
    dim = weyl_dim(rs, lam)
    if sum(m * d for (_, m), d in zip(found, dims)) != dim:
        raise RuntimeError("branching lost dimensions; the alternating sum is broken")
    return result, dims, dim


def _coset_bound(lam: Weight, levi: LeviDatum) -> int:
    """``demazure_dim`` of the minimal coset representative at lam*, for a checked dominant lam."""
    rs = levi.rs
    return _dim(rs, min_coset_rep(rs, levi.subset)._peel[::-1], dual_weight(rs, lam))


def levi_length_bound(lam: Sequence[int], levi: LeviDatum) -> tuple[int, int, bool]:
    """(number of constituents with multiplicity, Demazure bound, bound holds)."""
    result = _branch(lam, levi)[0]
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
