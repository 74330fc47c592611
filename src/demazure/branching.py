"""Branching to Levi subgroups and the associated multiplicity bounds.

``restrict_to_levi`` decomposes the irreducible character of a dominant
lam into characters of the Levi subgroup L_S attached to a subset S of
simple indices, by Klimyk's alternating sum (Humphreys, "Introduction
to Lie Algebras and Representation Theory", section 24; the LiE manual,
``branch``).  The Levi module with S-dominant highest weight mu occurs

    n_mu = sum_{x in W_S} eps(x) m_lam(x(mu + rho) - rho)

times, m_lam the weight multiplicities of V(lam) and eps(x) the sign
(-1)^length(x).

Proof.  Let rho_S be half the sum of the positive roots of L_S.  For i
in S, s_i permutes the positive roots of L_S other than alpha_i, so
<rho_S, alpha_i^vee> = 1 = <rho, alpha_i^vee>: s_i fixes rho - rho_S,
and so does all of W_S.  Multiplying the Weyl character formula of L_S
through by e^{rho - rho_S} therefore gives, with
Delta = sum_{x in W_S} eps(x) e^{x rho},

    ch L(mu) Delta = sum_{x in W_S} eps(x) e^{x(mu + rho)}.

Write ch V(lam) = sum_mu n_mu ch L(mu) and multiply by Delta:

    sum_nu m_lam(nu) e^nu Delta = sum_mu n_mu sum_x eps(x) e^{x(mu + rho)}.

For S-dominant mu, mu + rho pairs to at least 1 with every alpha_i^vee,
i in S.  Two S-dominant weights in one W_S-orbit are equal, and an
S-regular one has trivial stabiliser, so x(mu' + rho) = mu + rho with
mu' S-dominant forces mu' = mu and x = 1.  The coefficient of
e^{mu + rho} is n_mu on the right and sum_x eps(x) m_lam(mu + rho - x rho)
on the left.  As m_lam is W-invariant, m_lam(mu + rho - x rho) =
m_lam(x^{-1}(mu + rho) - rho), and eps(x^{-1}) = eps(x), which is the
formula.

The sum runs over the dot-orbit x.mu = x(mu + rho) - rho of W_S, one
level at a time.  For nu = x.mu, <nu + rho, alpha_i^vee> > 0, that is
nu_i >= 0, exactly when x^{-1} alpha_i is positive, that is when s_i x
is longer than x; and x -> x.mu is one to one since mu + rho is
S-regular.  So the images s_i.nu = nu - (nu_i + 1) alpha_i, for i in S
with nu_i >= 0, of one level make up the next, the k-th level is the
image of the elements of length k, and its sign is (-1)^k.  A level
keeps only weights of V(lam): if nu is not one, neither is s_i.nu,
since s_i(s_i.nu) = nu + alpha_i pairs to nu_i + 2 > 0 with alpha_i^vee
and subtracting alpha_i from such a weight leaves a weight.  So nothing
below a dropped nu contributes, and a level never holds more than the
support of V(lam), however large W_S is.  Only S-dominant weights of
V(lam) are tried, since a constituent's highest weight is a weight of
V(lam).  A negative n_mu or a total that misses dim V(lam) raises
RuntimeError.

The bound functions compare Levi multiplicities and constituent counts
against the dimension of the Demazure module attached to the minimal
coset representative for S at the dual weight.  ``unirad_mult_identity``
checks that the Demazure module of the parabolic longest element has
exactly the dimension of the Levi module with the same highest weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from demazure.characters import (
    Character,
    _apply_word,
    _weyl_dims,
    demazure_dim,
    dual_weight,
    weyl_character,
    weyl_dim,
)
from demazure.roots import (
    RootSystem,
    Weight,
    _check_dominant,
    _check_index,
    _check_weight,
    _columns,
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


def _check_s_dominant(rs: RootSystem, s: frozenset[int], mu: Sequence[int]) -> Weight:
    """mu as a checked weight tuple; ValueError unless it is dominant on s."""
    t = _check_weight(rs, mu)
    if not s_dominant(s, t):
        raise ValueError(f"weight {t} is not dominant on subset {sorted(s)}")
    return t


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
    return dict(_levi_char_items(rs, s, _check_s_dominant(rs, s, mu)))


def levi_weyl_dim(rs: RootSystem, subset: Iterable[int], mu: Sequence[int]) -> int:
    """Dimension of the Levi module by the product formula over its roots."""
    s = frozenset(subset)
    return _weyl_dims(rs, _levi_root_indices(rs, s), [_check_s_dominant(rs, s, mu)])[0]


def _dot_below(rs: RootSystem, s: Iterable[int], nu: Weight) -> Iterator[Weight]:
    """s_i.nu = nu - (nu_i + 1) alpha_i for each i in s where that is lower."""
    cols = _columns(rs)
    for i in s:
        k = nu[i - 1] + 1
        if k > 0:
            x = list(nu)
            for j, c in cols[i - 1]:
                x[j] -= k * c
            yield tuple(x)


def restrict_to_levi(lam: Sequence[int], levi: LeviDatum) -> BranchingResult:
    """Decompose the irreducible character of lam into Levi constituents."""
    return _branch(lam, levi)[0]


def _branch(lam: Sequence[int], levi: LeviDatum) -> tuple[BranchingResult, list[int]]:
    """restrict_to_levi, together with the Levi dimension of each constituent."""
    rs = levi.rs
    s = levi.subset
    lam = _check_dominant(rs, lam)
    char = weyl_character(rs, lam)
    found = []
    for mu in char:  # sorted, so found is too
        if not s_dominant(s, mu):
            continue
        n, sign, level = 0, 1, {mu}
        while level:
            n += sign * sum(char[nu] for nu in level)
            level = {x for nu in level for x in _dot_below(rs, s, nu) if x in char}
            sign = -sign
        if n < 0:
            raise RuntimeError(f"alternating sum gave multiplicity {n} at {mu}")
        if n:
            found.append((mu, n))
    result = BranchingResult(levi, lam, tuple(found))
    dims = _weyl_dims(rs, _levi_root_indices(rs, s), (mu for mu, _ in found))
    if not _conserved(result, dims):
        raise RuntimeError("branching lost dimensions; the alternating sum is broken")
    return result, dims


def dimension_conserved(result: BranchingResult) -> bool:
    rs = result.levi.rs
    mus = (mu for mu, _ in result.constituents)
    return _conserved(result, _weyl_dims(rs, _levi_root_indices(rs, result.levi.subset), mus))


def _conserved(result: BranchingResult, dims: Sequence[int]) -> bool:
    """Whether the constituents, of Levi dimensions dims, fill V(lam)."""
    total = sum(m * d for (_, m), d in zip(result.constituents, dims))
    return total == weyl_dim(result.levi.rs, result.lam)


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
    lam = _check_s_dominant(rs, s, lam)
    demazure_side = sum(c for _, c in _levi_char_items(rs, s, lam))
    levi_side = levi_weyl_dim(rs, s, lam)
    return demazure_side, levi_side, demazure_side == levi_side
