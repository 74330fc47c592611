"""Dimension growth of Demazure modules along weight dilations.

The sequence n -> dim of the module for n*lam is a polynomial in n of
degree at most length(w); for regular lam (e.g. rho) the degree is
exactly length(w).  The degree is detected exactly by finite
differences, no fitting involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from demazure.characters import _demazure_items
from demazure.roots import Weight, _check_weight, is_dominant, scale_weight
from demazure.weyl import WeylElement, reduced_word

__all__ = ["DilationSequence", "dimension_sequence", "finite_differences", "growth_degree"]


@dataclass(frozen=True)
class DilationSequence:
    w: WeylElement
    lam: Weight
    values: tuple[int, ...]


def dimension_sequence(w: WeylElement, lam: Sequence[int], n_max: int | None = None) -> DilationSequence:
    """Dimensions of the Demazure modules for 0*lam, 1*lam, ..., n_max*lam.

    n_max defaults to length(w)+4 and must be at least length(w)+2 so
    the (length+1)-st finite difference can be confirmed on two entries.
    """
    lam = _check_weight(w.rs, lam)
    if not is_dominant(lam):
        raise ValueError(f"weight {lam} is not dominant")
    need = w.length + 2
    if n_max is None:
        n_max = w.length + 4
    if n_max < need:
        raise ValueError(f"n_max={n_max} too small; need at least length(w)+2 = {need}")
    # demazure_dim for every n, with lam checked and the word peeled once
    word = reduced_word(w)
    values = tuple(
        sum(_demazure_items(w.rs, word, scale_weight(n, lam)).values())
        for n in range(n_max + 1)
    )
    if values[0] != 1:
        raise RuntimeError("dilation sequence must start at 1")
    if any(a > b for a, b in zip(values, values[1:])):
        raise RuntimeError("dilation sequence must be nondecreasing")
    return DilationSequence(w, lam, values)


def finite_differences(values: Sequence[int]) -> tuple[int, ...]:
    return tuple(b - a for a, b in zip(values, values[1:]))


def growth_degree(seq: DilationSequence | Sequence[int]) -> int:
    """Smallest d whose (d+1)-st finite difference vanishes identically."""
    values = seq.values if isinstance(seq, DilationSequence) else tuple(seq)
    cur = list(values)
    order = 0
    while len(cur) > 1:
        cur = finite_differences(cur)
        order += 1
        if all(x == 0 for x in cur):
            return order - 1
    raise RuntimeError(
        f"no vanishing finite difference up to order {order}; extend the sequence"
    )
