"""Dimension growth of Demazure modules along weight dilations.

The sequence n -> dim of the module for n*lam is a polynomial in n of
degree at most length(w); for regular lam (e.g. rho) the degree is
exactly length(w).  The degree is detected exactly by finite
differences, no fitting involved.

The dimensions come from the principal specialisation of the Demazure
character, carried along the Bruhat interval below w, and never from the
character itself (Demazure, Bull. Sci. Math. 98, 1974; Kumar, Kac-Moody
Groups, ch. VIII).  Each v in W is stored as the integer simple-coroot
coordinates k_v of rho^vee - v^{-1} rho^vee, the sum of the coroots of
the positive roots that v sends negative; k_e = 0.  The height of a root
v alpha_i is its pairing with rho^vee, so

    c = ht(v alpha_i) = <alpha_i, v^{-1} rho^vee>
      = 1 - sum_j k_j <alpha_i, alpha_j^vee>,

a nonzero integer of the sign of the root v alpha_i, read from column i
of the Cartan matrix.  As (v s_i)^{-1} rho^vee = s_i v^{-1} rho^vee =
v^{-1} rho^vee - c alpha_i^vee, the partner point is k_{v s_i} = k_v +
c e_i.  For f in Z[P] put

    F_v(f) = q^{ht(lam)} ev_v(f),   ev_v(e^mu) = q^{-ht(v mu)}.

ev_v is a ring map to Laurent polynomials (the exponent is linear in
mu), ev_v(s_i f) = ev_{v s_i}(f) because v(s_i mu) = (v s_i)(mu), and
ev_v(e^{-alpha_i}) = q^c with c = ht(v alpha_i).  On a weight of V(lam),
F_v(e^mu) = q^{ht(lam - v mu)}, an integer power, and F_z(e^lam) =
q^{k_z . lam}, since ht(lam - z lam) = <lam, rho^vee - z^{-1} rho^vee>.

*The orbit-vector recursion.*  The operator is D_i f = (f - e^{-alpha_i}
s_i f) / (1 - e^{-alpha_i}); with m = <mu, alpha_i^vee> >= 0 it sends
e^mu to e^mu (1 + ... + e^{-m alpha_i}) as in ``characters``, and the
cases m < 0 follow from the same quotient.  Apply F_v to
(1 - e^{-alpha_i}) D_i f = f - e^{-alpha_i} s_i f:

    F_v(D_i f) = (F_v(f) - q^c F_{v s_i}(f)) / (1 - q^c),   c = ht(v alpha_i).

*Pair sharing.*  D_i f is s_i-invariant, so F_{v s_i}(D_i f) = F_v(D_i f):
one division serves the pair {v, v s_i}.  It is done from the lower
point l of the pair, the one with l alpha_i > 0, so c > 0 and the
quotient is by 1 - q^c with c a positive integer.

*The interval.*  For a reduced word (i_1, ..., i_k) of w the character is
f_0 = D_{i_1} f_1, f_j = D_{i_{j+1}} f_{j+1}, f_k = e^lam.  F_v(f_{j-1})
reads F_v(f_j) and F_{v s_{i_j}}(f_j), so the points needed before letter
i_j form S_j = S_{j-1} u S_{j-1} s_{i_j}, S_0 = {e}: the products of
subwords of (i_1, ..., i_j), which is the Bruhat interval below
s_{i_1} ... s_{i_j}.  The chain starts from F_z(e^lam) = q^{ht(lam - z lam)}
for z in S_k and ends at F_e(f_0), the principal specialisation
sum_mu c_mu q^{ht(lam - mu)} of the Demazure character; its value at
q = 1 is dim V_w(lam).  ``_interval`` keeps the points and the pairs of
every letter per (root system, word); they do not depend on lam.
``dimension_sequence`` runs the chain on w's stored peel, reversed, a
reduced word of w that takes no walk of its own; every reduced word of
w gives the same character, and so the same values.

*Evaluation at Q.*  Only the value at q = 1 is read, so each F_v is
kept, per dilation n = 1..n_max, as one integer: its value at Q = 2^b,
with b the bit length of D = dim V(n_max lam) plus 2, so Q > 4D.  At
n = 0 every F_v is 1, as dim V_w(0) = 1, so that entry is never
carried or divided.  The chain starts from F_z(Q) = Q^{n k_z . lam},
and each pair takes

    g = (Q^c F_high(Q) - F_low(Q)) / (Q^c - 1),

raising RuntimeError when the integer division leaves a remainder.
Each f_j is the Demazure character of a suffix of the word at n lam, so
its coefficients are nonnegative and sum to at most D; ev_v sends
monomials to monomials, so every F_v at every stage has the same
property, and F_v(Q) is F_v's coefficient list read in base Q.  For A
and B of that kind, let s_r be the sum of the coefficients of P = A -
q^c B at the exponents congruent to r mod c: it lies in [-D, D], below
Q/2 in absolute value.  P is congruent to R = sum_{r<c} s_r q^r modulo
1 - q^c, and so P(Q) to R(Q) modulo Q^c - 1.  As |R(Q)| < Q^c - 1 and
digits below Q/2 are unique, Q^c - 1 divides P(Q) exactly when every s_r
is 0, which is when 1 - q^c divides P; the quotient is then G(Q).  A
broken table therefore raises instead of returning a wrong number.  At
the end F_e(1) = F_e(Q) mod (Q - 1), as Q = 1 mod (Q - 1), and
0 <= F_e(1) <= D < Q - 1.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import repeat
from operator import gt, mod, mul, sub

from demazure.characters import weyl_dim
from demazure.roots import RootSystem, Weight, _check_dominant, _ints, _record
from demazure.weyl import WeylElement

__all__ = ["DilationSequence", "dimension_sequence", "finite_differences", "growth_degree"]


@_record
class DilationSequence:
    w: WeylElement
    lam: Weight
    values: tuple[int, ...]


# A pair of one letter: (lower point, upper point, c).
_Pair = tuple[int, int, int]


@lru_cache(maxsize=1024)
def _interval(
    rs: RootSystem, word: tuple[int, ...]
) -> tuple[tuple[Weight, ...], tuple[int, ...], tuple[tuple[_Pair, ...], ...]]:
    """The Bruhat interval below a reduced word's element, as chain stages.

    Returns (points, sizes, pairs).  points holds k_v for each point v,
    with e first; S_j is points[:sizes[j]].  pairs[j-1] lists the pairs
    {v, v s_i} of letter i = word[j-1] that meet S_{j-1}, by index into
    points, with c = ht(l alpha_i) > 0 for the lower point l.  These
    pairs partition S_j, and both points of a pair take the quotient;
    the points outside S_{j-1} are dropped after the letter.
    """
    cols = rs.columns
    points = [(0,) * rs.rank]
    index = {points[0]: 0}
    sizes = [1]
    pairs = []
    for i in word:
        col = cols[i - 1]
        letter = []
        for v in range(sizes[-1]):
            k = points[v]
            c = 1 - sum(k[j] * a for j, a in col)  # ht(v alpha_i)
            partner = k[: i - 1] + (k[i - 1] + c,) + k[i:]
            p = index.get(partner)
            if p is None:
                p = index[partner] = len(points)
                points.append(partner)
            elif p < v:
                continue  # paired when p came up
            low, high = (v, p) if c > 0 else (p, v)
            letter.append((low, high, abs(c)))
        pairs.append(tuple(letter))
        sizes.append(len(points))
    return tuple(points), tuple(sizes), tuple(pairs)


def _specialisation(
    rs: RootSystem, word: tuple[int, ...], lam: Weight, n_max: int
) -> tuple[int, list[int]]:
    """(Q, [F_e(Q) for n*lam, n = 0..n_max]), Q = 2^b > 4 dim V(n_max*lam).

    Base-Q digit k of F_e(Q) for n*lam is the sum of the coefficients of
    the weights mu with ht(n*lam - mu) = k in the Demazure character of
    (word, n*lam).  The chain carries n = 1..n_max only: at n = 0 every
    F_v is 1, since dim V_w(0) = 1, so that entry is never divided.
    """
    points, sizes, pairs = _interval(rs, word)
    b = weyl_dim(rs, [n_max * x for x in lam]).bit_length() + 2
    ns = range(1, n_max + 1)
    chain = [[1 << e * n for n in ns] for e in [b * sum(map(mul, k, lam)) for k in points]]
    for j in range(len(word), 0, -1):
        for low, high, c in pairs[j - 1]:
            bc = b * c
            divisor = (1 << bc) - 1
            quotient = []
            for a, h in zip(chain[low], chain[high]):
                g, rem = divmod((h << bc) - a, divisor)
                if rem:
                    raise RuntimeError(f"{rs.name}: principal specialisation of {word} at {lam} broke")
                quotient.append(g)
            chain[low] = chain[high] = quotient
        del chain[sizes[j - 1]:]
    return 1 << b, [1, *chain[0]]


def dimension_sequence(w: WeylElement, lam: Sequence[int], n_max: int | None = None) -> DilationSequence:
    """Dimensions of the Demazure modules for 0*lam, 1*lam, ..., n_max*lam.

    n_max defaults to length(w)+4 and must be at least length(w)+2 so
    the (length+1)-st finite difference can be confirmed on two entries.
    It is read by ``roots._ints``: ValueError for a value that is not
    an integer, such as 7.5, 7.0 or "7".
    """
    lam = _check_dominant(w.rs, lam)
    need = w.length + 2
    if n_max is None:
        n_max = w.length + 4
    (n,) = _ints((n_max,), "n_max={!r} is not an integer", n_max)
    if n < need:
        raise ValueError(f"n_max={n_max} too small; need at least length(w)+2 = {need}")
    q, at_q = _specialisation(w.rs, w._peel[::-1], lam, n)
    values = tuple(map(mod, at_q, repeat(q - 1)))
    if any(map(gt, values, values[1:])):
        raise RuntimeError("dilation sequence must be nondecreasing")
    return DilationSequence(w, lam, values)


def finite_differences(values: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(sub, values[1:], values))


def growth_degree(seq: DilationSequence | Sequence[int]) -> int:
    """Smallest d whose (d+1)-st finite difference vanishes identically."""
    cur = seq.values if isinstance(seq, DilationSequence) else tuple(seq)
    order = 0
    while len(cur) > 1:
        cur = finite_differences(cur)
        order += 1
        if not any(cur):
            return order - 1
    raise RuntimeError(
        f"no vanishing finite difference up to order {order}; extend the sequence"
    )
