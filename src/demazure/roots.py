"""Finite root systems in fundamental-weight coordinates.

Weights are integer tuples in the fundamental-weight basis, so the
coroot pairing ``<mu, alpha_i^vee>`` is the coordinate read ``mu[i-1]``.
The Cartan matrix is stored with columns equal to the simple roots in
fundamental coordinates:

    cartan[i][j] == <alpha_{j+1}, alpha_{i+1}^vee>    (0-based storage)

so ``alpha_j = sum_i cartan[i][j] * omega_i``.  Simple indices in the
public API are 1-based throughout.

A simple reflection s_i(mu) = mu - mu_i alpha_i touches only the
coordinates where alpha_i is nonzero: i itself and its Dynkin
neighbours, at most four coordinates (the branch node of type D or E
has three neighbours).  ``rs.columns`` lists those entries of each
column, built once with the root system, and every reflection of a
weight held as a list runs through it, in place::

    m = x[i - 1]
    for j, c in rs.columns[i - 1]:
        x[j] -= m * c

The packed characters of ``demazure.characters`` reflect otherwise: a
packed alpha_i is one integer, built from the same column, and the
Levi walk there subtracts a multiple of it from a packed weight.

``_to_dominant`` is the one walk into the dominant chamber, reflecting
at the first negative coordinate until none is left: reduced words,
w(rho), the least element of a coset w W_lam and its word,
``dominant_conjugate`` and the Freudenthal tails that no stabiliser
gives, in types B, C, F and G only, take it.

No module reads the stored Cartan matrix: the build reads the matrix
it makes, and every other reader takes ``columns``.  No module but this
one reads a root system's family: what is known per family stays here.
No module but this one reads ``operator.index`` either: ``_ints`` reads
every weight coordinate, rank, dilation count, biweight, character
coefficient and grid bound, and ``_check_index`` every simple index,
each as an int or a ValueError.

A root system is given by its Dynkin graph and the half-norms
d_i = (alpha_i, alpha_i)/2 of its simple roots, short roots 1 and long
roots 2 (3 in G2), as ``_dynkin`` lists them.  On an edge
(alpha_i, alpha_j) = -max(d_i, d_j), and off one it is 0, so

    cartan[i][j] == (alpha_i, alpha_j) / d_i == -max(d_i, d_j) / d_i,

and d is the symmetrizer by construction.  Node numbering follows the
standard tables (Bourbaki, ch. VI, plates I-IX): chains for the
classical families, with the short root last in type B and the long
root last in type C; D forks at node rank-2; E hangs node 2 off node 4
of the chain 1-3-4-5-...; in G2 node 1 is short (so the first
fundamental weight carries the 7-dimensional module); in F4 nodes 1 and
2 are long, 3 and 4 short.

Positive roots are stored in simple-root coordinates.  They are produced
upward from the simple roots: a positive root beta with
p = <beta, alpha_i^vee> < 0 gives the positive root s_i(beta) =
beta - p alpha_i, higher by -p.  Every positive root that is not simple
is reached this way, as it pairs positively with some alpha_i and s_i
takes it down to a lower positive root; the negative half is never
built.  Each root carries its fundamental coordinates up the closure,
and the root system keeps them.  The count is checked against the
classical formula for each family at construction time.

A root system's fields are what the build makes; equality compares
them.  What readers derive from them, the dot vectors of the positive
roots, the order of the Weyl group, the table of Weyl's dimension
product over all positive roots, the support of each positive root as
a bitmask, from which a Levi selects the rows of that table, and
Freudenthal's table of the positive roots highest first with its index,
are ``_cached`` attributes: each is computed on its first read and
stored on the instance, so a build that nothing reads them from never
pays for them.

>>> a2 = root_system("A2")
>>> a2.cartan
((2, -1), (-1, 2))
>>> a2.positive_roots
((0, 1), (1, 0), (1, 1))
>>> simple_reflection(a2, 1, (1, 0))
(-1, 1)
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from functools import lru_cache
from math import log10, prod
from operator import index, mul

Weight = tuple[int, ...]

__all__ = [
    "Weight",
    "RootSystem",
    "build_root_system",
    "root_system",
    "pairing",
    "simple_reflection",
    "is_dominant",
    "rho",
    "add_weights",
    "sub_weights",
    "scale_weight",
    "dominant_conjugate",
]

_MAX_RANK = 100  # refused before the closure, which costs about rank**3
_RANK_RANGES = {
    "A": (1, _MAX_RANK),
    "B": (2, _MAX_RANK),
    "C": (3, _MAX_RANK),
    "D": (4, _MAX_RANK),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class _cached:
    """An attribute computed on first read and stored in the instance dictionary.

    The stored value shadows this non-data descriptor, so later reads are
    plain attribute lookups, and it bypasses a ``_record``'s frozen
    ``__setattr__``.  It is not annotated, so ``_record`` does not count
    it as a field: it takes no part in equality, hashing or the repr.
    Unlike ``functools.cached_property`` before Python 3.12, the first
    read takes no lock.  It is the package's one per-instance cache.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def _no_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _no_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _record(cls):
    """cls as a frozen record of the fields it annotates, in their order.

    What ``dataclasses.dataclass(frozen=True)`` makes, without importing
    ``dataclasses``, which loads ``inspect`` and ``ast``.  One ``exec``
    builds the methods that read the fields, each in straight-line code:
    ``__init__`` stores them, by position or keyword, in the instance
    dictionary and then calls ``__post_init__`` if the class has one;
    ``__eq__`` is NotImplemented for another class and otherwise
    compares the tuples of fields; ``__hash__`` hashes that tuple; and
    ``__repr__`` lists the fields.  A method the class defines itself is
    kept.  Setting or deleting any attribute raises AttributeError, so a
    ``__post_init__`` that normalises a field writes it with
    ``object.__setattr__`` or into the instance dictionary.
    """
    names = tuple(cls.__annotations__)  # strings, under the __future__ import
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    source = "\n".join([
        f"def __init__(self, {', '.join(names)}):",
        *(f"    self.__dict__[{n!r}] = {n}" for n in names),
        "    self.__post_init__()" if hasattr(cls, "__post_init__") else "",
        "def __eq__(self, other):",
        "    if other.__class__ is not self.__class__:",
        "        return NotImplemented",
        f"    return ({mine}) == ({theirs})",
        "def __hash__(self):",
        f"    return hash(({mine}))",
        "def __repr__(self):",
        f"    return f'{cls.__qualname__}({shown})'",
    ])
    methods = {"__setattr__": _no_setattr, "__delattr__": _no_delattr}
    exec(source, {}, methods)
    for name, fn in methods.items():
        if name not in vars(cls):
            setattr(cls, name, fn)
    return cls


@_record
class RootSystem:
    """An irreducible finite root system, fixed at construction.

    The fields are what the build makes.  ``cartan`` is stored as
    described in the module docstring and ``positive_roots`` holds
    simple-root coordinate tuples, sorted by height and then
    lexicographically.  The other three fields are tables the build
    computes on the way:

    - ``columns``: entry i-1 lists the pairs (j, cartan[j][i-1]) with a
      nonzero entry, j ascending, the coordinates s_i can change;
    - ``positive_roots_fund``: the positive roots in fundamental
      coordinates, in ``positive_roots`` order;
    - ``symmetrizer``: d_i = (alpha_i, alpha_i)/2, short roots 1, the
      least positive integers with d_i * a_ij == d_j * a_ji.

    ``dots``, ``order``, ``dim_table``, ``supports``, ``highest_first``
    and ``highest_first_index`` are ``_cached``: derived from the fields
    on their first read, and stored on the instance.  The last two are built
    from the instance's own ``dots``, never memoised by root system, so a
    copy that equals this one but holds other dot vectors reads its own.
    """

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[tuple[int, int], ...], ...]
    positive_roots_fund: tuple[Weight, ...]
    symmetrizer: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    def __repr__(self) -> str:
        return f"RootSystem({self.name})"

    def __hash__(self) -> int:
        # Family and rank determine every other field; hashing them alone
        # keeps each lru_cache keyed on a root system cheap.
        return hash((self.family, self.rank))

    @_cached
    def dots(self) -> tuple[Weight, ...]:
        """The dot vector of each positive root, in ``positive_roots`` order.

        The dot vector v of alpha has v_j = c_j * d_j, c its simple-root
        coordinates and d the symmetrizer, so that (mu, alpha) = v . mu
        for mu in fundamental coordinates.  Applied to alpha's own
        fundamental coordinates it gives (alpha, alpha), which must be
        even and positive: RuntimeError otherwise, on the first read.
        """
        d = self.symmetrizer
        out = []
        for c, fund in zip(self.positive_roots, self.positive_roots_fund):
            v = tuple(map(mul, c, d))
            s = sum(map(mul, v, fund))
            if s <= 0 or s % 2:
                raise RuntimeError(f"{self.name}: bad norm for root {c}")
            out.append(v)
        return tuple(out)

    @_cached
    def dim_table(self) -> tuple[tuple[Weight, ...], tuple[int, ...], int]:
        """Weyl's dimension product over all positive roots, as (dots, rho_dots, den).

        rho_dots holds each root's pairing with rho, the sum of its dot
        vector since rho has every coordinate 1, and den is their product:
        dim V(mu) = prod (dots . mu + rho_dots) / den.  A Levi's table,
        ``branching.LeviDatum.dim_table``, is a selection of its rows.
        """
        rho_dots = tuple(map(sum, self.dots))
        return self.dots, rho_dots, prod(rho_dots)

    @_cached
    def supports(self) -> tuple[int, ...]:
        """The support of each positive root as a bitmask, in ``positive_roots`` order.

        Bit i - 1 is set when alpha_i occurs in the root with a nonzero
        simple-root coordinate, so a root lies in the span of a subset S
        exactly when its support has no bit outside S's mask.
        """
        return tuple(sum(1 << j for j, c in enumerate(root) if c) for root in self.positive_roots)

    @_cached
    def highest_first(self) -> tuple[tuple, ...]:
        """The positive roots highest first, each with what Freudenthal's pass reads of it.

        Entry i is alpha = ``positive_roots[-1 - i]``, as (fundamental
        coordinates, simple-root coordinates, dot vector, (alpha, alpha),
        height, 2 (rho, alpha) - (alpha, alpha), raises).  The norm applies
        alpha's entry of ``dots`` to its fundamental coordinates, and
        (rho, alpha) is that entry's sum, so a copy with other dot vectors
        reads its own norms.  raises holds a pair (j, h) for each 0-based j
        with <alpha, alpha_j^vee> < 0, j ascending: entry h is the root
        s_j alpha = alpha - <alpha, alpha_j^vee> alpha_j, which is higher,
        so h < i.
        """
        index = self.highest_first_index
        out = []
        for c, fund, v in zip(*map(reversed, (self.positive_roots, self.positive_roots_fund, self.dots))):
            sq = sum(map(mul, v, fund))
            raises = tuple((j, index[_reflect(self, fund, (j + 1,))]) for j, p in enumerate(fund) if p < 0)
            out.append((fund, c, v, sq, sum(c), 2 * sum(v) - sq, raises))
        return tuple(out)

    @_cached
    def highest_first_index(self) -> dict[Weight, int]:
        """The entry of each positive root in ``highest_first``, keyed by its fundamental coordinates."""
        last = len(self.positive_roots_fund) - 1
        return {alpha: last - k for k, alpha in enumerate(self.positive_roots_fund)}

    @_cached
    def order(self) -> int:
        """|W| = prod_k (k + 1)^(n_k - n_{k+1}), n_k the number of positive roots of height k.

        The heights of the positive roots form the partition dual to
        the exponents m_1, ..., m_rank: exactly n_k - n_{k+1} exponents
        equal k (Humphreys, *Reflection Groups and Coxeter Groups*,
        3.20), and |W| = prod_i (m_i + 1).  This is the Poincare
        polynomial prod_{alpha > 0} (1 - q^{ht + 1}) / (1 - q^{ht}) of W
        (Macdonald, "The Poincare series of a Coxeter group", 1972) at
        q = 1, with the telescoping done on the counts.
        """
        counts = Counter(map(sum, self.positive_roots))
        return prod((k + 1) ** (n - counts[k + 1]) for k, n in counts.items())


def _classical_positive_count(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1) // 2
    if family in ("B", "C"):
        return rank * rank
    if family == "D":
        return rank * (rank - 1)
    if family == "E":
        return {6: 36, 7: 63, 8: 120}[rank]
    if family == "F":
        return 24
    return 6  # G2


def _dynkin(family: str, rank: int) -> tuple[list[tuple[int, int]], list[int]]:
    """(edges, d): the Dynkin graph as 0-based node pairs, and (alpha_i, alpha_i)/2.

    Short roots have d = 1 and long roots d = 2 (3 in G2).
    """
    edges = [(i, i + 1) for i in range(rank - 1)]  # the chain 1-2-...-rank
    d = [1] * rank
    if family == "B":
        d[:-1] = [2] * (rank - 1)
    elif family == "C":
        d[-1] = 2
    elif family == "D":
        edges[-1] = (rank - 3, rank - 1)
    elif family == "E":
        edges = [(0, 2), (1, 3)] + edges[2:]
    elif family == "F":
        d = [2, 2, 1, 1]
    elif family == "G":
        d = [1, 3]
    return edges, d


def _cartan_matrix(edges: list[tuple[int, int]], d: list[int]) -> tuple[tuple[int, ...], ...]:
    rank = len(d)
    a = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        m = max(d[i], d[j])  # -(alpha_i, alpha_j)
        a[i][j], a[j][i] = -m // d[i], -m // d[j]
    return tuple(tuple(row) for row in a)


def _close_under_reflections(
    cartan: tuple[tuple[int, ...], ...], cols: tuple[tuple[tuple[int, int], ...], ...]
) -> list[tuple[tuple[int, ...], Weight]]:
    """Each positive root as (simple-root coordinates, fundamental coordinates).

    Sorted by height and then lexicographically.
    """
    # each root carries its pairings <alpha, alpha_i^vee>, its fundamental
    # coordinates, and s_i moves them by column i of the Cartan matrix;
    # a root is reflected only where its pairing is negative, which raises it
    rank = len(cols)
    seen = {
        tuple(int(j == i) for j in range(rank)): tuple(row[i] for row in cartan)
        for i in range(rank)
    }
    frontier = list(seen.items())
    while frontier:
        nxt = []
        for c, f in frontier:
            for i, p in enumerate(f):
                if p >= 0:
                    continue
                t = c[:i] + (c[i] - p,) + c[i + 1 :]
                if t not in seen:
                    g = list(f)
                    for j, a in cols[i]:
                        g[j] -= p * a
                    seen[t] = g = tuple(g)
                    nxt.append((t, g))
        frontier = nxt
    return sorted(seen.items(), key=lambda root: (sum(root[0]), root[0]))


def build_root_system(family: str, rank: int) -> RootSystem:
    """Build (and memoize) the root system of the given family and rank.

    The family is read upper-cased and the rank through ``_ints``, so
    ``("a", 2)`` and ``("A", numpy.int64(2))`` give the system of
    ``("A", 2)``, with an int rank.  Raises ValueError for families
    outside A-G, for a rank that is not an integer and for ranks outside
    the valid range of the family
    (A: 1..100, B: 2..100, C: 3..100, D: 4..100, E: 6..8, F: 4, G: 2),
    before any work.  Only checked arguments reach the memo.
    """
    fam = family.upper()
    if fam not in _RANK_RANGES:
        raise ValueError(f"unknown family {family!r}; expected one of A..G")
    (rank,) = _ints((rank,), "rank {!r} is not an integer", rank)
    lo, hi = _RANK_RANGES[fam]
    if not lo <= rank <= hi:
        shown = rank
        if abs(rank) >= 10**20:  # its sign and first 20 digits; str() refuses 4,300
            head = abs(rank) // 10 ** (int(log10(abs(rank))) - 20)
            shown = f"{'-' if rank < 0 else ''}{str(head)[:20]}..."
        raise ValueError(f"rank {shown} invalid for type {fam}; allowed {lo}..{hi}")
    return _build_root_system(fam, rank)


@lru_cache(maxsize=None)
def _build_root_system(fam: str, rank: int) -> RootSystem:
    # fam is upper-case and rank an int in its range, as build_root_system checks
    edges, d = _dynkin(fam, rank)
    cartan = _cartan_matrix(edges, d)
    cols = tuple(tuple((j, row[i]) for j, row in enumerate(cartan) if row[i]) for i in range(rank))
    roots = _close_under_reflections(cartan, cols)
    expected = _classical_positive_count(fam, rank)
    if len(roots) != expected:
        raise RuntimeError(
            f"{fam}{rank}: positive-root closure produced {len(roots)} roots, "
            f"classical count is {expected}"
        )
    pos, fund = zip(*roots)
    return RootSystem(fam, rank, cartan, pos, cols, fund, tuple(d))


def root_system(name: str) -> RootSystem:
    """Parse a compact name like "A2" or "E8" and build the system.

    The rank is written in ASCII digits, leading zeros aside.  Only its
    first 21 digits are converted: any more lie past every rank range,
    and int() refuses strings of more than 4,300 digits.  The error names
    such a rank by its first 20 digits.

    >>> root_system("G2").positive_roots
    ((0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2))
    """
    text = name.strip()
    digits = text[1:].lstrip("0") or "0"
    if len(text) < 2 or not (digits.isascii() and digits.isdecimal()):
        raise ValueError(f"cannot parse root system name {name!r}; expected e.g. 'B3'")
    return build_root_system(text[0], int(digits[:21]))


def _ints(values: Iterable[int], message: str, *args) -> tuple[int, ...]:
    """values as a tuple of ints; ValueError(message.format(*args)) unless each is an integer.

    The package's one reader of integer inputs besides ``_check_index``:
    every weight coordinate, rank, ``n_max``, biweight, ``s_dominant``
    subset, character coefficient and ``audit_rows`` grid bound is read
    here, each value through ``operator.index``, so ints, bools and
    numpy integers pass and a float, a string or None is refused.  A TypeError from iterating
    values refuses them too.  The message is formatted only when a value
    is refused, so the common path builds no string.
    """
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(message.format(*args)) from None


def _check_index(rs: RootSystem, i: int) -> int:
    """i as an int, read through ``operator.index``; ValueError unless in 1..rank.

    Callers keep the int it returns, so an index that is a bool or a
    numpy integer is never used as it came.  It makes one ``index()``
    call, not ``_ints``'s tuple, as a Levi query reads several indices
    one at a time.  The message shows i by its repr, so the string "1"
    reads '1'; an int's repr is its digits.
    """
    try:
        if 1 <= (k := index(i)) <= rs.rank:
            return k
    except TypeError:
        pass
    raise ValueError(f"simple index {i!r} out of range 1..{rs.rank}")


def _check_weight(rs: RootSystem, mu: Sequence[int]) -> Weight:
    t = tuple(mu)
    if len(t) != rs.rank:
        raise ValueError(f"weight {t} has {len(t)} coordinates; {rs.name} has rank {rs.rank}")
    return t


def pairing(rs: RootSystem, mu: Sequence[int], i: int) -> int:
    """<mu, alpha_i^vee>: in fundamental coordinates this is mu[i-1], as an int."""
    i = _check_index(rs, i)
    return _check_integral(rs, mu)[i - 1]


def _reflect(rs: RootSystem, v: Sequence[int], letters: Iterable[int]) -> Weight:
    """s_{ik}(... s_{i1}(v)) for letters (i1, ..., ik): the first letter acts first."""
    cols = rs.columns
    x = list(v)
    for i in letters:
        m = x[i - 1]
        for j, c in cols[i - 1]:
            x[j] -= m * c
    return tuple(x)


def simple_reflection(rs: RootSystem, i: int, mu: Sequence[int]) -> Weight:
    """s_i(mu) = mu - <mu, alpha_i^vee> * alpha_i."""
    return _reflect(rs, _check_integral(rs, mu), (_check_index(rs, i),))


def _to_dominant(cols: Sequence, x: list[int]) -> list[int]:
    """Reflect the list x in place at its first negative coordinate until none is left.

    cols is ``rs.columns``.  Returns the 1-based letters taken, in order;
    ``_reflect`` applies them to another weight.
    """
    # Invariant: every coordinate before k is >= 0, so k stops at the
    # first negative coordinate, as a scan from 0 would.  Reflecting at k
    # changes only the coordinates listed in column k, the smallest of
    # which is at most k (k itself is listed); the ones before it keep
    # their values, so the scan resumes there instead of at 0.
    n = len(x)
    word = []
    k = 0
    while k < n:
        m = x[k]
        if m < 0:
            word.append(k + 1)
            col = cols[k]
            for j, c in col:
                x[j] -= m * c
            k = col[0][0]
        else:
            k += 1
    return word


def is_dominant(mu: Sequence[int]) -> bool:
    """Whether every coordinate of mu is at least 0, each read by ``_integral``."""
    return min(_integral(mu), default=0) >= 0


def _integral(mu: Iterable[int]) -> Weight:
    """mu as a tuple of ints; ValueError unless each coordinate is an integer.

    Each coordinate is read by ``_ints``.  A float such as 0.5 is refused
    here: the operator kernel's sweep steps through integer keys, never
    meets a float one, and would run until memory gives out; and a
    reflection would return floats from an exact library.
    """
    return _ints(t := tuple(mu), "weight {} has a coordinate that is not an integer", t)


def _check_integral(rs: RootSystem, mu: Sequence[int]) -> Weight:
    """mu as a checked tuple of ints: ``_integral``, after the rank check of ``_check_weight``."""
    return _integral(_check_weight(rs, mu))


def _check_dominant(rs: RootSystem, lam: Sequence[int]) -> Weight:
    """lam as a checked tuple of ints; ValueError unless it is dominant."""
    t = _check_integral(rs, lam)
    if min(t) < 0:  # t has rank >= 1 ints, read once
        raise ValueError(f"weight {t} is not dominant")
    return t


def rho(rs: RootSystem) -> Weight:
    """Half the sum of positive roots: all fundamental coordinates 1."""
    return (1,) * rs.rank


def add_weights(a: Sequence[int], b: Sequence[int]) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def sub_weights(a: Sequence[int], b: Sequence[int]) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def scale_weight(n: int, a: Sequence[int]) -> Weight:
    return tuple(n * x for x in a)


def dominant_conjugate(rs: RootSystem, mu: Sequence[int]) -> Weight:
    """The unique dominant weight in the Weyl orbit of mu."""
    cur = list(_check_integral(rs, mu))
    _to_dominant(rs.columns, cur)
    return tuple(cur)

