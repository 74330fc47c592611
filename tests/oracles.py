"""Reference computations shared by the tests, independent of the library.

Nothing here imports ``demazure``: an oracle reads only the public fields
of the objects it is handed (``rs.rank``, ``rs.cartan``, ``rs.name``), or
the plain tables it is handed, so it shares no code with the routes it
checks.
"""

from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import mul


def simple_root(rs, i):
    """Fundamental coordinates of alpha_i: column i of the Cartan matrix."""
    return tuple(row[i - 1] for row in rs.cartan)


@lru_cache(maxsize=None)
def scaled_inverse_cartan(rs):
    """(D, rows): rows == D * A^{-1} for the Cartan matrix A, integral, D the least such.

    Row j applied to a weight in fundamental coordinates gives D times its
    j-th simple-root coordinate, so membership in the root lattice and in
    the positive cone are integer divisibility and sign tests.

    Fraction-free Gauss-Jordan elimination on [A | I]: each row operation
    is an integer combination of two rows, divided by the gcd of its
    entries.  Every row of [A | I] has gcd 1, and so every row keeps it;
    at the end row i reads [p_i e_i | E_i], and E_i / p_i, row i of
    A^{-1}, has least common denominator |p_i|.  So D = lcm |p_i|.
    """
    n = rs.rank
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rs.cartan)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        for r in range(n):
            if r != col and aug[r][col]:
                row = [top[col] * x - aug[r][col] * y for x, y in zip(aug[r], top)]
                g = gcd(*row)
                aug[r] = [x // g for x in row]
    scale = lcm(*(abs(aug[i][i]) for i in range(n)))
    return scale, tuple(tuple(x * (scale // aug[i][i]) for x in aug[i][n:]) for i in range(n))


def gram_rows(positive_roots, positive_roots_fund, symmetrizer):
    """(K, rows): the map x -> sum_{alpha > 0} (x, alpha) alpha = K x as integer rows.

    The positive roots come in simple-root and in fundamental
    coordinates, in one order, and d is the symmetrizer.  Row j applied
    to a weight x in fundamental coordinates gives K times its j-th
    simple-root coordinate: sum over all roots of (x, alpha)(y, alpha) is
    a W-invariant symmetric form on the irreducible reflection
    representation, so a multiple K (x, y) of the invariant one.  K is
    read off the trace: x -> (x, alpha) alpha has trace (alpha, alpha),
    so K times the rank is sum_{alpha > 0} (alpha, alpha); a remainder in
    that division raises RuntimeError.  The dot vector of alpha is
    c(alpha) d entrywise, so entry (j, k) is
    d_k sum_{alpha > 0} c_j(alpha) c_k(alpha).
    """
    rank = len(symmetrizer)
    dots = [tuple(map(mul, c, symmetrizer)) for c in positive_roots]
    scale, rem = divmod(sum(sum(map(mul, v, f)) for v, f in zip(dots, positive_roots_fund)), rank)
    if rem:
        raise RuntimeError("the root norms do not sum to a multiple of the rank")
    cols = tuple(zip(*positive_roots))
    gram = {}  # sum_{alpha > 0} c_j(alpha) c_k(alpha)
    for j, col in enumerate(cols):
        for k in range(j, rank):
            gram[j, k] = gram[k, j] = sum(map(mul, col, cols[k]))
    rows = tuple(tuple(gram[j, k] * d for k, d in enumerate(symmetrizer)) for j in range(rank))
    return scale, rows


def descent(cols, x):
    """The simple-root coordinates c of x, by a halving descent; None unless c >= 0 is integral.

    x is in fundamental coordinates and cols the column table of the root
    system: entry k lists the pairs (j, a_jk) of the nonzero coordinates
    of alpha_{k+1}, j ascending.  At the first coordinate with x_k >= 1,
    subtract ceil(x_k/2) alpha_k from x and add that amount to c_k, then
    resume the scan at the column's first index.  If x = sum_j c_j alpha_j
    with every c_j >= 0, then x_k = 2 c_k + sum_{j != k} a_kj c_j <= 2 c_k,
    so c_k >= ceil(x_k/2) and the step keeps x in Q+.  A nonzero x in Q+
    has some x_k >= 1, because (x, x) = sum_k c_k d_k x_k > 0, d the
    symmetrizer.  So when x is in Q+ the walk ends at x = 0 and c is
    exact, and any other end means that it is not.  The walk stops on
    every input: a step of m = ceil(x_k/2) <= x_k lowers the height by
    m >= 1 and changes (x, x) by 2 m d_k (m - x_k) <= 0, and the height is
    bounded on the ball (y, y) <= (x, x).  Off Q+ its steps grow with the
    size of x, so it suits small inputs only.
    """
    x = list(x)
    c = [0] * len(cols)
    k = 0
    while k < len(cols):
        m = (x[k] + 1) // 2  # ceil(x_k / 2)
        if m > 0:
            c[k] += m
            for j, a in cols[k]:
                x[j] -= m * a
            k = cols[k][0][0]
        else:
            k += 1
    return None if any(x) else c


def half_norms(positive_roots, positive_roots_fund, symmetrizer):
    """(alpha, alpha)/2 for each positive root alpha.

    The positive roots come in simple-root and in fundamental
    coordinates, in one order, and d is the symmetrizer: with c the
    simple-root coordinates, (alpha, alpha) = sum_j c_j d_j <alpha, alpha_j^vee>,
    and <alpha, alpha_j^vee> is alpha's j-th fundamental coordinate.
    """
    return tuple(
        sum(cj * dj * fj for cj, dj, fj in zip(c, symmetrizer, f)) // 2
        for c, f in zip(positive_roots, positive_roots_fund)
    )


def height_product_order(positive_roots):
    """|W| = prod over positive roots alpha of (ht(alpha) + 1) / ht(alpha).

    This is the Poincare polynomial prod (1 - q^{ht + 1}) / (1 - q^{ht})
    of W (Macdonald, "The Poincare series of a Coxeter group", 1972) at
    q = 1; the product of the numerators is exactly |W| times the
    product of the denominators.  The roots are given in simple-root
    coordinates.
    """
    num = den = 1
    for coords in positive_roots:
        height = sum(coords)
        num *= height + 1
        den *= height
    order, rem = divmod(num, den)
    if rem:
        raise RuntimeError("the height product is not an integer")
    return order


def bond_cartan_matrix(family, rank):
    """The Cartan matrix written as asymmetric bond pairs (a_ij, a_ji) per Dynkin edge."""
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = 2

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if family in ("A", "B", "C"):
        for i in range(rank - 1):
            if i == rank - 2 and family == "B":
                bond(i, i + 1, -1, -2)
            elif i == rank - 2 and family == "C":
                bond(i, i + 1, -2, -1)
            else:
                bond(i, i + 1)
    elif family == "D":
        for i in range(rank - 3):
            bond(i, i + 1)
        bond(rank - 3, rank - 2)
        bond(rank - 3, rank - 1)
    elif family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)
    elif family == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    else:  # G
        bond(0, 1, -3, -1)
    return tuple(tuple(row) for row in a)


def propagated_symmetrizer(rs):
    """Minimal positive integers d with d_i * a_ij == d_j * a_ji.

    Computed by propagating integer ratios along the Dynkin graph,
    scaling every value found so far up when a ratio does not divide.
    """
    a = rs.cartan
    n = rs.rank
    d = [1] + [0] * (n - 1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i != j and a[i][j] != 0 and not d[j]:
                num, den = d[i] * a[i][j], a[j][i]
                if num % den:
                    k = abs(den) // gcd(num, den)
                    d = [x * k for x in d]
                    num *= k
                d[j] = num // den
                queue.append(j)
    if not all(d):
        raise RuntimeError(f"{rs.name}: Dynkin graph is not connected")
    g = gcd(*d)
    d = [x // g for x in d]
    for i in range(n):
        for j in range(n):
            if d[i] * a[i][j] != d[j] * a[j][i]:
                raise RuntimeError(f"{rs.name}: Cartan matrix is not symmetrizable")
    return tuple(d)


def straighten(cols, subset, mu):
    """(x.mu, eps(x)) for the x in W_S with x.mu S-dominant; None if mu + rho is S-singular.

    S is subset, x.mu = x(mu + rho) - rho is the dot action and eps the
    sign of x.  cols is the column table of the root system: entry i-1
    lists the pairs (j, c) of the nonzero coordinates c of alpha_i in
    fundamental coordinates, 0-based j.  The walk runs on weight tuples
    and reflects at the first i in S with mu_i < 0, taking
    mu - (mu_i + 1) alpha_i; at mu_i = -1 the weight is S-singular.
    """
    nu, sign = list(mu), 1
    while i := next((t for t in subset if nu[t - 1] < 0), 0):
        k = nu[i - 1] + 1
        if k == 0:
            return None
        for j, c in cols[i - 1]:
            nu[j] -= k * c
        sign = -sign
    return tuple(nu), sign


def principal_specialisation(tables, lam, n_max):
    """Coefficient lists of the principal specialisations F_e at n*lam, n = 0..n_max.

    tables is the (points, sizes, pairs) chain of a reduced word: points
    holds the simple-coroot coordinates k_v, S_j = points[:sizes[j]], and
    pairs[j-1] lists the (low, high, c) of letter j.  Entry k of list n
    sums the coefficients at ht(n*lam - mu) = k.  Every point holds all
    dilations in one integer list: slice n holds exponents 0..n N, N the
    largest height k_v . lam, and slices are kept apart by gaps of zeros
    at least as long as every c.  Each pair divides (A - q^c B) by
    1 - q^c with one running sum per residue class mod c; the division is
    exact exactly when every gap entry of the quotient is 0, and
    RuntimeError is raised otherwise.
    """
    points, sizes, pairs = tables
    heights = [sum(k * x for k, x in zip(point, lam)) for point in points]
    span = max(heights)
    gap = max((c for letter in pairs for _l, _h, c in letter), default=0)
    starts = [n * (n - 1) // 2 * span + n * (gap + 1) for n in range(n_max + 2)]
    size = starts.pop()
    gaps = [(s + n * span + 1, t) for n, (s, t) in enumerate(zip(starts, starts[1:] + [size]))]
    chain = []
    for h in heights:
        f = [0] * size
        for n, s in enumerate(starts):
            f[s + n * h] = 1
        chain.append(f)
    for j in range(len(pairs), 0, -1):
        for low, high, c in pairs[j - 1]:
            a = chain[low]
            quotient = a[:c] + [x - y for x, y in zip(a[c:], chain[high])]
            for r in range(c):
                quotient[r::c] = accumulate(quotient[r::c])
            if any(any(quotient[s:t]) for s, t in gaps):
                raise RuntimeError("principal specialisation broke")
            chain[low] = chain[high] = quotient
        del chain[sizes[j - 1]:]
    return [chain[0][s:s + n * span + 1] for n, s in enumerate(starts)]
