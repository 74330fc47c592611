"""Reference computations shared by the tests, independent of the library.

Nothing here imports ``demazure``: an oracle reads only the public fields
of the objects it is handed (``rs.rank``, ``rs.cartan``), so it shares no
code with the routes it checks.
"""

from functools import lru_cache
from math import gcd, lcm


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
