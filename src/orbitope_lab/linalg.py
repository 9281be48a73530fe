"""Exact linear algebra over the rationals.

Vectors are tuples of ``fractions.Fraction``; matrices are tuples of row
tuples.  Everything in this module is exact.  It is the arithmetic bedrock
for the exact side of the package (root systems, reflection groups,
polytopes).  Floating point lives in :mod:`orbitope_lab.matmodel` only.

The exact layers clear denominators and work in integers: ``cleared_rows``
puts rational points over one common denominator, ``int_dot`` pairs integer
vectors and ``echelon`` eliminates fraction-free.  ``Fraction`` sits at the
boundary: parsed input, one-off root-system data, report fields and public
return values.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Vec = tuple
Mat = tuple

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '2/3', floats-free input to Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries) -> Vec:
    return tuple(frac(x) for x in entries)


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def identity(n: int) -> Mat:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(x + y for x, y in zip(u, v, strict=True))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(x - y for x, y in zip(u, v, strict=True))


def vec_scale(c, v: Vec) -> Vec:
    c = frac(c)
    return tuple(c * x for x in v)


def int_dot(u, v) -> int:
    """Dot product of integer vectors, in integers."""
    return sum(map(mul, u, v))


def dot(u: Vec, v: Vec) -> Fraction:
    return sum((x * y for x, y in zip(u, v, strict=True)), ZERO)


def matvec(a: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in a)


def rref(a) -> tuple[list, list[int]]:
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    rows = [list(r) for r in a]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def solve(a: Mat, b: Vec):
    """One exact solution of ``a @ x = b`` (free variables set to 0), or None.

    ``a`` has one row per equation.  Returns None when the system is
    inconsistent.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [list(row) + [rhs] for row, rhs in zip(a, b, strict=True)]
    rows, pivots = rref(aug)
    if n in pivots:
        return None
    x = [ZERO] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][n]
    return tuple(x)


def nullspace(a) -> list[Vec]:
    """Basis of the exact kernel of a (rows are equations)."""
    m = len(a)
    n = len(a[0]) if m else 0
    rows, pivots = rref(a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for i, c in enumerate(pivots):
            v[c] = -rows[i][f]
        basis.append(tuple(v))
    return basis


def inverse(a: Mat) -> Mat:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse requires a square matrix")
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def scaled_inverse(a) -> tuple[int, list]:
    """(c, c a^-1) for a nonsingular integer matrix a, c a nonzero integer:
    Gauss-Jordan elimination on [a | I] kept fraction-free (Bareiss), so
    every division is exact and the left block ends as c I."""
    n = len(a)
    rows = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(a)]
    prev = 1
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k][k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(rows[i], rows[k])]
        prev = pivot
    return prev, [r[n:] for r in rows]


def det(a: Mat) -> Fraction:
    n = len(a)
    rows = [list(r) for r in a]
    sign = 1
    result = ONE
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            return ZERO
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            sign = -sign
        pv = rows[c][c]
        result *= pv
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result * sign


def cleared(values) -> tuple[int, tuple[int, ...]]:
    """(d, d * v): the least positive integer d making d * v integral."""
    fr = vec(values)
    d = lcm(*(x.denominator for x in fr))
    return d, tuple(x.numerator * (d // x.denominator) for x in fr)


def primitive(values) -> tuple[int, ...]:
    """Scale a rational vector by a positive rational to coprime integers.

    The direction (overall sign) is preserved; the zero vector maps to
    integer zeros.
    """
    ints = cleared(values)[1]
    g = gcd(*ints)
    return ints if g == 0 else tuple(x // g for x in ints)


def cleared_rows(rows) -> tuple[int, tuple]:
    """(d, d * rows as integer tuples): d is the least common denominator of
    the entries of the rational (or integer) rows."""
    d = lcm(*(x.denominator for r in rows for x in r))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in r) for r in rows)


def echelon(rows) -> dict:
    """A basis of the integer rows' span by fraction-free elimination, as
    {index of a row kept: its reduced row}.

    Rows are scanned in order and one is kept when it is independent of the
    rows before it: the keys are the same greedy choice of a maximal
    independent subset that the pivot columns of the rows set side by side
    would give.  Each reduced row is primitive and zero at the leading entries
    of the rows kept before it, so the leading entries sit in distinct
    coordinates, on which the span projects bijectively.
    """
    basis, leads = {}, []
    for k, row in enumerate(rows):
        for lead, kept in zip(leads, basis.values()):
            if row[lead]:
                row = [kept[lead] * x - row[lead] * y for x, y in zip(row, kept)]
        if any(row):
            g = gcd(*row)
            basis[k] = [x // g for x in row]
            leads.append(next(j for j, x in enumerate(row) if x))
    return basis
