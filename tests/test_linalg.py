"""Exact rational linear algebra helpers."""

import math
import random
from fractions import Fraction

import pytest

from oracles import mat, matmul, rank
from orbitope_lab.linalg import (
    cleared_rows,
    det,
    echelon,
    frac,
    identity,
    inverse,
    matvec,
    nullspace,
    primitive,
    rref,
    scaled_inverse,
    solve,
    transpose,
    vec,
)


def random_matrix(rng, n, m):
    return mat(
        [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m)]
            for _ in range(n)
        ]
    )


def test_vec_and_frac_exact():
    v = vec((1, Fraction(1, 3), "2/5"))
    assert v == (Fraction(1), Fraction(1, 3), Fraction(2, 5))
    assert frac("7/2") == Fraction(7, 2)


def test_rref_idempotent_and_rank():
    rng = random.Random(11)
    for _ in range(20):
        a = random_matrix(rng, 4, 5)
        rows, pivots = rref(a)
        again, pivots2 = rref(rows)
        assert rows == again
        assert pivots == pivots2
        assert rank(a) == len(pivots)


def test_solve_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        a = random_matrix(rng, 4, 4)
        x = vec([Fraction(rng.randint(-5, 5)) for _ in range(4)])
        b = matvec(a, x)
        got = solve(a, b)
        assert got is not None
        assert matvec(a, got) == b


def test_solve_inconsistent_returns_none():
    a = mat([[1, 0], [1, 0]])
    assert solve(a, vec((0, 1))) is None


def test_nullspace_annihilates():
    rng = random.Random(3)
    for _ in range(20):
        a = random_matrix(rng, 3, 5)
        basis = nullspace(a)
        assert len(basis) == 5 - rank(a)
        for v in basis:
            assert all(c == 0 for c in matvec(a, v))


def test_inverse_and_det():
    rng = random.Random(19)
    seen = 0
    while seen < 15:
        a = random_matrix(rng, 3, 3)
        if det(a) == 0:
            with pytest.raises(ValueError, match="singular"):
                inverse(a)
            continue
        inv = inverse(a)
        assert matmul(a, inv) == identity(3)
        seen += 1
    # the third row is the sum of the first two
    singular = mat([[1, 2, 3], [4, 5, 6], [5, 7, 9]])
    assert det(singular) == 0
    with pytest.raises(ValueError, match="singular"):
        inverse(singular)


def test_scaled_inverse_is_an_integer_multiple_of_the_inverse():
    rng = random.Random(3)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 6)
        # small entries make singular draws and zero pivots, so row swaps
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if det(mat(a)) == 0:
            continue
        c, inv = scaled_inverse(a)
        assert all(type(x) is int for row in inv for x in row)
        assert mat(inv) == tuple(tuple(c * x for x in row) for row in inverse(mat(a)))
        checked += 1


def test_primitive_scaling():
    assert primitive((Fraction(1, 2), Fraction(-3, 4), Fraction(0))) == (2, -3, 0)
    assert primitive((Fraction(4), Fraction(6))) == (2, 3)
    assert primitive((Fraction(-2), Fraction(-4))) == (-1, -2)
    assert primitive((0, 0)) == (0, 0)


def test_independent_rows_selects_basis():
    a = [[1, 0, 0], [2, 0, 0], [0, 1, 0], [1, 1, 0]]
    picked = list(echelon(a))
    assert picked == [0, 2]
    sub = [a[i] for i in picked]
    assert rank(mat(sub)) == rank(mat(a))
    # the third row is the first minus the second
    assert list(echelon([[3, 4, -8], [-1, 7, 6], [4, -3, -14]])) == [0, 1]


def test_echelon_matches_the_pivot_columns():
    """The rows kept are the pivot columns of the rows set side by side; the
    reduced rows are primitive, span the same space, and each is zero at the
    leading entries of the rows before it."""
    rng = random.Random(5)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(0, 6)
        base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
        rows = [
            [sum(rng.randint(-2, 2) * b[j] for b in base) for j in range(n)]
            for _ in range(m)
        ]
        kept = echelon(rows)
        assert list(kept) == (rref(transpose(mat(rows)))[1] if rows else [])
        reduced = list(kept.values())
        assert rank(mat(reduced)) == len(reduced) == (rank(mat(rows)) if rows else 0)
        if reduced:
            assert rank(mat(reduced + rows)) == len(reduced)
        leads = []
        for r in reduced:
            assert math.gcd(*r) == 1
            assert all(r[j] == 0 for j in leads)
            leads.append(next(j for j, x in enumerate(r) if x))


def test_cleared_rows_share_the_least_denominator():
    rows = [(Fraction(1, 2), Fraction(2, 3)), (Fraction(-5, 4), Fraction(3))]
    assert cleared_rows(rows) == (12, ((6, 8), (-15, 36)))
    assert cleared_rows([(1, -2)]) == (1, ((1, -2),))
