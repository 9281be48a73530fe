"""Exact rational linear algebra helpers."""

import random
from fractions import Fraction

import pytest

from orbitope_lab.linalg import (
    det,
    frac,
    identity,
    independent_rows,
    inverse,
    mat,
    matmul,
    matvec,
    nullspace,
    primitive,
    rank,
    rref,
    solve,
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
        d = det(a)
        if d == 0:
            assert inverse(a) is None
            continue
        inv = inverse(a)
        assert matmul(a, inv) == identity(3)
        seen += 1


def test_primitive_scaling():
    assert primitive((Fraction(1, 2), Fraction(-3, 4), Fraction(0))) == (2, -3, 0)
    assert primitive((Fraction(4), Fraction(6))) == (2, 3)
    assert primitive((Fraction(-2), Fraction(-4))) == (-1, -2)
    assert primitive((0, 0)) == (0, 0)


def test_independent_rows_selects_basis():
    a = mat([[1, 0, 0], [2, 0, 0], [0, 1, 0], [1, 1, 0]])
    picked = independent_rows(a)
    assert picked == [0, 2]
    sub = [a[i] for i in picked]
    assert rank(sub) == rank(a)
    # plain ints: the third row is the first minus the second
    assert independent_rows([[3, 4, -8], [-1, 7, 6], [4, -3, -14]]) == [0, 1]
