"""Seeded oracles for the Smith normal form.

The elementary divisors must agree with rank routines that share no code
with the elimination (`rank_q` over Q, `rank_mod` over F_p), form a
divisibility chain, multiply to |det| on full-rank square matrices, and
reproduce the diagonal of D from U D V with U, V unimodular.
"""

import random
from fractions import Fraction
from math import prod

from germlab.linalg import rank_mod, rank_q, smith_normal_form

PRIMES = (2, 3, 5, 2**31 - 1)


def _det(mat: list[list[int]]) -> Fraction:
    A = [[Fraction(x) for x in row] for row in mat]
    n = len(A)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        for i in range(c + 1, n):
            f = A[i][c] / A[c][c]
            A[i] = [a - f * b for a, b in zip(A[i], A[c])]
    return det


def _boundary_like(rng: random.Random, m: int, n: int) -> list[list[int]]:
    """±1 entries, one to three per column; some columns and rows stay zero."""
    A = [[0] * n for _ in range(m)]
    for j in range(n):
        if rng.random() < 0.1:
            continue
        for i in rng.sample(range(m), min(m, rng.randint(1, 3))):
            A[i][j] = rng.choice((1, -1))
    return A


def _small_integer(rng: random.Random, m: int, n: int, entries) -> list[list[int]]:
    return [[rng.choice(entries) if rng.random() < 0.6 else 0 for _ in range(n)]
            for _ in range(m)]


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            f = rng.randint(-2, 2)
            U[i] = [a + f * b for a, b in zip(U[i], U[j])]
    if n:
        U[0] = [-a for a in U[0]]
    return U


def _mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _matrices() -> list[list[list[int]]]:
    rng = random.Random(20261018)
    mats = [[], [[], [], []], [[0] * 4 for _ in range(3)], [[2]], [[-1]], [[0, 6], [4, 0]]]
    for _ in range(40):
        m, n = rng.randint(1, 14), rng.randint(1, 14)
        mats.append(_boundary_like(rng, m, n))
    for _ in range(40):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        mats.append(_small_integer(rng, m, n, range(-5, 6)))
    for _ in range(25):  # no unit entry: the dense core does all the work
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        mats.append(_small_integer(rng, m, n, (-6, -4, -3, -2, 2, 3, 4, 6, 9)))
    for _ in range(5):
        mats.append(_boundary_like(rng, 40, 60))
    return mats


def test_divisors_match_rank_oracles_and_chain():
    for mat in _matrices():
        copy = [row[:] for row in mat]
        divs = smith_normal_form(mat)
        assert mat == copy
        assert len(divs) == rank_q([[Fraction(x) for x in row] for row in mat]), mat
        assert len(divs) == rank_q(mat) and mat == copy, mat
        for p in PRIMES:
            assert sum(1 for d in divs if d % p) == rank_mod(mat, p), (mat, p)
        assert all(d > 0 for d in divs)
        assert all(b % a == 0 for a, b in zip(divs, divs[1:])), divs


def test_rank_q_is_exact_on_integer_entries():
    # in floating point 10**20 + 1 == 10**20, which would hide the second pivot
    assert rank_q([[1, 10**20], [1, 10**20 + 1]]) == 2


def test_divisors_multiply_to_determinant():
    rng = random.Random(7)
    seen = 0
    for n in range(1, 9):
        for entries in (range(-3, 4), (-4, -2, 2, 6), (-1, 1)):
            for _ in range(6):
                mat = _small_integer(rng, n, n, entries)
                det = _det(mat)
                if det:
                    seen += 1
                    assert len(smith_normal_form(mat)) == n
                    assert prod(smith_normal_form(mat)) == abs(det), mat
    assert seen > 50


def test_divisors_of_unimodular_products():
    rng = random.Random(11)
    for _ in range(30):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        divs = [1] * rng.randint(0, min(2, m, n))
        while len(divs) < min(m, n) and rng.random() < 0.8:
            divs.append((divs[-1] if divs else 1) * rng.choice((1, 2, 3, 5)))
        D = [[divs[i] if i == j and i < len(divs) else 0 for j in range(n)] for i in range(m)]
        mat = _mul(_mul(_unimodular(rng, m), D), _unimodular(rng, n))
        assert smith_normal_form(mat) == divs, mat
