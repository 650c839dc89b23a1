"""Exact linear algebra: integer Smith normal form, rank/kernel over Q and F_p.

Matrices are dense lists of rows.  Sizes here are chain-complex sized
(hundreds), so simple pivoting is plenty.
"""

from __future__ import annotations

from fractions import Fraction


def smith_normal_form(mat: list[list[int]]) -> list[int]:
    """Elementary divisors (nonzero diagonal of the SNF), arbitrary precision."""
    A = [row[:] for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    divisors = []
    r = 0
    c = 0
    while r < m and c < n:
        # smallest nonzero pivot in the remaining block
        piv = None
        best = None
        for i in range(r, m):
            for j in range(c, n):
                a = A[i][j]
                if a and (best is None or abs(a) < best):
                    best = abs(a)
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        A[r], A[i] = A[i], A[r]
        for row in A:
            row[c], row[j] = row[j], row[c]
        again = True
        while again:
            again = False
            for i in range(r + 1, m):
                if A[i][c]:
                    q = A[i][c] // A[r][c]
                    if q:
                        A[i] = [a - q * b for a, b in zip(A[i], A[r])]
                    if A[i][c]:
                        A[r], A[i] = A[i], A[r]
                        again = True
            for j in range(c + 1, n):
                if A[r][j]:
                    q = A[r][j] // A[r][c]
                    if q:
                        for row in A:
                            row[j] -= q * row[c]
                    if A[r][j]:
                        for row in A:
                            row[c], row[j] = row[j], row[c]
                        again = True
        # clear the rest of the row/column: now exact multiples
        pivval = A[r][c]
        ok = True
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                if A[i][j] % pivval:
                    A[r] = [a + b for a, b in zip(A[r], A[i])]
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        divisors.append(abs(pivval))
        r += 1
        c += 1
    return divisors


def rank_q(mat: list[list[Fraction]]) -> int:
    A = [row[:] for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    col = 0
    while rank < m and col < n:
        piv = next((i for i in range(rank, m) if A[i][col]), None)
        if piv is None:
            col += 1
            continue
        A[rank], A[piv] = A[piv], A[rank]
        pv = A[rank][col]
        A[rank] = [a / pv for a in A[rank]]
        for i in range(m):
            if i != rank and A[i][col]:
                f = A[i][col]
                A[i] = [a - f * b for a, b in zip(A[i], A[rank])]
        rank += 1
        col += 1
    return rank


def rref_q(mat: list[list[Fraction]]):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    A = [[Fraction(x) for x in row] for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    pivots = []
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if A[i][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        pv = A[rank][col]
        A[rank] = [a / pv for a in A[rank]]
        for i in range(m):
            if i != rank and A[i][col]:
                f = A[i][col]
                A[i] = [a - f * b for a, b in zip(A[i], A[rank])]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    return A[:rank], pivots


def kernel_q(mat: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Basis of the right kernel of an m x n matrix."""
    rows, pivots = rref_q(mat)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, pc in zip(rows, pivots):
            v[pc] = -r[f]
        basis.append(v)
    return basis


def rank_mod(mat: list[list[int]], p: int) -> int:
    A = [[x % p for x in row] for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if A[i][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][col], -1, p)
        A[rank] = [a * inv % p for a in A[rank]]
        for i in range(m):
            if i != rank and A[i][col]:
                f = A[i][col]
                A[i] = [(a - f * b) % p for a, b in zip(A[i], A[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def column_space_basis_mod(mat: list[list[int]], p: int) -> list[int]:
    """Indices of columns forming a basis of the column space mod p."""
    A = [[x % p for x in row] for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    pivots = []
    for col in range(n):
        piv = next((i for i in range(rank, m) if A[i][col]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][col], -1, p)
        A[rank] = [a * inv % p for a in A[rank]]
        for i in range(m):
            if i != rank and A[i][col]:
                f = A[i][col]
                A[i] = [(a - f * b) % p for a, b in zip(A[i], A[rank])]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    return pivots


def mat_mul_mod(A, B, p):
    if not A or not B:
        return []
    n = len(B[0])
    out = []
    for row in A:
        acc = [0] * n
        for k, a in enumerate(row):
            if a:
                brow = B[k]
                for j in range(n):
                    if brow[j]:
                        acc[j] = (acc[j] + a * brow[j]) % p
        out.append(acc)
    return out
