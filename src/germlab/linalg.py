"""Exact linear algebra: integer Smith normal form, rank over Q and over F_p.

Matrices are dense lists of rows.  The Smith normal form is the homology
workhorse: one elimination per boundary matrix gives its elementary
divisors d_1 | d_2 | ..., and every number homology needs is read off them
(rank over Q = their count, rank over F_p = the count of those p does not
divide, torsion = those above 1).  Boundary matrices are sparse with ±1
entries, so the elimination takes unit pivots first on a sparse copy, in
order of lowest Markowitz cost (Dumas, Saunders and Villard 2001); each
is a divisor 1 and changes no other divisor.  Only the core left without a
unit entry, usually empty, goes through the dense gcd loop.

`rank_q` is the one elimination over Q.  Its one user, the sign-isotype
oracle in `homology`, calls it so that it shares no code with the Smith
normal form.
`rank_mod` is the same elimination over F_p; with the matrix products and
powers mod p it gives the ranks of the Smith-theory special complexes.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush


def smith_normal_form(mat: list[list[int]]) -> list[int]:
    """Elementary divisors (nonzero diagonal of the SNF) as a chain d_1 | d_2 | ...

    Arbitrary precision; zero rows and columns are allowed, as are 0 x n
    and n x 0 shapes.
    """
    units, core = _unit_pivot_core(mat)
    return [1] * units + _dense_divisors(core)


def _unit_pivot_core(mat: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Eliminate ±1 pivots sparsely; return their number and the dense core left.

    With the pivot a_ij = ±1, column operations clear row i, after which
    row i and column j split off as a 1 x 1 block.  The cost of a pivot is
    its Markowitz count (r_i - 1)(c_j - 1); costs in the heap are refreshed
    lazily when a popped entry turns out dearer than its key.  The core has
    no unit entry left.
    """
    cols: dict[int, dict[int, int]] = {}  # column -> {row: nonzero entry}
    rows: dict[int, set[int]] = {}        # row -> columns with a nonzero entry
    for i, row in enumerate(mat):
        for j, a in enumerate(row):
            if a:
                cols.setdefault(j, {})[i] = a
                rows.setdefault(i, set()).add(j)
    heap = [((len(rows[i]) - 1) * (len(col) - 1), i, j)
            for j, col in cols.items() for i, a in col.items() if a in (1, -1)]
    heapify(heap)
    units = 0
    while heap:
        cost, i, j = heappop(heap)
        col = cols.get(j)
        if col is None or col.get(i) not in (1, -1):
            continue
        now = (len(rows[i]) - 1) * (len(col) - 1)
        if now > cost:
            heappush(heap, (now, i, j))
            continue
        units += 1
        del cols[j]
        v = col.pop(i)
        for r in col:
            rows[r].discard(j)
        pivot_row = rows.pop(i)
        pivot_row.discard(j)
        for k in pivot_row:
            ck = cols[k]
            f = ck.pop(i) * v  # v = ±1 is its own inverse
            for r, a in col.items():
                b = ck.get(r, 0) - f * a
                if b:
                    if r not in ck:
                        rows[r].add(k)
                    ck[r] = b
                    if b in (1, -1):
                        heappush(heap, ((len(rows[r]) - 1) * (len(ck) - 1), r, k))
                else:
                    del ck[r]
                    rows[r].discard(k)
            if not ck:
                del cols[k]
    core_cols = sorted(cols)
    core_rows = sorted(r for r, js in rows.items() if js)
    return units, [[cols[j].get(r, 0) for j in core_cols] for r in core_rows]


def _dense_divisors(A: list[list[int]]) -> list[int]:
    """Elementary divisors of a dense matrix, which this reduces in place."""
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


def rank_q(mat: list[list[int | Fraction]]) -> int:
    """Rank over Q of a matrix with int or Fraction entries, by Gaussian elimination.

    Each pivot row is subtracted from the rows below it on its nonzero
    entries only, which keeps sparse matrices cheap.
    """
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
        pv = Fraction(A[rank][col])
        support = [(j, b) for j, b in enumerate(A[rank]) if b]
        for i in range(rank + 1, m):
            row = A[i]
            if row[col]:
                f = row[col] / pv
                for j, b in support:
                    row[j] -= f * b
        rank += 1
        col += 1
    return rank


def rank_mod(mat: list[list[int]], p: int) -> int:
    """Rank over F_p, p prime, by Gaussian elimination as in `rank_q`."""
    A = [[x % p for x in row] for row in mat]
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
        inv = pow(A[rank][col], -1, p)
        support = [(j, b) for j, b in enumerate(A[rank]) if b]
        for i in range(rank + 1, m):
            row = A[i]
            if row[col]:
                f = row[col] * inv % p
                for j, b in support:
                    row[j] = (row[j] - f * b) % p
        rank += 1
        col += 1
    return rank


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


def mat_pow_mod(A, e, p):
    """A^e mod p for a square matrix A, by repeated squaring (A^0 is the identity)."""
    n = len(A)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    while e:
        if e & 1:
            out = mat_mul_mod(out, A, p)
        e >>= 1
        if e:
            A = mat_mul_mod(A, A, p)
    return out
