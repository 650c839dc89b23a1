"""Real topology of perturbed multiple point spaces, where it is decidable.

After linear elimination a space is classified only in the shapes the
verdict rules guarantee for candidates: an affine quadric graph whose
quadratic form is definite (a sphere, or empty on the wrong side), a full
graph (a cell), or a zero-dimensional set cut out by one univariate
polynomial (Sturm count of distinct real roots).  Anything else is reported
INCONCLUSIVE rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import Elimination, Polynomial

EMPTY = "EMPTY"
SPHERE = "SPHERE"
CELL = "CELL"
POINTS = "POINTS"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class RealSpace:
    kind: str
    dim: int | None = None     # spheres and cells
    count: int | None = None   # point sets
    signature: tuple[int, int, int] | None = None

    @property
    def chi(self) -> int | None:
        b = self.betti()
        return None if b is None else sum((-1) ** q * r for q, r in enumerate(b))

    def betti(self) -> list[int] | None:
        if self.kind == EMPTY:
            return []
        if self.kind == SPHERE:
            if self.dim == 0:
                return [2]
            return [1] + [0] * (self.dim - 1) + [1]
        if self.kind == CELL:
            return [1]
        if self.kind == POINTS:
            return [self.count]
        return None

    @property
    def components(self) -> int | None:
        b = self.betti()
        return b[0] if b else (0 if b == [] else None)


def quadratic_parts(g: Polynomial):
    """Split one equation into (constant, linear dict, symmetric matrix) or None.

    Returns None when any term has total degree > 2.
    """
    ring = g.ring
    n = ring.nvars
    const = Fraction(0)
    linear: dict[int, Fraction] = {}
    quad = [[Fraction(0)] * n for _ in range(n)]
    for e, c in g.coefficients().items():
        d = sum(e)
        if d > 2:
            return None
        if d == 0:
            const += c
        elif d == 1:
            i = next(i for i, x in enumerate(e) if x)
            linear[i] = linear.get(i, Fraction(0)) + c
        else:
            idx = [i for i, x in enumerate(e) for _ in range(x)]
            i, j = idx[0], idx[-1]
            if i == j:
                quad[i][i] += c
            else:
                quad[i][j] += c / 2
                quad[j][i] += c / 2
    return const, linear, quad


def signature(sym: list[list[Fraction]]) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia by rational congruence reduction."""
    A = [row[:] for row in sym]
    n = len(A)
    pos = neg = 0
    used = [False] * n
    for _ in range(n):
        piv = next((i for i in range(n) if not used[i] and A[i][i]), None)
        if piv is None:
            # find a nonzero off-diagonal pair and symmetrize it onto the diagonal
            hot = None
            for i in range(n):
                if used[i]:
                    continue
                for j in range(n):
                    if not used[j] and i != j and A[i][j]:
                        hot = (i, j)
                        break
                if hot:
                    break
            if hot is None:
                break
            i, j = hot
            for t in range(n):
                A[i][t] += A[j][t]
            for t in range(n):
                A[t][i] += A[t][j]
            piv = i
        d = A[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        used[piv] = True
        for i in range(n):
            if i == piv or used[i]:
                continue
            f = A[i][piv] / d
            if f:
                for t in range(n):
                    A[i][t] -= f * A[piv][t]
                for t in range(n):
                    A[t][i] -= f * A[t][piv]
    zero = n - pos - neg
    return pos, neg, zero


def sturm_distinct_real_roots(coeffs: list[Fraction]) -> int:
    """Number of distinct real roots of a univariate polynomial (whole line)."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if len(coeffs) <= 1:
        return 0  # constants have no roots (the zero polynomial never reaches here)

    def deriv(c):
        return [c[i] * i for i in range(1, len(c))]

    # every chain entry is trimmed: its lead coefficient is nonzero
    def rem(a, b):
        a = a[:]
        while len(a) >= len(b):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] -= f * bc
            while a and a[-1] == 0:
                a.pop()
        return a

    chain = [coeffs, deriv(coeffs)]
    while len(chain[-1]) > 1:
        r = rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-x for x in r])

    def variations(at_inf: int) -> int:
        signs = []
        for c in chain:
            lead = c[-1]
            s = lead if at_inf > 0 else lead * (-1) ** (len(c) - 1)
            signs.append(1 if s > 0 else -1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(-1) - variations(+1)


def classify_real_space(elim: Elimination, expected_dim: int) -> RealSpace:
    """Classify the real points of a nonempty affine model, already eliminated.

    elim is the linear elimination of an ideal that does not contain 1, so
    its generators are nonzero and none is constant.
    """
    live, ring = elim.gens, elim.ring
    if not live:
        return RealSpace(CELL, dim=ring.nvars)
    if expected_dim == 0:
        if len(live) == 1 and ring.nvars == 1:
            g = live[0]
            deg = g.degree_in(ring.vars[0])
            coeffs = [Fraction(0)] * (deg + 1)
            for e, c in g.coefficients().items():
                coeffs[e[0]] += c
            return RealSpace(POINTS, count=sturm_distinct_real_roots(coeffs))
        return RealSpace(INCONCLUSIVE)
    if len(live) == 1:
        parts = quadratic_parts(live[0])
        if parts is None:
            return RealSpace(INCONCLUSIVE)
        const, linear, quad = parts
        if linear:
            return RealSpace(INCONCLUSIVE)
        pos, neg, zero = signature(quad)
        if zero or (pos and neg):
            return RealSpace(INCONCLUSIVE, signature=(pos, neg, zero))
        level = -const
        side = 1 if pos else -1
        if level == 0:
            return RealSpace(POINTS, count=1, signature=(pos, neg, zero))
        if (level > 0) == (side > 0):
            d = ring.nvars - 1
            if d == 0:
                return RealSpace(POINTS, count=2, signature=(pos, neg, zero))
            return RealSpace(SPHERE, dim=d, signature=(pos, neg, zero))
        return RealSpace(EMPTY, signature=(pos, neg, zero))
    return RealSpace(INCONCLUSIVE)
