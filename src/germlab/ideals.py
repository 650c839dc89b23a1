"""Ideals in polynomial rings and their standard-basis invariants.

Local mode works in the ring of germs at the origin (Mora standard bases
with a negative degree order); affine mode uses global Groebner bases.
Colength, Krull dimension and emptiness are read off the leading ideal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from . import _kernel
from .poly import Elimination, PolyError, Polynomial, PolyRing, eliminate_linear

INF = float("inf")


@dataclass(frozen=True)
class Ideal:
    ring: PolyRing
    gens: tuple[Polynomial, ...]
    local: bool = True

    def __post_init__(self):
        for g in self.gens:
            if g.ring != self.ring:
                raise PolyError("generator from a different ring")

    @staticmethod
    def of(gens, local=True) -> "Ideal":
        gens = tuple(gens)
        if not gens:
            raise PolyError("ideal needs at least one generator")
        return Ideal(gens[0].ring, gens, local)

    def with_extra(self, more) -> "Ideal":
        return replace(self, gens=self.gens + tuple(more))


def standard_basis(I: Ideal, trunc: int = 0) -> tuple[dict, ...]:
    """Kernel-level standard basis (tuple of primitive integer term dicts).

    Local ideals use the negative degree-reverse-lexicographic order, affine
    ones degree-reverse-lexicographic.  trunc = D computes modulo m^D (local
    ideals only): the output is a standard basis of I + m^D, cheap when tails
    are large.  Once the kernel knows the highest corner of a local ideal it
    may work modulo a lower power (trunc = 0 included); the result is still a
    standard basis of the ideal asked for.  Nothing is kept between calls.

    The generators' numerator dicts go to the kernel as they are: a
    polynomial and its numerators differ by a positive factor, and the
    kernel makes its inputs primitive.
    """
    if I.ring.params:
        raise PolyError("substitute the parameters before computing a standard basis")
    gens = [g.terms for g in I.gens if g.terms]
    return tuple(_kernel.std_basis(gens, I.local, trunc)) if gens else ()


def leading_exponents(I: Ideal) -> list[tuple]:
    return [_kernel.lead_exp(g, I.local) for g in standard_basis(I)]


def germ_is_empty(I: Ideal) -> bool:
    """True iff the germ at the origin is empty.

    The origin lies in the zero set exactly when every generator vanishes
    there, so this is a constant-term check, not a basis computation.
    """
    if not I.local:
        raise PolyError("germ emptiness is a local question")
    return any(g.constant_term() != 0 for g in I.gens)


_TRUNC_LADDER = (8, 16, 32)


def colength(I: Ideal):
    """dim_Q of the quotient (local: of the local ring); INF if not finite.

    Local colengths are computed modulo m^D for growing D; the answer is
    certified exact once every monomial of degree D-1 lies in the leading
    ideal.  The kernel may compute the basis modulo a lower power once it
    has found the highest corner; the certificate is the same.  The
    untruncated basis is the (possibly expensive) last resort.
    """
    nvars = I.ring.nvars
    if I.local:
        if germ_is_empty(I):
            return 0
        for D in _TRUNC_LADDER:
            leads = [_kernel.lead_exp(g, True) for g in standard_basis(I, trunc=D)]
            if any(sum(e) == 0 for e in leads):
                return 0
            # without a pure power on every axis some x_i^(D-1) is standard
            if len(_kernel.pure_axes(leads)) == nvars:
                stair = _kernel.staircase(leads, nvars, D - 1)
                if max(map(sum, stair)) <= D - 2:
                    return len(stair)
    leads = leading_exponents(I)
    if not leads:
        return INF if nvars else 1
    if any(sum(e) == 0 for e in leads):
        return 0
    # finite iff every axis carries a pure power
    if len(_kernel.pure_axes(leads)) < nvars:
        return INF
    return len(_kernel.staircase(leads, nvars))


def contains_one(I: Ideal) -> bool:
    """Affine Nullstellensatz check: ideal is the whole ring."""
    J = replace(I, local=False)
    leads = leading_exponents(J)
    zero = (0,) * I.ring.nvars
    return any(e == zero for e in leads)


def _monomial_ideal_dimension(leads: list[tuple], nvars: int) -> int:
    """Krull dimension of a monomial ideal: largest independent variable set.

    S is independent when no lead's support lies inside S; a lead that is
    not minimal has a support containing a minimal lead's, so all leads may
    be tested.
    """
    if any(sum(e) == 0 for e in leads):
        return -1
    supports = {frozenset(i for i, x in enumerate(e) if x) for e in leads}
    best = -1
    for mask in range(1 << nvars):
        S = frozenset(i for i in range(nvars) if mask >> i & 1)
        if len(S) <= best:
            continue
        if all(not s <= S for s in supports):
            best = len(S)
    return best


def local_dimension(I: Ideal) -> int:
    """Krull dimension of the local quotient ring (error on the empty germ)."""
    leads = leading_exponents(I)
    if not leads:
        return I.ring.nvars
    d = _monomial_ideal_dimension(leads, I.ring.nvars)
    if d < 0:
        raise PolyError("empty germ has no dimension")
    return d


def jacobian(gens: list[Polynomial], varnames: tuple[str, ...]) -> list[list[Polynomial]]:
    return [[g.deriv(v) for v in varnames] for g in gens]


def minors(matrix: list[list[Polynomial]], size: int) -> list[Polynomial]:
    """All nonzero size x size minors, rows then columns in lexicographic order.

    Each minor is expanded by cofactors along its first row.  Sub-determinants
    are memoized by their (rows, cols) index tuples for the duration of one
    call, so minors that share rows and columns share the work; zero entries
    and zero sub-minors add no term.
    """
    if not matrix:
        return []
    ring = matrix[0][0].ring
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], Polynomial] = {}

    def det(rows, cols):
        if len(rows) == 1:
            return matrix[rows[0]][cols[0]]
        key = (rows, cols)
        acc = memo.get(key)
        if acc is not None:
            return acc
        acc = ring.zero()
        r, rest = rows[0], rows[1:]
        for t, c in enumerate(cols):
            entry = matrix[r][c]
            if entry.is_zero():
                continue
            sub = det(rest, cols[:t] + cols[t + 1:])
            if sub.is_zero():
                continue
            acc = acc - entry * sub if t % 2 else acc + entry * sub
        memo[key] = acc
        return acc

    out = []
    for rows in combinations(range(len(matrix)), size):
        for cols in combinations(range(len(matrix[0])), size):
            d = det(rows, cols)
            if not d.is_zero():
                out.append(d)
    return out


def singular_locus_ideal(I: Ideal) -> Ideal:
    """I plus the codimension-size minors of its Jacobian."""
    gens = list(I.gens)
    size = min(len(gens), I.ring.nvars)
    mins = minors(jacobian(gens, I.ring.vars), size) if size else []
    return I.with_extra(mins)


def affine_is_empty(elim: Elimination) -> bool:
    """Whether the affine zero set of an eliminated presentation is empty.

    The elimination is a coordinate change, Q[x]/I = Q[x']/I', so 1 lies in
    I exactly when it lies in I'.  Most presentations settle it: no
    generator is a whole affine space, a nonzero constant generator makes
    I' the unit ideal, and a single non-constant generator g is not a unit,
    so 1 is not in (g).  Only two or more non-constant generators take a
    standard basis.
    """
    gens = elim.gens
    if any(len(g.terms) == 1 and g.constant_term() for g in gens):
        return True
    return len(gens) > 1 and contains_one(Ideal.of(gens, local=False))


def affine_elimination(I: Ideal) -> Elimination | None:
    """eliminate_linear(I.gens), or None when the affine zero set of I is empty."""
    elim = eliminate_linear(I.gens)
    return None if affine_is_empty(elim) else elim


def affine_is_smooth(I: Ideal, elim: Elimination) -> bool:
    """Smoothness of a nonempty affine complete intersection, already eliminated.

    elim = eliminate_linear(I.gens), with a nonempty zero set.
    I + (c x c Jacobian minors), c = min(#gens, nvars), is the preimage of
    the Fitting ideal Fitt_{n-c} of the differentials of Q[x]/I, which the
    presentation does not change: the test runs on elim with c less the
    eliminated variables.  A dropped generator leaves fewer rows than c, so
    the Fitting ideal is 0 and the space singular; no generator left is an
    affine space.  Otherwise the space is smooth exactly when its singular
    locus is empty, which `affine_elimination` decides by the same
    coordinate-change argument: a quadric's partial derivatives are linear,
    so its singular locus is settled without a standard basis.
    """
    size = min(len(I.gens), I.ring.nvars) - len(elim.subs)
    if size > len(elim.gens):
        return False
    if not elim.gens:
        return True
    return affine_elimination(singular_locus_ideal(Ideal.of(elim.gens, local=False))) is None
