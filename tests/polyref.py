"""Reference helpers for the tests: substitution, symmetric polynomials,
first divided differences, ideal membership, the sign of a cycle type and
immersivity of a germ, written on top of the library's public entry points.
"""

from collections import Counter
from itertools import combinations_with_replacement

from germlab import _kernel
from germlab.ideals import Ideal, standard_basis
from germlab.poly import Polynomial, PolyRing, divided_differences


def subs(f: Polynomial, assignment, ring: PolyRing | None = None) -> Polynomial:
    """Substitute symbols by polynomials or scalars, all at once, into `ring`.

    Reference expander: each term is a product with one factor per symbol
    power.  `ring` defaults to f's ring; a symbol of f missing from it must
    be assigned.
    """
    target = f.ring if ring is None else ring
    out = target.zero()
    for e, c in f.coefficients().items():
        term = target.const(c)
        for name, k in zip(f.ring.syms, e):
            if name not in assignment:
                value = target.sym(name)
            elif isinstance(assignment[name], Polynomial):
                value = assignment[name].cast(target)
            else:
                value = target.const(assignment[name])
            for _ in range(k):
                term = term * value
        out = out + term
    return out


def h_complete(ring: PolyRing, degree: int, names) -> Polynomial:
    """Complete homogeneous symmetric polynomial of the given degree."""
    out = ring.zero()
    if degree >= 0:
        for combo in combinations_with_replacement(names, degree):
            out = out + ring.monomial(Counter(combo))
    return out


def divided_difference(f: Polynomial, var: str, fresh: tuple[str, str],
                       ring: PolyRing | None = None) -> Polynomial:
    """First divided difference: q with f(z1) - f(z2) = (z1 - z2) * q."""
    if ring is None:
        extra = [n for n in fresh if n not in f.ring.vars]
        ring = PolyRing(f.ring.vars + tuple(extra), f.ring.params)
    return divided_differences(f, var, list(fresh), ring)[0]


def reduces_to_zero(f: Polynomial, I: Ideal) -> bool:
    """Membership test: f in I (local: up to a unit, which is what germs need)."""
    if f.is_zero():
        return True
    return not _kernel.normal_form(f.terms, standard_basis(I), I.local)


def sign_of(partition: tuple[int, ...]) -> int:
    """Sign of a permutation of this cycle type."""
    k = sum(partition)
    return -1 if (k - len(partition)) % 2 else 1


def is_immersive(germ) -> bool:
    """True iff some component has a nonzero dg/dz at 0 (the germ has corank 0)."""
    return any(g.deriv(germ.zvar).constant_term() for g in germ.components)
