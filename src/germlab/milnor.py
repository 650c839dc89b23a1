"""Milnor and Tjurina numbers of isolated complete intersection germs.

`mu_chain` is the one Milnor computation.  A hypersurface's mu is the
colength of its Jacobian ideal; otherwise the Le-Greuel chain
mu(g_1..g_m) + mu(g_1..g_{m-1}) = colength(<g_1..g_{m-1}> + maximal Jacobian
minors) recurses down to a hypersurface or to dimension zero, where mu is
the colength of the ideal minus one (reduced point count of a generic fiber).
`milnor` is the one map from a certified space to its mu: the mu the
finiteness sweep measured (smooth, dimension zero or a hypersurface), else
`mu_chain` on the reduced generators.  The analyzer calls it on the spaces
the sweep has certified; `milnor_icis` is the entry point for any germ: it
classifies the germ with the sweep's own check, then calls `milnor` and
adds a hypersurface's Tjurina number.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .germs import EMPTY, ICIS, VIOLATION, SpaceStatus, _isolated_after_reduction
from .ideals import (INF, Ideal, colength, germ_is_empty, jacobian,
                     jacobian_ideal, local_dimension, minors, singular_locus_ideal)
from .linalg import rank_q
from .poly import Polynomial, PolyRing, eliminate_linear


class NonIcisError(ValueError):
    """Dimension differs from the expected one."""


class NonIsolatedError(ValueError):
    """A colength came out infinite: the singularity is not isolated."""


class EmptyGermError(ValueError):
    pass


@dataclass
class IcisReport:
    dim: int
    milnor: int
    tjurina: int | None
    is_smooth: bool
    is_A1: bool


def mu_chain(gens: list[Polynomial], ring: PolyRing, dim: int, rng: random.Random,
             depth: int = 0) -> int:
    """Milnor number of the ICIS germ cut out by `gens`, of dimension `dim`.

    The caller vouches that the germ is nonempty and of that dimension.  A
    deletion order that fails is skipped; if all fail, the tuple is mixed by
    random invertible matrices drawn from `rng`, so a seeded rng gives the
    same answer.
    """
    m = len(gens)
    if m == 0:
        return 0
    if m == 1 and dim == ring.nvars - 1:
        c = colength(jacobian_ideal(gens[0]))
        if c == INF:
            raise NonIsolatedError("infinite Jacobian colength")
        return c
    if dim == 0:
        c = colength(Ideal.of(gens, local=True))
        if c == INF:
            raise NonIsolatedError("expected dimension 0 but colength infinite")
        return c - 1
    if dim != ring.nvars - m:
        raise NonIcisError(f"{m} equations in {ring.nvars} variables cannot have dim {dim}")
    full_minors = minors(jacobian(gens, ring.vars), m)
    last_error: Exception | None = None
    for j in reversed(range(m)):
        rest = gens[:j] + gens[j + 1:]
        try:
            if rest:
                I_rest = Ideal.of(rest, local=True)
                if germ_is_empty(I_rest) or local_dimension(I_rest) != dim + 1:
                    raise NonIcisError("deleted tuple has wrong dimension")
                c = colength(I_rest.with_extra(full_minors))
            else:
                c = colength(Ideal.of(full_minors, local=True))
            if c == INF:
                raise NonIsolatedError("Le-Greuel colength infinite")
            mu_rest = mu_chain(rest, ring, dim + 1, rng, depth + 1)
            return c - mu_rest
        except (NonIcisError, NonIsolatedError) as exc:
            last_error = exc
            continue
    if depth == 0:
        # retry after mixing the generator tuple by a random invertible matrix
        for _ in range(4):
            mixed = _random_mix(gens, ring, rng)
            try:
                return mu_chain(mixed, ring, dim, rng, depth + 1)
            except (NonIcisError, NonIsolatedError) as exc:
                last_error = exc
    raise last_error if last_error else NonIsolatedError("Le-Greuel chain failed")


def _random_mix(gens: list[Polynomial], ring: PolyRing, rng: random.Random):
    m = len(gens)
    while True:
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)]
        if rank_q(rows) == m:
            break
    return [sum((gens[j] * rows[i][j] for j in range(m)), ring.zero()) for i in range(m)]


def milnor(st: SpaceStatus, rng: random.Random) -> int:
    """Milnor number of a space the finiteness check certified as an ICIS.

    The check measured mu of a smooth or zero-dimensional space and of a
    hypersurface; otherwise the Le-Greuel chain runs on the reduced generators.
    """
    if st.mu is not None:
        return st.mu
    return mu_chain(list(st.reduced.gens), st.reduced.ring, st.dim, rng)


def milnor_icis(I: Ideal, expected_dim: int, rng: random.Random | None = None) -> IcisReport:
    """Invariants of the germ defined by I, checked against its expected dimension.

    The check is the finiteness sweep's own classifier; a hypersurface left
    after linear elimination also gets its Tjurina number.
    """
    if not I.local:
        raise ValueError("milnor_icis works on germs (local ideals)")
    st = _isolated_after_reduction(I, eliminate_linear(I.gens), expected_dim)
    if st.kind == EMPTY:
        raise EmptyGermError("empty germ")
    if st.kind == VIOLATION and st.dim == expected_dim:
        raise NonIsolatedError(st.reason)
    if st.kind != ICIS:
        raise NonIcisError(st.reason or f"expected dimension {expected_dim} is negative")
    mu = milnor(st, rng if rng is not None else random.Random(0))
    J = st.reduced
    tjurina = 0 if J is None else None
    if J is not None and len(J.gens) == 1 and st.dim > 0:
        tjurina = colength(singular_locus_ideal(J))  # at most mu, so finite
    return IcisReport(dim=st.dim, milnor=mu, tjurina=tjurina, is_smooth=(mu == 0),
                      is_A1=(st.dim > 0 and mu == 1))
