"""Milnor and Tjurina numbers of isolated complete intersection germs, and
the classifier that certifies a multiple point space as one.

`mu_chain` is the one Milnor computation.  A hypersurface's mu is the
colength of its Jacobian ideal; otherwise the Le-Greuel chain
mu(g_1..g_m) + mu(g_1..g_{m-1}) = colength(<g_1..g_{m-1}> + maximal Jacobian
minors) recurses, one dimension up per step, to a hypersurface, so it
starts at dimension one or more.  `_isolated_after_reduction`, the finiteness sweep's
classifier, eliminates a nonempty space once, measures one of dimension 0
itself (colength minus one) and runs the chain on every positive-dimensional
one of the expected dimension, so each ICIS it certifies carries its mu and a
finite chain certifies isolatedness.  mu does not depend on the generators
that cut the germ out, so when every deletion order fails on an isolated
singularity the classifier retries on four fixed invertible recombinations
of them; a space's status depends on its ideal alone.  `milnor_icis`
classifies any germ with that classifier and adds a hypersurface's Tjurina
number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .ideals import (INF, Ideal, colength, germ_is_empty, jacobian, local_dimension,
                     minors, singular_locus_ideal)
from .poly import Polynomial, PolyRing, eliminate_linear

EMPTY = "EMPTY"
ICIS = "ICIS"
ORIGIN = "ORIGIN"
VIOLATION = "VIOLATION"


class NonIcisError(ValueError):
    """Dimension differs from the expected one."""


class NonIsolatedError(ValueError):
    """A colength came out infinite: the singularity is not isolated."""


class EmptyGermError(ValueError):
    pass


@dataclass
class SpaceStatus:
    """What the finiteness check found out about one germ of expected dimension.

    The answers are final: every ICIS carries its Milnor number, so the
    invariant step reads it instead of checking the space again.  The sweep
    adds the space's place in it: k, the cycle type and sigma^#.
    """

    expected_dim: int
    kind: str
    dim: int | None = None
    reason: str = ""
    # Milnor number of an ICIS (0 when smooth, colength - 1 in dimension 0,
    # else the Le-Greuel chain's value); an ORIGIN's colength - 1
    mu: int | None = None
    k: int = 0
    partition: tuple[int, ...] = ()
    sigma_sharp: int = 0


@dataclass
class IcisReport:
    dim: int
    milnor: int
    tjurina: int | None
    is_smooth: bool
    is_A1: bool


def mu_chain(gens: list[Polynomial], ring: PolyRing, dim: int) -> int:
    """Milnor number of the ICIS germ cut out by `gens`, of dimension `dim` >= 1.

    The caller vouches that the germ is nonempty and of that dimension.  No
    generators or a dimension below 1 raise NonIcisError: the classifier
    measures those spaces itself.  A deletion order that fails is skipped;
    if all fail, the last error is raised.
    """
    m = len(gens)
    if not gens or dim < 1:
        raise NonIcisError(f"the chain needs generators and dimension >= 1, got {m} and {dim}")
    if m == 1 and dim == ring.nvars - 1:
        c = colength(Ideal.of(jacobian(gens, ring.vars)[0], local=True))
        if c == INF:
            raise NonIsolatedError("infinite Jacobian colength")
        return c
    if dim != ring.nvars - m:
        raise NonIcisError(f"{m} equations in {ring.nvars} variables cannot have dim {dim}")
    full_minors = minors(jacobian(gens, ring.vars), m)
    for j in reversed(range(m)):
        rest = gens[:j] + gens[j + 1:]
        I_rest = Ideal.of(rest, local=True)
        try:
            if germ_is_empty(I_rest) or local_dimension(I_rest) != dim + 1:
                raise NonIcisError("deleted tuple has wrong dimension")
            c = colength(I_rest.with_extra(full_minors))
            if c == INF:
                raise NonIsolatedError("Le-Greuel colength infinite")
            return c - mu_chain(rest, ring, dim + 1)
        except (NonIcisError, NonIsolatedError) as exc:
            last_error = exc
    raise last_error


def _isolated_after_reduction(ideal: Ideal, expected_dim: int) -> SpaceStatus:
    """Classify the germ of a local ideal: EMPTY / ICIS / ORIGIN / VIOLATION.

    An empty germ is never eliminated; a nonempty one is eliminated once,
    from its own generators.  A non-smooth space of expected dimension at
    most 0 is measured by the colength of its eliminated presentation; one
    of positive expected dimension by `mu_chain`.  A finite chain bounds the
    singular locus, so only a failed chain consults it: for a single
    generator g the chain is colength(dg), which is infinite exactly when the
    singularity is not isolated (near 0 the critical locus lies in g = 0, by
    curve selection); with more generators an infinite singular-locus
    colength is a violation.  Only an isolated singularity is retried, on
    four Vandermonde recombinations of its generators (rows a^0 .. a^(m-1)
    on the nodes a = t*m + 1 .. t*m + m, t = 0..3); if all four fail, the
    last chain's error is raised.
    """
    status = partial(SpaceStatus, expected_dim)
    if germ_is_empty(ideal):
        return status(EMPTY)
    # substituting solutions without constant term keeps the germ nonempty
    elim = eliminate_linear(ideal.gens)
    gens = elim.gens
    if not gens:
        dim = elim.ring.nvars
        if expected_dim < 0:
            return status(ORIGIN, 0) if dim == 0 else status(VIOLATION, dim, "positive-dimensional")
        if dim == expected_dim:
            return status(ICIS, dim, "smooth", mu=0)
        return status(VIOLATION, dim, f"smooth of dimension {dim}")
    J = Ideal.of(gens, local=True)
    if expected_dim <= 0:
        # finite colength certifies dimension 0 without a full basis
        c = colength(J)
        if c == INF:
            dim = local_dimension(J)
            want = "at most the origin" if expected_dim < 0 else "dimension 0"
            return status(VIOLATION, dim, f"dimension {dim}, should be {want}")
        return status(ORIGIN if expected_dim < 0 else ICIS, 0, mu=c - 1)
    dim = local_dimension(J)
    if dim != expected_dim:
        return status(VIOLATION, dim, f"dimension {dim} instead of {expected_dim}")
    try:
        return status(ICIS, dim, mu=mu_chain(gens, elim.ring, dim))
    except (NonIcisError, NonIsolatedError) as exc:
        if len(gens) == 1 or colength(singular_locus_ideal(J)) == INF:
            return status(VIOLATION, dim, "non-isolated singular locus")
        error = exc
    # mu does not depend on the generators chosen: retry on Vandermonde
    # recombinations, invertible since their nodes t*m + 1 .. t*m + m differ
    m = len(gens)
    for t in range(4):
        mixed = [sum((g * a ** j for j, g in enumerate(gens)), elim.ring.zero())
                 for a in range(t * m + 1, t * m + m + 1)]
        try:
            return status(ICIS, dim, mu=mu_chain(mixed, elim.ring, dim))
        except (NonIcisError, NonIsolatedError) as exc:
            error = exc
    raise error


def milnor_icis(I: Ideal, expected_dim: int) -> IcisReport:
    """Invariants of the germ defined by I, checked against its expected dimension.

    The check is the finiteness sweep's own classifier; a hypersurface left
    after linear elimination also gets its Tjurina number.
    """
    if not I.local:
        raise ValueError("milnor_icis works on germs (local ideals)")
    st = _isolated_after_reduction(I, expected_dim)
    if st.kind == EMPTY:
        raise EmptyGermError("empty germ")
    if st.kind == VIOLATION and st.dim == expected_dim:
        raise NonIsolatedError(st.reason)
    if st.kind != ICIS:
        raise NonIcisError(st.reason or f"expected dimension {expected_dim} is negative")
    elim = eliminate_linear(I.gens)  # for the Tjurina step only
    tjurina = 0 if not elim.gens else None
    if len(elim.gens) == 1 and st.dim > 0:
        tjurina = colength(singular_locus_ideal(Ideal.of(elim.gens)))  # at most mu, so finite
    return IcisReport(dim=st.dim, milnor=st.mu, tjurina=tjurina, is_smooth=(st.mu == 0),
                      is_A1=(st.dim > 0 and st.mu == 1))
