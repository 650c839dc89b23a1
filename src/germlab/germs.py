"""Corank-one map germs and their multiple point spaces.

A germ (C^n,0) -> (C^p,0), n < p, in prenormal form (x, g_1, ..., g_{p-n+1})
with dg_i/dz(0) = 0.  The k-th multiple point space lives in the variables
(x_1..x_{n-1}, z_1..z_k); its ideal is generated by the iterated divided
differences of every g_i plus, for a permutation of cycle type (r_1..r_m),
the differences z_a - z_b gluing consecutive entries of each cycle block.
Only those gluing equations depend on the permutation, so `build_Dk` takes
the divided differences once per k and yields the ideal of every
D^k(f)^sigma, one per cycle type.  `marar_mond_check` sweeps k and certifies
each space with `milnor`'s classifier, which eliminates a nonempty space
from its own generators and measures its mu.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate
from math import factorial

from .ideals import Ideal
from .milnor import EMPTY, VIOLATION, SpaceStatus, _isolated_after_reduction
from .poly import Polynomial, PolyRing, divided_differences


class GermError(ValueError):
    pass


@dataclass(frozen=True)
class GermCorank1:
    """Monogerm (x, g_1..g_{p-n+1}) with designated corank variable z."""

    n: int
    p: int
    ring: PolyRing  # vars = (x_1..x_{n-1}, z); params allowed
    components: tuple[Polynomial, ...]  # the nonlinear components g_i
    name: str = ""

    def __post_init__(self):
        if not self.n < self.p:
            raise GermError("need n < p")
        if len(self.ring.vars) != self.n:
            raise GermError(f"expected {self.n} variables, got {self.ring.vars}")
        if len(self.components) != self.p - self.n + 1:
            raise GermError(
                f"expected {self.p - self.n + 1} nonlinear components, got {len(self.components)}"
            )
        for g in self.components:
            if g.ring != self.ring:
                raise GermError("component in a different ring")
            if g.constant_term():
                raise GermError("component does not vanish at the origin (parameters at 0)")
        # a nonzero dg/dz(0) is allowed: the germ is then immersive (corank 0)
        # and every multiple point space comes out empty.

    @property
    def xvars(self) -> tuple[str, ...]:
        return self.ring.vars[:-1]

    @property
    def zvar(self) -> str:
        return self.ring.vars[-1]

    def at_params(self, assignment) -> "GermCorank1":
        """Substitute every parameter by a rational; the result is parameter-free."""
        if not self.ring.params:
            return self
        comps = tuple(g.subs_params(assignment) for g in self.components)
        ring = comps[0].ring
        return GermCorank1(self.n, self.p, ring, comps, self.name)


# -- partitions of k -------------------------------------------------------


@lru_cache(maxsize=None)
def partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """Weakly decreasing partitions of k; identity partition (1,..,1) first."""
    out: list[tuple[int, ...]] = []

    def rec(rest, maxpart, prefix):
        if rest == 0:
            out.append(prefix)
            return
        for r in range(min(rest, maxpart), 0, -1):
            rec(rest - r, r, prefix + (r,))

    rec(k, k, ())
    return tuple(sorted(out, key=lambda q: (len(q), q), reverse=True))


def sigma_sharp(partition: tuple[int, ...]) -> int:
    return len(partition)


def class_size(partition: tuple[int, ...]) -> int:
    """Number of permutations in Sigma_k with this cycle type."""
    k = sum(partition)
    denom = 1
    mult: dict[int, int] = {}
    for r in partition:
        denom *= r
        mult[r] = mult.get(r, 0) + 1
    for m in mult.values():
        denom *= factorial(m)
    return factorial(k) // denom


def expected_dims(n: int, p: int, k: int, partition: tuple[int, ...]):
    """(d_k, d_k^sigma, sigma^#) for the cycle type `partition` of k."""
    if sum(partition) != k:
        raise GermError(f"{partition} is not a partition of {k}")
    sharp = len(partition)
    d_k = p - k * (p - n)
    return d_k, d_k - k + sharp, sharp


# -- D^k construction ------------------------------------------------------


def build_Dk(germ: GermCorank1, k: int) -> Iterator[tuple[tuple[int, ...], Ideal]]:
    """(partition, ideal of D^k(f)^sigma) for the canonical sigma of every cycle type of k.

    In `partitions(k)` order, the identity (D^k itself) first.  The divided
    differences are taken here, once; each cycle type only adds its gluing
    equations, built when the iteration reaches it.  The canonical sigma
    places its cycles on consecutive index blocks in decreasing length
    order, so its fixed locus is cut out by the sum(r_i - 1) differences
    z_a - z_(a+1) inside blocks.
    """
    if k < 2:
        raise GermError("multiple point spaces start at k = 2")
    zs = [f"{germ.zvar}{i}" for i in range(1, k + 1)]
    clash = set(zs) & set(germ.ring.syms)
    if clash:
        raise GermError(f"variable names {sorted(clash)} collide with z-copies")
    ring = PolyRing(germ.xvars + tuple(zs), germ.ring.params)
    z = [ring.sym(name) for name in zs]
    gens: list[Polynomial] = []
    for g in germ.components:
        gens.extend(divided_differences(g, germ.zvar, zs, ring))

    def spaces():
        for part in partitions(k):
            starts = set(accumulate(part))  # z_(a+1) opens a new block
            glue = [z[a] - z[a + 1] for a in range(k - 1) if a + 1 not in starts]
            yield part, Ideal(ring, tuple(gens + glue))

    return spaces()


# -- Marar-Mond finiteness criterion ---------------------------------------

SAFETY_CAP = 12  # the last k an uncapped sweep reaches


@dataclass
class MararMondReport:
    statuses: list[SpaceStatus]
    finite: bool
    first_empty_k: int | None

    def violations(self) -> list[SpaceStatus]:
        return [s for s in self.statuses if s.kind == VIOLATION]


def marar_mond_check(germ: GermCorank1, max_k: int | None = None) -> MararMondReport:
    """Status table over k and partitions; finite iff no violation.

    Iterates k = 2, 3, ... until the first empty D^k (emptiness is monotone
    in k); `max_k` caps the sweep and must be at least 2.  Every D^k(f)^sigma
    of one k comes from one `build_Dk`; the identity partition comes first
    and decides emptiness, so no gluing equation of an empty D^k is built.
    Every ICIS carries its mu, and each status depends on that space's
    ideal alone.  An uncapped sweep that reaches SAFETY_CAP without an
    empty D^k raises unless it has found a violation.
    """
    if germ.ring.params:
        raise GermError("substitute parameters before analysis")
    if max_k is not None and max_k < 2:
        raise GermError(f"max_k must be at least 2, got {max_k}")
    statuses: list[SpaceStatus] = []
    finite = True
    cap = max_k if max_k is not None else SAFETY_CAP
    for k in range(2, cap + 1):
        for part, ideal in build_Dk(germ, k):
            _, d_sigma, sharp = expected_dims(germ.n, germ.p, k, part)
            st = replace(_isolated_after_reduction(ideal, d_sigma),
                         k=k, partition=part, sigma_sharp=sharp)
            statuses.append(st)
            if st.kind == VIOLATION:
                finite = False
            if st.kind == EMPTY and part == (1,) * k:
                return MararMondReport(statuses, finite, k)
    if max_k is None and finite:
        raise GermError("no empty multiple point space up to the safety cap; "
                        "is the germ finite?")
    return MararMondReport(statuses, finite, None)
