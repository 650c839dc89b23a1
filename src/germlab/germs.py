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
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import factorial, gcd, lcm

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

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # a key of witness_check's caches, hashed on every call: kept in the
        # instance __dict__, outside the fields, so == and `replace` ignore it
        return hash((self.n, self.p, self.ring, self.components, self.name))

    def __getstate__(self) -> dict:
        # pickle and deepcopy carry the fields only: a string's hash differs
        # between processes, so the copy hashes afresh
        return {f.name: getattr(self, f.name) for f in fields(self)}

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


# -- weighted homogeneity --------------------------------------------------


def positive_weights(germ: GermCorank1) -> tuple[int, ...] | None:
    """Positive weights, one per symbol of germ.ring (variables, then
    parameters), that make every component weighted homogeneous; None when
    there are none.

    Two terms of one component have equal weighted degree, so the weights
    form the nullspace over Q of the differences of their exponents.  A
    point of that nullspace with every weight at least 1 is found by
    Fourier-Motzkin elimination, or shown not to exist.  The answer is
    scaled to coprime integers.
    """
    nsyms = germ.ring.nsyms
    rows = []
    for g in germ.components:
        exps = list(g.terms)
        rows.extend([Fraction(a - b) for a, b in zip(e, exps[0])] for e in exps[1:])
    pivots: list[int] = []  # reduced row echelon form, pivot columns in order
    for c in range(nsyms):
        i = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        piv = rows.pop(i)
        piv = [x / piv[c] for x in piv]
        rows = [[x - r[c] * y for x, y in zip(r, piv)] for r in rows]
        rows.insert(len(pivots), piv)
        pivots.append(c)
    free = [c for c in range(nsyms) if c not in pivots]
    # the weight of symbol j is sum_f basis[j][f] * lam_f over the free columns f
    basis = [[Fraction(j == f) for f in free] for j in range(nsyms)]
    for r, c in zip(rows, pivots):
        basis[c] = [-r[f] for f in free]
    lam = _point_above_one(basis, len(free))
    if lam is None:
        return None
    w = [sum(b * x for b, x in zip(row, lam)) for row in basis]
    scale = lcm(*(x.denominator for x in w))
    ints = [int(x * scale) for x in w]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _point_above_one(rows: list[list[Fraction]], m: int) -> list[Fraction] | None:
    """A point lam of Q^m with row . lam >= 1 for every row, or None.

    Fourier-Motzkin: eliminate lam_(m-1), ..., lam_0 in turn, keeping each
    stage's system, then choose lam_0, lam_1, ... back up the stages, each
    at the largest lower bound its stage leaves (or its smallest upper bound).
    """
    system = {(tuple(r), Fraction(1)) for r in rows}
    stages = []
    for j in reversed(range(m)):
        stages.append(system)
        low = [c for c in system if c[0][j] > 0]
        high = [c for c in system if c[0][j] < 0]
        system = {c for c in system if not c[0][j]}
        for a, ra in low:
            for b, rb in high:
                s, t = -b[j], a[j]
                coeffs = tuple(s * x + t * y for x, y in zip(a, b))
                lead = next((abs(x) for x in coeffs if x), 1)  # one form per constraint
                system.add((tuple(x / lead for x in coeffs), (s * ra + t * rb) / lead))
    if any(rhs > 0 for _, rhs in system):
        return None
    lam: list[Fraction] = []
    for j, stage in enumerate(reversed(stages)):
        bounds = [((rhs - sum(x * y for x, y in zip(a, lam))) / a[j], a[j] > 0)
                  for a, rhs in stage if a[j]]
        lows = [b for b, is_low in bounds if is_low]
        highs = [b for b, is_low in bounds if not is_low]
        lam.append(max(lows) if lows else min(highs, default=Fraction(0)))
    return lam


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
