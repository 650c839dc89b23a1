"""Exact multivariate polynomials over Q with named variables and parameters.

A ring declares an ordered variable list plus a (possibly empty) list of
parameter names.  Parameters are transcendental scalars: they take part in
arithmetic exactly like variables, but differentiation, divided differences
and the basis engines act on true variables only.  Coefficients are
`fractions.Fraction`; nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import add
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]


class PolyError(ValueError):
    pass


@dataclass(frozen=True)
class PolyRing:
    """Ordered symbol table: germ variables first, then parameters."""

    vars: tuple[str, ...]
    params: tuple[str, ...] = ()

    def __post_init__(self):
        syms = self.vars + self.params
        if len(set(syms)) != len(syms):
            raise PolyError(f"duplicate symbol in ring {syms}")

    @property
    def syms(self) -> tuple[str, ...]:
        return self.vars + self.params

    @property
    def nvars(self) -> int:
        return len(self.vars)

    @property
    def nsyms(self) -> int:
        return len(self.vars) + len(self.params)

    def index(self, name: str) -> int:
        try:
            return self.syms.index(name)
        except ValueError:
            raise PolyError(f"unknown symbol {name!r} in ring {self.syms}") from None

    def var_index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise PolyError(f"{name!r} is not a variable of {self.vars}") from None

    def drop_vars(self, names: Iterable[str]) -> "PolyRing":
        dead = set(names)
        return PolyRing(tuple(v for v in self.vars if v not in dead), self.params)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def const(self, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nsyms: c})

    def sym(self, name: str) -> "Polynomial":
        e = [0] * self.nsyms
        e[self.index(name)] = 1
        return Polynomial(self, {tuple(e): Fraction(1)})

    def monomial(self, exps: Mapping[str, int], coeff: Scalar = 1) -> "Polynomial":
        e = [0] * self.nsyms
        for name, k in exps.items():
            e[self.index(name)] = k
        return Polynomial(self, {tuple(e): Fraction(coeff)})


class Polynomial:
    """Immutable sparse polynomial: exponent tuple (over ring.syms) -> Fraction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple, Scalar], _clean=False):
        self.ring = ring
        if _clean:
            self.terms = dict(terms)
        else:
            clean = {}
            for e, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    clean[tuple(e)] = c
            self.terms = clean

    # -- predicates / accessors ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.ring.nsyms, Fraction(0))

    def degree_in(self, name: str) -> int:
        i = self.ring.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def involves(self, name: str) -> bool:
        i = self.ring.index(name)
        return any(e[i] for e in self.terms)

    def uses_params(self) -> bool:
        nv = self.ring.nvars
        return any(any(e[nv:]) for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise PolyError("mixed rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, 0) + c
            if s:
                res[e] = s
            else:
                res.pop(e, None)
        return Polynomial(self.ring, res, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self.ring.zero()
            return Polynomial(self.ring, {e: v * c for e, v in self.terms.items()}, _clean=True)
        self._check(other)
        res: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = res.get(e, 0) + c1 * c2
                if s:
                    res[e] = s
                else:
                    res.pop(e, None)
        return Polynomial(self.ring, res, _clean=True)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PolyError("negative exponent")
        out = self.ring.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        from .parse import to_string

        return f"Polynomial({to_string(self)!r})"

    # -- calculus / substitution ------------------------------------------

    def deriv(self, name: str) -> "Polynomial":
        i = self.ring.var_index(name)
        res = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                res[tuple(e2)] = c * e[i]
        return Polynomial(self.ring, res)

    def subs(self, assignment: Mapping[str, Union["Polynomial", Scalar]],
             ring: PolyRing | None = None) -> "Polynomial":
        """Substitute symbols by polynomials or scalars (exact expansion).

        `ring` is the target ring; defaults to this one.  Symbols of the
        source ring missing from the target must be assigned.

        Works on the term dict directly: an unassigned symbol keeps its
        exponent at its index in the target ring, a scalar value v folds
        into the coefficient as c * v^k, and only polynomial values are
        expanded.  Terms are grouped by their exponents in the polynomial-
        valued symbols, so each group costs one product of cached powers.
        """
        target = ring if ring is not None else self.ring
        keep: list[tuple[int, int]] = []     # (source index, target index)
        scalars: list[tuple[int, Fraction]] = []
        polys: list[tuple[int, Polynomial]] = []
        for i, name in enumerate(self.ring.syms):
            if name not in assignment:
                keep.append((i, target.index(name)))
                continue
            v = assignment[name]
            if isinstance(v, Polynomial):
                polys.append((i, v if v.ring == target else v.cast(target)))
            else:
                scalars.append((i, Fraction(v)))
        n = target.nsyms
        groups: dict[tuple, dict[tuple, Fraction]] = {}
        for e, c in self.terms.items():
            for i, v in scalars:
                if e[i]:
                    c *= v ** e[i]
            if not c:
                continue
            moved = [0] * n
            for i, j in keep:
                moved[j] = e[i]
            moved = tuple(moved)
            group = groups.setdefault(tuple(e[i] for i, _ in polys), {})
            s = group.get(moved)
            group[moved] = c if s is None else s + c
        powers = [[v] for _, v in polys]  # powers[slot][k - 1] = value ** k

        def power(slot: int, k: int) -> Polynomial:
            cached = powers[slot]
            while len(cached) < k:
                cached.append(cached[-1] * cached[0])
            return cached[k - 1]

        out: dict[tuple, Fraction] = {}
        for key, group in groups.items():
            factor = None
            for slot, k in enumerate(key):
                if k:
                    factor = power(slot, k) if factor is None else factor * power(slot, k)
            if factor is None:
                for e, c in group.items():
                    s = out.get(e)
                    out[e] = c if s is None else s + c
                continue
            for f, d in factor.terms.items():
                for e, c in group.items():
                    e = tuple(map(add, e, f))
                    c *= d
                    s = out.get(e)
                    out[e] = c if s is None else s + c
        return Polynomial(target, {e: c for e, c in out.items() if c}, _clean=True)

    def subs_params(self, assignment: Mapping[str, Scalar]) -> "Polynomial":
        """Substitute every parameter by a rational; result is parameter-free."""
        missing = [q for q in self.ring.params if q not in assignment]
        if missing:
            have = {q for q in self.ring.params if self.involves(q)}
            missing = [q for q in missing if q in have]
            if missing:
                raise PolyError(f"unassigned parameters {missing}")
        target = PolyRing(self.ring.vars, ())
        full = {q: Fraction(assignment.get(q, 0)) for q in self.ring.params}
        return self.subs(full, ring=target)

    def cast(self, ring: PolyRing) -> "Polynomial":
        """Re-express in another ring; every used symbol must exist there."""
        if ring == self.ring:
            return self
        pos = []
        for i, name in enumerate(self.ring.syms):
            pos.append(ring.syms.index(name) if name in ring.syms else -1)
        res = {}
        for e, c in self.terms.items():
            e2 = [0] * ring.nsyms
            for i, k in enumerate(e):
                if k:
                    if pos[i] < 0:
                        raise PolyError(f"symbol {self.ring.syms[i]!r} absent from target ring")
                    e2[pos[i]] = k
            res[tuple(e2)] = res.get(tuple(e2), 0) + c
        return Polynomial(ring, res)

    def var_exponents(self) -> dict[tuple, Fraction]:
        """Terms keyed by variable exponents only; raises if parameters occur."""
        if self.uses_params():
            raise PolyError("polynomial still carries parameters")
        nv = self.ring.nvars
        return {e[:nv]: c for e, c in self.terms.items()}


# -- symmetric helpers and divided differences ----------------------------


@lru_cache(maxsize=1024)
def _monomials(nsyms: int, idx: tuple[int, ...], degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of all monomials of the given degree in the symbols idx."""
    out = []
    for combo in combinations_with_replacement(idx, degree):
        e = [0] * nsyms
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(out)


def h_complete(ring: PolyRing, degree: int, names: Iterable[str]) -> Polynomial:
    """Complete homogeneous symmetric polynomial of the given degree."""
    if degree < 0:
        return ring.zero()
    idx = tuple(ring.index(n) for n in names)
    one = Fraction(1)
    return Polynomial(ring, dict.fromkeys(_monomials(ring.nsyms, idx, degree), one), _clean=True)


def divided_differences(f: Polynomial, var: str, fresh: list[str],
                        ring: PolyRing) -> list[Polynomial]:
    """Iterated divided differences of f in `var` over fresh variables.

    Returns [F_1, ..., F_{k-1}] where k = len(fresh) and F_j is the j-th
    divided difference, a symmetric polynomial in fresh[0..j].  Uses the
    identity that the j-th divided difference of var^m is the complete
    homogeneous polynomial of degree m-j in the fresh variables: a term
    c * x^a * var^m of f puts c on x^a * mu in F_j for every monomial mu of
    degree m-j in fresh[0..j].  Distinct (a, m, mu) give distinct monomials,
    so each F_j is written straight into its term dict.
    """
    k = len(fresh)
    if k < 2:
        raise PolyError("need at least two fresh variables")
    for name in fresh:
        if name in f.ring.syms and f.involves(name):
            raise PolyError(f"fresh variable {name!r} already occurs in the polynomial")
    zi = f.ring.index(var)
    zs = tuple(ring.index(name) for name in fresh)
    where = {i: ring.syms.index(name) for i, name in enumerate(f.ring.syms) if name in ring.syms}
    split = []  # (x^a as a target exponent, m, c) for each term c * x^a * var^m
    for e, c in f.terms.items():
        base = [0] * ring.nsyms
        for i, a in enumerate(e):
            if a and i != zi:
                if i not in where:
                    raise PolyError(f"symbol {f.ring.syms[i]!r} absent from target ring")
                base[where[i]] = a
        split.append((tuple(base), e[zi], c))
    out = []
    for j in range(1, k):
        terms = {}
        for base, m, c in split:
            if m >= j:
                for mu in _monomials(ring.nsyms, zs[: j + 1], m - j):
                    terms[tuple(map(add, base, mu))] = c
        out.append(Polynomial(ring, terms, _clean=True))
    return out


def divided_difference(f: Polynomial, var: str, fresh: tuple[str, str],
                       ring: PolyRing | None = None) -> Polynomial:
    """First divided difference: q with f(z1) - f(z2) = (z1 - z2) * q."""
    if ring is None:
        extra = [n for n in fresh if n not in f.ring.vars]
        ring = PolyRing(f.ring.vars + tuple(extra), f.ring.params)
    return divided_differences(f, var, list(fresh), ring)[0]


# -- linear elimination ----------------------------------------------------


@dataclass
class Elimination:
    """Result of iterated graph-style elimination of linear variables.

    `subs` is triangular: each solution is recorded as it was solved, so it
    may involve variables eliminated after it, never ones eliminated before.
    `gens` holds no zero polynomial: zeros are dropped at every step, and
    casting to the smaller ring cannot cancel terms, so callers need not
    filter them again.
    """

    gens: list[Polynomial]
    subs: dict[str, Polynomial]
    ring: PolyRing  # ring on the surviving variables


def _linear_candidates(g: Polynomial) -> list[str]:
    """Variables occurring in g only once, linearly, with a constant coefficient."""
    ring = g.ring
    nv = ring.nvars
    seen: dict[int, list] = {}
    for e, c in g.terms.items():
        for i in range(nv):
            if e[i]:
                seen.setdefault(i, []).append((e, c))
    out = []
    for i, occs in seen.items():
        if len(occs) == 1:
            e, _ = occs[0]
            if e[i] == 1 and sum(e) == 1:  # pure constant-coefficient linear term
                out.append(ring.vars[i])
    return out


def eliminate_linear(gens: Iterable[Polynomial]) -> Elimination:
    """Repeatedly solve a generator that is linear in a variable and substitute.

    A variable is eliminable from a generator g when it appears in g exactly
    once, to the first power and with a coefficient in Q*, so that solving is
    an exact polynomial coordinate change.  Generators that become zero are
    dropped.  The substitution map is left triangular (see `Elimination`):
    the relations v - subs[v] together with the output generators still cut
    out the input ideal.
    """
    gens = [g for g in gens]
    if not gens:
        raise PolyError("no generators")
    ring = gens[0].ring
    subs: dict[str, Polynomial] = {}
    live = [g for g in gens if not g.is_zero()]
    while True:
        pick = None
        for idx, g in enumerate(live):
            names = _linear_candidates(g)
            if names:
                # prefer the latest-declared variable (keeps early ones as coordinates)
                name = max(names, key=ring.var_index)
                pick = (idx, name)
                break
        if pick is None:
            break
        idx, name = pick
        g = live.pop(idx)
        i = ring.index(name)
        coef = None
        rest = {}
        for e, c in g.terms.items():
            if e[i]:
                coef = c
            else:
                rest[e] = c
        sol = Polynomial(ring, rest) * (Fraction(-1) / coef)
        repl = {name: sol}
        live = [h.subs(repl) for h in live]
        live = [h for h in live if not h.is_zero()]
        subs[name] = sol
    out_ring = ring.drop_vars(subs.keys())
    out = [g.cast(out_ring) for g in live]
    return Elimination(out, subs, out_ring)
