"""Exact multivariate polynomials over Q with named variables and parameters.

A ring declares an ordered variable list plus a (possibly empty) list of
parameter names.  Parameters are transcendental scalars: they take part in
arithmetic exactly like variables, but differentiation, divided differences
and the basis engines act on true variables only.

A polynomial is stored fraction-free: integer numerators over one common
positive denominator `den`, with gcd(content, den) = 1, so every value has
exactly one form (most have den 1).  All arithmetic runs on Python ints;
`fractions.Fraction` appears only at the edges (`coefficients`,
`constant_term`).  Scalars are ints or Fractions; floats and bools are
refused, so nothing here ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]


class PolyError(ValueError):
    pass


def _scalar(c) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction; anything else is refused."""
    if isinstance(c, int) and not isinstance(c, bool):
        return c, 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    raise PolyError(f"scalars must be int or Fraction, got {type(c).__name__} {c!r}")


@dataclass(frozen=True)
class PolyRing:
    """Ordered symbol table: germ variables first, then parameters."""

    vars: tuple[str, ...]
    params: tuple[str, ...] = ()

    def __post_init__(self):
        syms = self.vars + self.params
        if len(set(syms)) != len(syms):
            raise PolyError(f"duplicate symbol in ring {syms}")
        # set once here, as attributes, not fields: == and hash see (vars, params) only
        object.__setattr__(self, "syms", syms)
        object.__setattr__(self, "nsyms", len(syms))

    @property
    def nvars(self) -> int:
        return len(self.vars)

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
        return _make(self, {})

    def const(self, c: Scalar) -> "Polynomial":
        return self.monomial({}, c)

    def sym(self, name: str) -> "Polynomial":
        return self.monomial({name: 1})

    def monomial(self, exps: Mapping[str, int], coeff: Scalar = 1) -> "Polynomial":
        num, den = _scalar(coeff)
        e = [0] * self.nsyms
        for name, k in exps.items():
            e[self.index(name)] = k
        return _make(self, {tuple(e): num} if num else {}, den)


def _make(ring: PolyRing, terms: dict, den: int = 1) -> "Polynomial":
    """Wrap nonzero int numerators over den > 0, dividing out gcd(content, den)."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {e: c // g for e, c in terms.items()}
            den //= g
    p = object.__new__(Polynomial)
    p.ring = ring
    p.terms = terms
    p.den = den
    return p


class Polynomial:
    """Immutable sparse polynomial: exponent tuple (over ring.syms) -> int, over `den`.

    The constructor takes int or Fraction coefficients; `terms` then holds
    the numerators over the common denominator `den`.  Never mutate `terms`.
    """

    __slots__ = ("ring", "terms", "den")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple, Scalar]):
        parts = {tuple(e): _scalar(c) for e, c in terms.items()}
        den = lcm(*(d for num, d in parts.values() if num))
        self.ring = ring
        self.terms = {e: num * (den // d) for e, (num, d) in parts.items() if num}
        self.den = den

    # -- predicates / accessors ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficients(self) -> dict[tuple, Fraction]:
        """The rational coefficients, keyed like `terms`."""
        den = self.den
        return {e: Fraction(c, den) for e, c in self.terms.items()}

    def constant_term(self) -> Fraction:
        return Fraction(self.terms.get((0,) * self.ring.nsyms, 0), self.den)

    def primitive(self) -> "Polynomial":
        """The positive multiple with integer coefficients of content 1."""
        g = gcd(*self.terms.values())
        terms = {e: c // g for e, c in self.terms.items()} if g > 1 else self.terms
        return _make(self.ring, terms)

    def degree_in(self, name: str) -> int:
        i = self.ring.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def involves(self, name: str) -> bool:
        i = self.ring.index(name)
        return any(e[i] for e in self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise PolyError("mixed rings")

    def _plus(self, other, sign: int) -> "Polynomial":
        """self + sign * other, other a polynomial or a scalar."""
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            res = dict(self.terms)
            den = d1
        else:
            g = gcd(d1, d2)
            a = d2 // g
            sign *= d1 // g
            res = {e: c * a for e, c in self.terms.items()}
            den = d1 * a
        for e, c in other.terms.items():
            s = res.get(e, 0) + sign * c
            if s:
                res[e] = s
            else:
                del res[e]
        return _make(self.ring, res, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.ring, {e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            num, den = _scalar(other)
            if not num:
                return self.ring.zero()
            terms = self.terms if num == 1 else {e: v * num for e, v in self.terms.items()}
            return _make(self.ring, terms, self.den * den)
        self._check(other)
        res: dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = res.get(e, 0) + c1 * c2
                if s:
                    res[e] = s
                else:
                    del res[e]
        return _make(self.ring, res, self.den * other.den)

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
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items()), self.den))

    def __repr__(self):
        from .parse import to_string

        return f"Polynomial({to_string(self)!r})"

    # -- calculus / substitution ------------------------------------------

    def deriv(self, name: str) -> "Polynomial":
        i = self.ring.var_index(name)
        res = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                res[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return _make(self.ring, res, self.den)

    def subs_params(self, assignment: Mapping[str, Scalar]) -> "Polynomial":
        """Substitute every parameter by a rational; result is parameter-free.

        A parameter left unassigned must not occur.  Numerators stay
        integers: a value N/q for a parameter whose top exponent is K puts
        N^k * q^(K-k) on a term of exponent k, and q^K on the common
        denominator.
        """
        ring = self.ring
        missing = [q for q in ring.params if q not in assignment and self.involves(q)]
        if missing:
            raise PolyError(f"unassigned parameters {missing}")
        nv = ring.nvars
        values = [_scalar(assignment.get(q, 0)) for q in ring.params]
        tops = [max((e[i] for e in self.terms), default=0) for i in range(nv, ring.nsyms)]
        den = self.den
        for (_, q), top in zip(values, tops):
            den *= q ** top
        out: dict[tuple, int] = {}
        for e, c in self.terms.items():
            for (num, q), k, top in zip(values, e[nv:], tops):
                c *= num ** k * q ** (top - k)
            out[e[:nv]] = out.get(e[:nv], 0) + c
        return _make(PolyRing(ring.vars, ()), {e: c for e, c in out.items() if c}, den)

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
            res[tuple(e2)] = c
        return _make(ring, res, self.den)


# -- divided differences ---------------------------------------------------


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
    n = ring.nsyms
    where = {i: ring.syms.index(name) for i, name in enumerate(f.ring.syms) if name in ring.syms}
    split = []  # (x^a as a target exponent, m, c) for each term c * x^a * var^m
    for e, c in f.terms.items():
        base = [0] * n
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
                for mu in _monomials(n, zs[: j + 1], m - j):
                    terms[tuple(map(add, base, mu))] = c
        out.append(_make(ring, terms, f.den))
    return out


# -- linear elimination ----------------------------------------------------


@dataclass
class Elimination:
    """Result of iterated graph-style elimination of linear variables.

    `subs` is triangular: each solution is recorded as it was solved, so it
    may involve variables eliminated after it, never ones eliminated before.
    `gens` holds no zero polynomial: zeros are dropped at every step, and
    the eliminated variables no longer occur, so dropping their coordinates
    cannot merge terms and callers need not filter them again.  Every generator is primitive (integer coefficients
    of content 1), a positive multiple of what exact substitution gives.
    """

    gens: list[Polynomial]
    subs: dict[str, Polynomial]
    ring: PolyRing  # ring on the surviving variables


def _linear_candidates(g: Polynomial) -> list[str]:
    """Variables occurring in g only once, linearly, with a constant coefficient."""
    ring = g.ring
    out = []
    for e in g.terms:
        if sum(e) == 1:
            i = e.index(1)
            if i < ring.nvars and sum(1 for f in g.terms if f[i]) == 1:
                out.append(ring.vars[i])
    return out


def _substitute(h: Polynomial, i: int, powers: list[Polynomial], q: int) -> Polynomial:
    """Primitive positive multiple of h with symbol i replaced by N/q.

    powers[k - 1] is N^k, extended here as needed.  A term c * x_i^k of h,
    K its top exponent in x_i, becomes c * q^(K-k) * N^k: one expansion per
    term, with no common denominator kept, since the content goes anyway.
    """
    top = max(e[i] for e in h.terms)
    while len(powers) < top:
        powers.append(powers[-1] * powers[0])
    out: dict[tuple, int] = {}
    for e, c in h.terms.items():
        k = e[i]
        if k < top:
            c *= q ** (top - k)
        if not k:
            out[e] = out.get(e, 0) + c
            continue
        base = e[:i] + (0,) + e[i + 1:]
        for f, d in powers[k - 1].terms.items():
            m = tuple(map(add, base, f))
            out[m] = out.get(m, 0) + c * d
    return _make(h.ring, {e: c for e, c in out.items() if c}).primitive()


def eliminate_linear(gens: Iterable[Polynomial]) -> Elimination:
    """Repeatedly solve a generator that is linear in a variable and substitute.

    A variable is eliminable from a generator g when it appears in g exactly
    once, to the first power and with a coefficient in Q*, so that solving is
    an exact polynomial coordinate change.  The first generator with such a
    variable is solved, for its latest-declared one.  Generators that become
    zero are dropped.  The substitution map is left triangular (see
    `Elimination`): the relations v - subs[v] together with the output
    generators still cut out the input ideal.

    Fraction-free (Bareiss): generators are kept primitive.  Solving c*x +
    rest for x gives x = -rest/c, and a generator h of degree d in x becomes
    |c|^d * h(x = -rest/c) divided by its positive content, expanded term by
    term against the cached powers of -rest.  Generators are only ever
    scaled by positive rationals, so signs of values, quadric signatures and
    root counts are those of exact substitution.
    """
    gens = [g for g in gens]
    if not gens:
        raise PolyError("no generators")
    ring = gens[0].ring
    subs: dict[str, Polynomial] = {}
    live = [g.primitive() for g in gens if not g.is_zero()]
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
        num = _make(ring, {e: -c for e, c in rest.items()} if coef > 0 else rest)
        powers = [num]
        live = [_substitute(h, i, powers, abs(coef)) if h.involves(name) else h for h in live]
        live = [h for h in live if not h.is_zero()]
        subs[name] = _make(ring, num.terms, abs(coef))
    out_ring = ring.drop_vars(subs)
    keep = [i for i, name in enumerate(ring.syms) if name not in subs]
    out = [_make(out_ring, {tuple(e[i] for i in keep): c for e, c in g.terms.items()})
           for g in live]
    return Elimination(out, subs, out_ring)

