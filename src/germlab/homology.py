"""Simplicial homology and alternating homology of symmetric complexes.

Each integer boundary matrix of a complex is eliminated once, to its Smith
normal form (unit pivots first, see `linalg`), and every number comes from
its elementary divisors: the rank of d_q over Q is their count, over F_p
(p prime) the count of those p does not divide, and the torsion of H_{q-1}
is those above 1.  The complex keeps the divisors (`GComplex.derived`), not
the matrices, so `homology(X, "Z")` and `homology(X, "F<p>")` share one
elimination; likewise X keeps its alternating chain complex, which keeps
its own divisors, for `alternating_homology` and the Smith verifiers.

The alternating chain complex has one generator per group orbit of
simplexes whose stabilizer contains no odd element of Sigma_k (a stabilizer
element fixes its simplex pointwise on a good complex, so an odd one forces
the coefficient to vanish); orbits with even stabilizers survive and
contribute a single signed generator.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .linalg import kernel_q, rref_q, smith_normal_form
from .simplicial import (MAX_P, ActionError, GComplex, check_p, perm_sign,
                         smallest_prime_factor)


@dataclass
class HomologyResult:
    """Per-degree Betti numbers; over Z also the torsion summands."""

    coeff: str  # "Z", "Q" or "F<p>"
    betti: list[int]
    torsion: list[list[int]] | None = None

    def chi(self) -> int:
        return sum((-1) ** i * b for i, b in enumerate(self.betti))


def _sorted_with_sign(values: list[int]) -> tuple[tuple[int, ...], int]:
    """Distinct values sorted, and the sign of the sorting permutation (their inversion parity)."""
    return tuple(sorted(values)), perm_sign(values)


def boundary_matrices(X: GComplex) -> tuple[Mapping[int, tuple[tuple[int, ...], ...]], dict[int, list[list[int]]]]:
    """Simplex tables and integer boundary matrices d_q: C_q -> C_{q-1}."""
    simp = X.simplices()
    index = X.simplex_index()
    mats: dict[int, list[list[int]]] = {}
    for q in simp:
        if q == 0:
            continue
        rows = len(simp[q - 1])
        cols = len(simp[q])
        M = [[0] * cols for _ in range(rows)]
        for j, s in enumerate(simp[q]):
            for t in range(q + 1):
                face = s[:t] + s[t + 1:]
                M[index[q - 1][face]][j] = -1 if t % 2 else 1
        mats[q] = M
    return simp, mats


def _boundary_divisors(X: GComplex) -> Mapping[int, tuple[int, ...]]:
    """Elementary divisors of each d_q of X; kept with X by `GComplex.derived`."""
    _, mats = boundary_matrices(X)
    return MappingProxyType({q: tuple(smith_normal_form(M)) for q, M in mats.items()})


def _field_prime(field: str) -> int | None:
    """None for "Q", p for "F<p>" with p prime; anything else is an ActionError."""
    if field == "Q":
        return None
    if field[:1] == "F" and field[1:].isdecimal():
        try:
            p = int(field[1:])
        except ValueError:  # more digits than int() converts
            raise ActionError(f"field characteristic of {len(field) - 1} digits "
                              f"is above the supported maximum {MAX_P}") from None
        check_p(p, "field characteristic")
        if p >= 2 and smallest_prime_factor(p) == p:
            return p
    raise ActionError(f"coefficients must be Z, Q or F<p> with p prime, got {field!r}")


def _rank(divisors: tuple[int, ...], p: int | None) -> int:
    """Rank over Q (p None) or F_p of a matrix with these elementary divisors."""
    if p is None:
        return len(divisors)
    return sum(1 for d in divisors if d % p)


def homology(X: GComplex, coeff="Z") -> HomologyResult:
    """H_*(X) with Z, Q or F_p coefficients (unreduced); p must be prime."""
    p = None if coeff == "Z" else _field_prime(coeff)
    simp = X.simplices()
    divs = X.derived(_boundary_divisors)
    topdim = max(simp) if simp else -1
    betti: list[int] = []
    torsion: list[list[int]] = []
    for q in range(topdim + 1):
        down, up = divs.get(q, ()), divs.get(q + 1, ())
        betti.append(len(simp.get(q, ())) - _rank(down, p) - _rank(up, p))
        torsion.append([d for d in up if d > 1])
    if coeff == "Z":
        return HomologyResult("Z", betti, torsion)
    return HomologyResult(coeff, betti)


# -- alternating chain complex -----------------------------------------------

Simplex = tuple[int, ...]


@dataclass(frozen=True)
class AltChainComplex:
    """Basis data of C^Alt_*(X; Z) plus its boundary matrices, all immutable."""

    reps: Mapping[int, tuple[Simplex, ...]]  # orbit representatives per degree
    rep_index: Mapping[int, Mapping[Simplex, int]]  # position of each in `reps`
    # generator chains per degree, each a tuple of (simplex, coefficient)
    gens: Mapping[int, tuple[tuple[tuple[Simplex, int], ...], ...]]
    boundaries: Mapping[int, tuple[tuple[int, ...], ...]]  # d_q in the generator bases

    def dims(self) -> dict[int, int]:
        return {q: len(r) for q, r in self.reps.items()}

    @cached_property
    def divisors(self) -> Mapping[int, tuple[int, ...]]:
        """Elementary divisors of each boundary matrix, eliminated on first use."""
        return MappingProxyType({q: tuple(smith_normal_form(M))
                                 for q, M in self.boundaries.items()})


def alternating_chain_complex(X: GComplex) -> AltChainComplex:
    """C^Alt_*(X; Z), built on the first call and kept with X."""
    return X.derived(_build_alternating_chain_complex)


def _build_alternating_chain_complex(X: GComplex) -> AltChainComplex:
    elements = X.group().values()  # (vertex perm, sign) over Sigma_k
    index = X.simplex_index()
    reps: dict[int, tuple[Simplex, ...]] = {}
    gens: dict[int, tuple[tuple[tuple[Simplex, int], ...], ...]] = {}
    for q, simlist in X.simplices().items():
        simset = index[q]
        seen: set[Simplex] = set()
        q_reps = []
        q_gens = []
        for s in simlist:
            if s in seen:
                continue
            chain: dict[Simplex, int] = {}
            dead = False
            orbit = set()
            for v, sg in elements:
                img, osign = _sorted_with_sign([v[x] for x in s])
                if img not in simset:
                    raise ActionError("action is not simplicial")
                orbit.add(img)
                coeff = sg * osign
                if img in chain:
                    if chain[img] != coeff:
                        dead = True  # odd stabilizer element kills the orbit
                        break
                else:
                    chain[img] = coeff
            seen |= orbit
            if not dead:
                q_reps.append(s)
                q_gens.append(tuple(chain.items()))
        reps[q] = tuple(q_reps)
        gens[q] = tuple(q_gens)
    rep_index = {q: MappingProxyType({s: i for i, s in enumerate(r)}) for q, r in reps.items()}
    boundaries: dict[int, tuple[tuple[int, ...], ...]] = {}
    for q in reps:
        if q == 0 or not gens[q]:
            continue
        below = rep_index[q - 1]
        M = [[0] * len(gens[q]) for _ in range(len(reps[q - 1]))]
        for j, chain in enumerate(gens[q]):
            for s, c in chain:
                for t in range(q + 1):
                    i = below.get(s[:t] + s[t + 1:])
                    if i is not None:
                        M[i][j] += c * (-1 if t % 2 else 1)
        boundaries[q] = tuple(map(tuple, M))
    return AltChainComplex(MappingProxyType(reps), MappingProxyType(rep_index),
                           MappingProxyType(gens), MappingProxyType(boundaries))


@dataclass
class AltHomologyResult:
    ranks: list[int]                   # over Z (free parts)
    torsion: list[list[int]]
    field_ranks: dict[str, list[int]]  # filled per request
    chi_top: int
    chi_alt: int

    def abeta(self, i: int, field: str | None = None) -> int:
        seq = self.ranks if field is None else self.field_ranks[field]
        return seq[i] if 0 <= i < len(seq) else 0


def alternating_homology(X: GComplex, fields: tuple[str, ...] = ()) -> AltHomologyResult:
    """AH_*(X; Z) with torsion, plus ranks over requested fields ("Q", "F2", ...)."""
    if not X.is_good():
        raise ActionError("action is not simplicially good; subdivide first")
    return _alternating_homology(X, fields)


def _alternating_homology(X: GComplex, fields: tuple[str, ...]) -> AltHomologyResult:
    """`alternating_homology` of a complex already known to be good."""
    primes = {f: _field_prime(f) for f in fields}
    alt = alternating_chain_complex(X)
    divs = alt.divisors
    top = max(alt.reps, default=-1)
    ranks = []
    torsion = []
    field_ranks = {f: [] for f in fields}
    for q in range(top + 1):
        nq = len(alt.reps.get(q, ()))
        down, up = divs.get(q, ()), divs.get(q + 1, ())
        ranks.append(nq - len(down) - len(up))
        torsion.append([d for d in up if d > 1])
        for f, p in primes.items():
            field_ranks[f].append(nq - _rank(down, p) - _rank(up, p))
    chi_alt = sum((-1) ** q * r for q, r in enumerate(ranks))
    return AltHomologyResult(ranks, torsion, field_ranks, chi_top(X), chi_alt)


# -- Euler characteristics and the fixed-point formula -------------------------


def chi_top(X: GComplex) -> int:
    return sum((-1) ** q * len(lst) for q, lst in X.simplices().items())


def chi_fixed(X: GComplex, perm: tuple[int, ...]) -> int:
    """chi of the subcomplex fixed vertexwise by a vertex permutation."""
    total = 0
    for q, lst in X.simplices().items():
        cnt = sum(1 for s in lst if all(perm[v] == v for v in s))
        total += (-1) ** q * cnt
    return total


def chi_alt_fixed_point_formula(X: GComplex) -> Fraction:
    """(1/k!) sum over Sigma_k of sgn(sigma) * chi_Top(X^sigma).

    Must be an integer for a good action; a fractional value signals a bug
    upstream and is surfaced as an error by callers that demand ints.
    """
    table = X.group()
    total = Fraction(0)
    for vperm, sign in table.values():
        total += sign * chi_fixed(X, vperm)
    return total / len(table)


# -- alternating isotype of homology (field coefficients) ----------------------


def induced_homology_action_ranks(X: GComplex) -> list[int]:
    """rank of the sign-isotype of H_i(X; Q) under the Sigma_k action.

    Computes H_i as cycles modulo boundaries with explicit bases, pushes each
    group element through, and takes the trace of the alternating projector.
    The coordinate system [boundaries | homology reps] is factored once per
    degree; each trace term is then a dot product.
    """
    simp, mats = boundary_matrices(X)
    table = X.group()
    order = len(table)
    top = max(simp, default=-1)
    out = []
    for q in range(top + 1):
        basis = simp.get(q, [])
        n = len(basis)
        dq = mats.get(q, [])
        dq1 = mats.get(q + 1, [])
        dq_f = [[Fraction(x) for x in r] for r in dq]
        Z = kernel_q(dq_f, n) if dq else [
            [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)
        ]
        B_cols: list[list[Fraction]] = []
        if dq1:
            cols = len(dq1[0])
            _, pivots = rref_q([[Fraction(dq1[i][j]) for j in range(cols)] for i in range(n)])
            for pc in pivots:
                B_cols.append([Fraction(dq1[i][pc]) for i in range(n)])
        # extend B to a basis of the cycle space by greedy column echelon
        sel: list[list[Fraction]] = []
        sel_rref: list[list[Fraction]] = []  # row-echelon copies for quick tests
        sel_pivots: list[int] = []

        def try_add(v):
            w = list(v)
            for row, pc in zip(sel_rref, sel_pivots):
                if w[pc]:
                    f = w[pc]
                    for i in range(n):
                        if row[i]:
                            w[i] -= f * row[i]
            piv = next((i for i in range(n) if w[i]), None)
            if piv is None:
                return False
            f = w[piv]
            sel_rref.append([x / f for x in w])
            sel_pivots.append(piv)
            sel.append(list(v))
            return True

        for b in B_cols:
            try_add(b)
        nb = len(sel)
        H_reps = []
        for z in Z:
            if try_add(z):
                H_reps.append(z)
        hdim = len(H_reps)
        if hdim == 0:
            out.append(0)
            continue
        c = len(sel)
        # pivot rows make the square system; factor M^T once for the H rows
        R = sel_pivots[:]  # after try_add echelon, these rows are independent
        M = [[sel[cc][r] for cc in range(c)] for r in R]
        # solve M^T y_j = e_{nb+j} for all j at once via an augmented rref
        aug = [[M[r][i] for r in range(c)] for i in range(c)]  # M^T
        for i in range(c):
            aug[i].extend(Fraction(1) if i == nb + j else Fraction(0) for j in range(hdim))
        rows, pivots = rref_q(aug)
        Y = [[Fraction(0)] * hdim for _ in range(c)]
        for row, pc in zip(rows, pivots):
            if pc < c:
                for j in range(hdim):
                    Y[pc][j] = row[c + j]
        rowpos = {r: t for t, r in enumerate(R)}
        idx = {s: i for i, s in enumerate(basis)}
        trace = Fraction(0)
        for vperm, sign in table.values():
            maps = {}
            for jj, z in enumerate(H_reps):
                img_R = [Fraction(0)] * c
                for i, zi in enumerate(z):
                    if zi == 0:
                        continue
                    key = i
                    got = maps.get(key)
                    if got is None:
                        tgt, osign = _sorted_with_sign([vperm[x] for x in basis[i]])
                        got = (idx[tgt], osign)
                        maps[key] = got
                    ti, osign = got
                    t = rowpos.get(ti)
                    if t is not None:
                        img_R[t] += zi * osign
                acc = Fraction(0)
                for t in range(c):
                    if img_R[t]:
                        acc += Y[t][jj] * img_R[t]
                trace += sign * acc
        val = trace / order
        if val.denominator != 1:
            raise ActionError("alternating projector trace is not integral")
        out.append(int(val))
    return out
