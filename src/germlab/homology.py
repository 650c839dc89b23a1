"""Simplicial homology and alternating homology of symmetric complexes.

Each integer boundary matrix is eliminated once, to its Smith normal form
(unit pivots first, see `linalg`), and every number comes from its
elementary divisors: the rank of d_q over Q is their count, over F_p (p
prime) the count of those p does not divide, and the torsion of H_{q-1} is
those above 1.

The alternating chain complex has one generator per group orbit of
simplexes whose stabilizer contains no odd element of Sigma_k (a stabilizer
element fixes its simplex pointwise on a good complex, so an odd one forces
the coefficient to vanish); orbits with even stabilizers survive and
contribute a single signed generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import kernel_q, rref_q, smith_normal_form
from .simplicial import ActionError, GComplex, perm_sign, smallest_prime_factor


@dataclass
class HomologyResult:
    """Per-degree Betti numbers; over Z also the torsion summands."""

    coeff: str  # "Z", "Q" or "F<p>"
    betti: list[int]
    torsion: list[list[int]] | None = None

    def chi(self) -> int:
        return sum((-1) ** i * b for i, b in enumerate(self.betti))


def _sorted_with_sign(values: list[int]) -> tuple[tuple[int, ...], int]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    sign = perm_sign(tuple(order))
    return tuple(values[i] for i in order), sign


def boundary_matrices(X: GComplex) -> tuple[dict[int, list[tuple[int, ...]]], dict[int, list[list[int]]]]:
    """Simplex tables and integer boundary matrices d_q: C_q -> C_{q-1}."""
    simp = X.simplices()
    index = {q: {s: i for i, s in enumerate(lst)} for q, lst in simp.items()}
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


def _field_prime(field: str) -> int | None:
    """None for "Q", p for "F<p>" with p prime; anything else is an ActionError."""
    if field == "Q":
        return None
    if field[:1] == "F" and field[1:].isdecimal():
        p = int(field[1:])
        if p >= 2 and smallest_prime_factor(p) == p:
            return p
    raise ActionError(f"coefficients must be Z, Q or F<p> with p prime, got {field!r}")


def _rank(divisors: list[int], p: int | None) -> int:
    """Rank over Q (p None) or F_p of a matrix with these elementary divisors."""
    if p is None:
        return len(divisors)
    return sum(1 for d in divisors if d % p)


def homology(X: GComplex, coeff="Z") -> HomologyResult:
    """H_*(X) with Z, Q or F_p coefficients (unreduced); p must be prime."""
    p = None if coeff == "Z" else _field_prime(coeff)
    simp, mats = boundary_matrices(X)
    divs = {q: smith_normal_form(M) for q, M in mats.items()}
    topdim = max(simp) if simp else -1
    betti: list[int] = []
    torsion: list[list[int]] = []
    for q in range(topdim + 1):
        down, up = divs.get(q, []), divs.get(q + 1, [])
        betti.append(len(simp.get(q, [])) - _rank(down, p) - _rank(up, p))
        torsion.append([d for d in up if d > 1])
    if coeff == "Z":
        return HomologyResult("Z", betti, torsion)
    return HomologyResult(coeff, betti)


# -- alternating chain complex -----------------------------------------------


@dataclass
class AltChainComplex:
    """Basis data of C^Alt_*(X; Z) plus its boundary matrices."""

    X: GComplex
    reps: dict[int, list[tuple[int, ...]]]           # orbit representatives per degree
    gens: dict[int, list[dict[tuple[int, ...], int]]]  # generator chains per degree
    boundaries: dict[int, list[list[int]]]           # d_q in the generator bases

    def dims(self) -> dict[int, int]:
        return {q: len(r) for q, r in self.reps.items()}


def alternating_chain_complex(X: GComplex) -> AltChainComplex:
    table = X.group()
    elements = list(table.values())  # (vertex perm, sign) over Sigma_k
    simp = X.simplices()
    reps: dict[int, list[tuple[int, ...]]] = {}
    gens: dict[int, list[dict[tuple[int, ...], int]]] = {}
    for q, simlist in simp.items():
        simset = set(simlist)
        seen: set[tuple[int, ...]] = set()
        reps[q] = []
        gens[q] = []
        for s in simlist:
            if s in seen:
                continue
            chain: dict[tuple[int, ...], int] = {}
            dead = False
            orbit = set()
            for v, sg in elements:
                img_raw = [v[x] for x in s]
                img, osign = _sorted_with_sign(img_raw)
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
                reps[q].append(s)
                gens[q].append(chain)
    boundaries: dict[int, list[list[int]]] = {}
    rep_index = {q: {s: i for i, s in enumerate(reps[q])} for q in reps}
    for q in sorted(reps):
        if q == 0 or not gens.get(q):
            continue
        rows = len(reps.get(q - 1, []))
        M = [[0] * len(gens[q]) for _ in range(rows)]
        for j, chain in enumerate(gens[q]):
            for s, c in chain.items():
                for t in range(q + 1):
                    face = s[:t] + s[t + 1:]
                    i = rep_index[q - 1].get(face)
                    if i is not None:
                        M[i][j] += c * (-1 if t % 2 else 1)
        boundaries[q] = M
    return AltChainComplex(X, reps, gens, boundaries)


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
    return _alternating_homology(alternating_chain_complex(X), fields)


def _alternating_homology(alt: AltChainComplex, fields: tuple[str, ...]) -> AltHomologyResult:
    """`alternating_homology` of an alternating chain complex already built."""
    primes = {f: _field_prime(f) for f in fields}
    divs = {q: smith_normal_form(M) for q, M in alt.boundaries.items()}
    top = max(alt.reps, default=-1)
    ranks = []
    torsion = []
    field_ranks = {f: [] for f in fields}
    for q in range(top + 1):
        nq = len(alt.reps.get(q, []))
        down, up = divs.get(q, []), divs.get(q + 1, [])
        ranks.append(nq - len(down) - len(up))
        torsion.append([d for d in up if d > 1])
        for f, p in primes.items():
            field_ranks[f].append(nq - _rank(down, p) - _rank(up, p))
    chi_alt = sum((-1) ** q * r for q, r in enumerate(ranks))
    return AltHomologyResult(ranks, torsion, field_ranks, chi_top(alt.X), chi_alt)


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
