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

`induced_homology_action_ranks` is the independent oracle for AH over Q: by
Maschke's theorem AH_*(X; Q) is the sign isotype of H_*(X; Q), the homology
of the image of the alternating projector, whose ranks it takes with
`linalg.rank_q` from the boundary matrices and the group table alone.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .linalg import rank_q, smith_normal_form
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


def boundary_matrices(X: GComplex) -> dict[int, list[list[int]]]:
    """Integer boundary matrices d_q: C_q -> C_{q-1} in the bases `X.simplices()`."""
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
    return mats


def _boundary_divisors(X: GComplex) -> Mapping[int, tuple[int, ...]]:
    """Elementary divisors of each d_q of X; kept with X by `GComplex.derived`."""
    return MappingProxyType({q: tuple(smith_normal_form(M))
                             for q, M in boundary_matrices(X).items()})


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


def _betti(sizes: list[int], divisors: Mapping[int, tuple[int, ...]], p: int | None) -> list[int]:
    """Betti numbers over Q (p None) or F_p of a chain complex with sizes[q]
    generators in degree q and these elementary divisors of each d_q."""
    rank = {q: sum(1 for d in ds if p is None or d % p) for q, ds in divisors.items()}
    return [n - rank.get(q, 0) - rank.get(q + 1, 0) for q, n in enumerate(sizes)]


def _torsion(divisors: Mapping[int, tuple[int, ...]], degrees: int) -> list[list[int]]:
    """The torsion summands of H_q, q < degrees: the divisors of d_{q+1} above 1."""
    return [[d for d in divisors.get(q + 1, ()) if d > 1] for q in range(degrees)]


def homology(X: GComplex, coeff="Z") -> HomologyResult:
    """H_*(X) with Z, Q or F_p coefficients (unreduced); p must be prime."""
    p = None if coeff == "Z" else _field_prime(coeff)
    divs = X.derived(_boundary_divisors)
    betti = _betti([len(s) for s in X.simplices().values()], divs, p)
    if coeff == "Z":
        return HomologyResult("Z", betti, _torsion(divs, len(betti)))
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


def alternating_homology(X: GComplex, fields: tuple[str, ...] = ()) -> AltHomologyResult:
    """AH_*(X; Z) with torsion, plus ranks over requested fields ("Q", "F2", ...)."""
    if not X.is_good():
        raise ActionError("action is not simplicially good; subdivide first")
    primes = {f: _field_prime(f) for f in fields}
    alt = alternating_chain_complex(X)
    sizes = [len(r) for r in alt.reps.values()]
    ranks = _betti(sizes, alt.divisors, None)
    field_ranks = {f: _betti(sizes, alt.divisors, p) for f, p in primes.items()}
    chi_alt = sum((-1) ** q * r for q, r in enumerate(ranks))
    return AltHomologyResult(ranks, _torsion(alt.divisors, len(sizes)), field_ranks,
                             chi_top(X), chi_alt)


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


# -- alternating isotype of homology (rational coefficients) ------------------


def induced_homology_action_ranks(X: GComplex) -> list[int]:
    """Rank of the sign isotype of H_q(X; Q) under Sigma_k, for each q.

    The alternating projector (1/k!) sum_sigma sgn(sigma) sigma commutes
    with d, so by Maschke's theorem the isotype is the homology of its
    image.  Scaled by k! it is an integer matrix P_q on C_q, and the rank
    is rank P_q - rank d_q P_q - rank d_{q+1} P_{q+1}, every rank taken by
    `rank_q`.  Nothing here uses the alternating chain complex or a Smith
    normal form, so this checks `alternating_homology` independently; the
    action need not be good.  The matrices are built transposed (a row per
    basis simplex), which leaves every rank unchanged.
    """
    simp, mats = X.simplices(), boundary_matrices(X)
    index = X.simplex_index()
    elements = X.group().values()
    rank_P: dict[int, int] = {}
    rank_dP: dict[int, int] = {}
    for q, basis in simp.items():
        # column j of d_q as (row, entry) pairs: the boundary of basis[j]
        d_cols = [[(r, a) for r, a in enumerate(col) if a] for col in zip(*mats.get(q, ()))]
        P, dP = [], []  # row j: P_q e_j and d_q P_q e_j
        for s in basis:
            Ps: dict[int, int] = {}
            for v, sign in elements:
                img, osign = _sorted_with_sign([v[x] for x in s])
                j = index[q].get(img)
                if j is None:
                    raise ActionError("action is not simplicial")
                Ps[j] = Ps.get(j, 0) + sign * osign
            P.append([Ps.get(j, 0) for j in range(len(basis))])
            if q:
                dPs = [0] * len(simp[q - 1])
                for j, c in Ps.items():
                    for r, a in d_cols[j]:
                        dPs[r] += c * a
                dP.append(dPs)
        rank_P[q], rank_dP[q] = rank_q(P), rank_q(dP)
    return [rank_P[q] - rank_dP[q] - rank_dP.get(q + 1, 0) for q in range(len(simp))]
