"""Smith-theory inequality verifiers and the special subcomplexes.

Floyd: over F_p, the Betti tail sums of a complex dominate those of the
fixed-point set of a cyclic p-action.  The equivariant version replaces
Betti numbers by alternating Betti numbers when a commuting symmetric action
is present.  Both are theorems; a failed ledger line is a bug detector, not
an expected outcome.

The special complexes C^{Alt,rho} for rho = (1-g)^i underlie the proof: for
i strictly between 0 and p there is a degreewise rank-exact sequence

    0 -> C^{Alt,rho-bar}(X) (+) C^Alt(X^G) -> C^Alt(X) -> C^{Alt,rho}(X) -> 0

with rho-bar = (1-g)^{p-i}.  The endpoints i = 0 and i = p are computed
literally (rho = 1 or rho = 0) and additivity is reported as observed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homology import (AltChainComplex, _sorted_with_sign, alternating_chain_complex,
                       alternating_homology, homology)
from .linalg import mat_mul_mod, mat_pow_mod, rank_mod
from .simplicial import ActionError, GComplex, _perm_order, smallest_prime_factor


@dataclass
class TailLedger:
    """Per-N comparison of tail sums: lhs_i >= rhs_i."""

    label: str
    lhs: list[int]
    rhs: list[int]

    def rows(self):
        out = []
        top = max(len(self.lhs), len(self.rhs))
        for N in range(top + 1):
            a = sum(self.lhs[N:])
            b = sum(self.rhs[N:])
            out.append((N, a, b, a >= b))
        return out

    @property
    def holds(self) -> bool:
        return all(ok for *_, ok in self.rows())


def verify_floyd(X: GComplex) -> tuple[bool, TailLedger]:
    """Floyd inequality over F_p for the cyclic action of X; checks all N."""
    if X.g_perm is None:
        raise ActionError("no cyclic action on this complex")
    p = X.p
    if smallest_prime_factor(p) != p:
        raise ActionError("Floyd's inequality needs a prime-order action")
    lhs = homology(X, f"F{p}").betti
    rhs = homology(X.g_fixed_subcomplex(), f"F{p}").betti
    ledger = TailLedger(f"beta tails over F{p}", lhs, rhs)
    return ledger.holds, ledger


def verify_equivariant_smith(X: GComplex) -> tuple[bool, list[TailLedger]]:
    """Equivariant Smith inequality; prime powers reduce along the subgroup chain.

    For |G| = p^e the tails chain through X >= X^{G'} >= ... >= X^G where G'
    is the order-p subgroup, each step a prime-order comparison.  Each step
    reads AH of the complex Y it starts from: alternating homology depends
    on the symmetric action alone, and Y good under its whole group is good
    under Sigma_k x G'.  X must be good under its whole group.
    """
    if X.g_perm is None:
        raise ActionError("no cyclic action on this complex")
    ledgers = []
    Y = X
    while Y.g_perm is not None:
        order = Y.p
        p = smallest_prime_factor(order)
        if order == p:
            fixed = Y.g_fixed_subcomplex()  # no cyclic action is left on it
        else:
            # subgroup of order p generated by g^(order/p); g's own order
            # may be far below `order`, so step only order/p mod that
            h = tuple(range(Y.n_vertices))
            for _ in range(order // p % _perm_order(Y.g_perm)):
                h = tuple(Y.g_perm[x] for x in h)
            fixed = Y.fixed_subcomplex(h, residual=Y.g_perm)
        lhs = alternating_homology(Y, fields=(f"F{p}",)).field_ranks[f"F{p}"]
        rhs = alternating_homology(fixed, fields=(f"F{p}",)).field_ranks[f"F{p}"]
        ledgers.append(TailLedger(f"Abeta tails over F{p}", lhs, rhs))
        Y = fixed  # carries the residual action of order p^{e-1}, if any
    return all(l.holds for l in ledgers), ledgers


# -- special complexes ---------------------------------------------------------


@dataclass
class SpecialRanksReport:
    p: int
    i: int
    degrees: list[int]
    dim_alt: list[int]          # dim C^Alt_q(X; F_p)
    dim_rho: list[int]          # a-side chain dims
    dim_rho_bar: list[int]
    dim_fixed: list[int]        # dim C^Alt_q(X^G; F_p)
    additivity: list[bool]      # mid == left + right per degree
    ah: list[int]               # AH_q(X; F_p)
    ah_fixed: list[int]
    a: list[int]                # dim AH^rho_q
    a_bar: list[int]
    les_bounds: list[tuple[int, bool, bool]]  # per degree: the two LES inequalities

    @property
    def ses_exact(self) -> bool:
        return all(self.additivity)


def _g_matrix_on_alt(X: GComplex, alt: AltChainComplex, q: int, p: int) -> list[list[int]]:
    """Matrix of the cyclic generator acting on the alternating basis mod p."""
    gens = alt.gens.get(q, ())
    rep_index = alt.rep_index.get(q, {})
    g = X.g_perm
    M = [[0] * len(gens) for _ in range(len(gens))]
    for j, chain in enumerate(gens):
        # image of the generator under g, read off at representatives
        for s, c in chain:
            img, osign = _sorted_with_sign([g[x] for x in s])
            i = rep_index.get(img)
            if i is not None:
                M[i][j] = (M[i][j] + c * osign) % p
    return M


def smith_special_ranks(X: GComplex, i: int) -> SpecialRanksReport:
    """Rank bookkeeping of C^{Alt,rho} for rho = (1-g)^i, i in 0..p."""
    if X.g_perm is None:
        raise ActionError("no cyclic action on this complex")
    p = X.p
    if smallest_prime_factor(p) != p:
        raise ActionError("special complexes need a prime-order action")
    if not 0 <= i <= p:
        raise ActionError(f"i must lie in 0..{p}")
    if not X.is_good():
        raise ActionError("action is not simplicially good; subdivide first")
    alt = alternating_chain_complex(X)
    fixed = X.g_fixed_subcomplex()  # good, as a fixed locus of a good complex
    alt_fixed = alternating_chain_complex(fixed)
    top = max(alt.reps, default=-1)
    degrees = list(range(top + 1))

    dim_alt = [len(alt.reps.get(q, ())) for q in degrees]
    dim_fixed = [len(alt_fixed.reps.get(q, ())) for q in degrees]
    rho, rho_bar = [], []
    for q, n in zip(degrees, dim_alt):
        G = _g_matrix_on_alt(X, alt, q, p)
        eta = [[((1 if a == b else 0) - G[a][b]) % p for b in range(n)] for a in range(n)]  # 1 - g
        rho.append(mat_pow_mod(eta, i, p))
        rho_bar.append(mat_pow_mod(eta, p - i, p))

    def image_complex(maps: list[list[list[int]]]) -> tuple[list[int], list[int]]:
        """Chain and homology ranks of the image complex: the ranks of maps[q]
        and of d_q maps[q] (the boundary on the image)."""
        dims = [rank_mod(m, p) for m in maps]
        ranks = [rank_mod(mat_mul_mod(alt.boundaries.get(q, []), maps[q], p), p)
                 for q in degrees] + [0]
        return dims, [dims[q] - ranks[q] - ranks[q + 1] for q in degrees]

    dim_rho, a = image_complex(rho)
    dim_rho_bar, a_bar = image_complex(rho_bar)
    additivity = [n == r + rb + nf
                  for n, r, rb, nf in zip(dim_alt, dim_rho, dim_rho_bar, dim_fixed)]
    field = f"F{p}"
    ah = alternating_homology(X, (field,)).field_ranks[field]  # one entry per degree
    ah_fixed = alternating_homology(fixed, (field,)).field_ranks[field]
    ah_fixed += [0] * (len(degrees) - len(ah_fixed))
    les_bounds = [(q, ah_fixed[q] + a_bar[q] <= a_next + ah[q],
                   ah_fixed[q] + a[q] <= abar_next + ah[q])
                  for q, a_next, abar_next in zip(degrees, a[1:] + [0], a_bar[1:] + [0])]
    return SpecialRanksReport(p, i, degrees, dim_alt, dim_rho, dim_rho_bar,
                              dim_fixed, additivity, ah, ah_fixed, a, a_bar,
                              les_bounds)
