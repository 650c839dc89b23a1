"""Theorems as oracles on randomized good complexes.

Floyd and equivariant Smith inequalities, the alternating fixed-point
formula, and field-coefficient AH versus the sign isotype of H run on a
200-complex corpus carrying both actions.  The special-sequence rank
exactness runs on its own 200-complex corpus with p coprime to k!: that is
the validity domain of the averaging argument, and `test_ses_gap_pinned`
records the counterexample showing the coprimality hypothesis is needed.
All corpora are deterministic (seeded); zero failures tolerated.
"""

import random

import pytest

from germlab.homology import (alternating_homology, chi_alt_fixed_point_formula,
                              chi_top, homology, induced_homology_action_ranks)
from randoms import block_complexes, random_block_complex
from germlab.simplicial import GComplex, smallest_prime_factor, validate_or_subdivide
from germlab.smith import (TailLedger, smith_special_ranks, verify_equivariant_smith,
                           verify_floyd)


def _main_cases():
    rng = random.Random(1789)
    cases = []
    for i in range(200):
        k = rng.choice((1, 2, 2, 3))
        p = rng.choice((2, 2, 3))
        m = 3 if p == 3 else 2
        max_dim = rng.choice((1, 1, 2))
        nf = rng.randint(1, 2 if (k == 3 and max_dim == 2) else 3)
        cases.append((i, k, m, nf, max_dim, p, rng.randrange(10 ** 6)))
    return cases


def _coprime_cases():
    # p coprime to k!: k = 1 with any p, k = 2 with p = 3
    rng = random.Random(2024)
    cases = []
    for i in range(200):
        k, p = rng.choice(((1, 2), (1, 3), (2, 3), (2, 3)))
        m = 3 if p == 3 else 2
        max_dim = rng.choice((1, 1, 2))
        nf = rng.randint(1, 3)
        cases.append((i, k, m, nf, max_dim, p, rng.randrange(10 ** 6)))
    return cases


def _build(case):
    i, k, m, nf, max_dim, p, seed = case
    return random_block_complex(random.Random(seed), k=k, m=m, n_facets=nf,
                                max_dim=max_dim, p=p)


@pytest.fixture(scope="module")
def unsubdivided():
    """Both corpora before subdivision: as drawn, then closed up under the group."""
    out = []
    for case in _main_cases() + _coprime_cases():
        i, k, m, nf, max_dim, p, seed = case
        out.append((case, *block_complexes(random.Random(seed), k=k, m=m, n_facets=nf,
                                           max_dim=max_dim, p=p)))
    return out


@pytest.fixture(scope="module")
def corpus():
    return [(case, _build(case)) for case in _main_cases()]


@pytest.fixture(scope="module")
def coprime_corpus():
    return [(case, _build(case)) for case in _coprime_cases()]


def test_corpus_size(corpus, coprime_corpus):
    assert len(corpus) >= 200
    assert len(coprime_corpus) >= 200


def test_floyd_inequality_all(corpus):
    for case, X in corpus:
        ok, ledger = verify_floyd(X)
        assert ok, (case, ledger.rows())


def test_equivariant_smith_all(corpus):
    for case, X in corpus:
        ok, ledgers = verify_equivariant_smith(X)
        assert ok, (case, [l.rows() for l in ledgers])


def test_chi_alt_fixed_point_formula_all(corpus):
    for case, X in corpus:
        val = chi_alt_fixed_point_formula(X)
        assert val.denominator == 1, case
        ah = alternating_homology(X)
        assert val == ah.chi_alt, case
        assert homology(X, "Q").chi() == chi_top(X), case


def test_field_AH_equals_sign_isotype_all(corpus):
    for case, X in corpus:
        ah = alternating_homology(X, fields=("Q",)).field_ranks["Q"]
        iso = induced_homology_action_ranks(X)
        top = max(len(ah), len(iso))
        ah = ah + [0] * (top - len(ah))
        iso = iso + [0] * (top - len(iso))
        assert ah == iso, case


def test_special_sequence_rank_exact_all(coprime_corpus):
    for case, X in coprime_corpus:
        p = X.p
        for i in range(1, p):
            rep = smith_special_ranks(X, i)
            assert rep.ses_exact, (case, i)
            for q, b1, b2 in rep.les_bounds:
                assert b1 and b2, (case, i, q)


def test_ses_gap_pinned():
    """p | k! obstruction: g acting like an odd permutation on an orbit.

    The segment with both actions the endpoint swap subdivides to a good
    complex where [0]-[1] lies in ker(eta) but not in eta C^Alt + C^Alt(X^G);
    rank additivity fails in degree 0.  The tail inequality itself holds.
    """
    X = GComplex(2, ((0, 1),), k=2, sigma_gens=((1, 0),), g_perm=(1, 0), p=2)
    from germlab.simplicial import validate_or_subdivide

    Y = validate_or_subdivide(X)
    rep = smith_special_ranks(Y, 1)
    assert not rep.ses_exact
    assert rep.additivity[0] is False
    ok, _ = verify_equivariant_smith(Y)
    assert ok


def _generated_group(X: GComplex) -> set[tuple[int, ...]]:
    """Every vertex permutation the generators and g generate, by closing them
    under composition (no representation of Sigma_k is assumed)."""
    gens = list(X.sigma_gens) + ([X.g_perm] if X.g_perm is not None else [])
    group = frontier = {tuple(range(X.n_vertices))}
    while frontier:
        frontier = {tuple(g[x] for x in v) for v in frontier for g in gens} - group
        group = group | frontier
    return group


def _simplicial_by_all_elements(X: GComplex) -> bool:
    simplexes = {s for lst in X.simplices().values() for s in lst}
    return all(tuple(sorted(v[x] for x in f)) in simplexes
               for v in _generated_group(X) for f in X.facets)


def test_simpliciality_from_generators_matches_all_elements(unsubdivided):
    verdicts = []
    for case, drawn, closed in unsubdivided:
        for X in (drawn, closed):
            assert _generated_group(X) == {v for v, _ in X.all_elements()}, case
            assert X.is_simplicial() == _simplicial_by_all_elements(X), case
            verdicts.append(X.is_simplicial())
        assert closed.is_simplicial(), case
    assert verdicts.count(False) >= 50  # the drawn facets often break the action
    not_simplicial = GComplex(3, ((0, 1), (2,)), 2, ((0, 2, 1),))
    not_a_representation = GComplex(4, ((0,), (1,), (2,), (3,)), 3,
                                    ((1, 0, 2, 3), (0, 1, 3, 2)))
    assert not not_simplicial.is_simplicial() and not _simplicial_by_all_elements(not_simplicial)
    assert not_a_representation.is_simplicial()
    assert _simplicial_by_all_elements(not_a_representation)


def _good_by_definition(X: GComplex) -> bool:
    """A simplex that an element maps onto itself is fixed vertex by vertex."""
    simplexes = [s for lst in X.simplices().values() for s in lst]
    return all(tuple(sorted(v[x] for x in s)) != s or all(v[x] == x for x in s)
               for v in _generated_group(X) for s in simplexes)


def test_one_subdivision_makes_the_action_good(unsubdivided):
    subdivided = 0
    for case, _, X in unsubdivided:
        Y = validate_or_subdivide(X)
        if X.is_good():
            assert Y is X, case
        else:
            assert Y == X.barycentric_subdivision(), case
            subdivided += 1
        assert _good_by_definition(Y), case
        assert Y.is_good(), case
    assert subdivided >= 100


def _smith_ledgers_through_order_p_copies(X: GComplex) -> list[TailLedger]:
    """The equivariant Smith ledgers as first built: each prime-power step
    reads AH of a copy of Y whose cyclic action is the order-p subgroup."""
    ledgers = []
    Y = X
    while Y.g_perm is not None:
        order = Y.p
        p = smallest_prime_factor(order)
        if order == p:
            Z, fixed = Y, Y.g_fixed_subcomplex()
        else:
            h = tuple(range(Y.n_vertices))
            for _ in range(order // p):
                h = tuple(Y.g_perm[x] for x in h)
            Z = GComplex(Y.n_vertices, Y.facets, Y.k, Y.sigma_gens, h, p)
            fixed = Y.fixed_subcomplex(h, residual=Y.g_perm)
        field = f"F{p}"
        lhs = alternating_homology(Z, fields=(field,)).field_ranks[field]
        rhs = alternating_homology(fixed, fields=(field,)).field_ranks[field]
        ledgers.append(TailLedger(f"Abeta tails over {field}", lhs, rhs))
        if order == p:
            break
        Y = fixed
    return ledgers


def test_equivariant_smith_prime_power_orders_match_order_p_copies():
    rng = random.Random(4096)
    complexes = []
    for p in (4, 8):
        for _ in range(20):
            k, max_dim = rng.choice((1, 2, 3)), rng.choice((1, 2))
            complexes.append(random_block_complex(rng, k=k, m=p, n_facets=rng.randint(1, 4),
                                                  max_dim=max_dim, p=p))
    # the 8-cycle on two tetrahedra it swaps: g^4 and g^2 fix barycenters g
    # moves, so the chain takes three steps
    eight_cycle = tuple((v + 1) % 8 for v in range(8))
    complexes.append(validate_or_subdivide(
        GComplex(8, ((0, 2, 4, 6), (1, 3, 5, 7)), g_perm=eight_cycle, p=8)))
    steps = []
    for X in complexes:
        ok, ledgers = verify_equivariant_smith(X)
        assert ok and ledgers == _smith_ledgers_through_order_p_copies(X), X.p
        steps.append(len(ledgers))
    assert steps.count(2) >= 10 and steps[-1] == 3
