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
from randoms import random_block_complex
from germlab.simplicial import GComplex
from germlab.smith import smith_special_ranks, verify_equivariant_smith, verify_floyd


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
