"""Acceptance suite.

Every comparison is exact integer equality: the engine never rounds, so
there are no tolerances to calibrate.  One test per criterion; the summary
hook in conftest.py prints a PASS/FAIL line for each.
"""

import random
from fractions import Fraction

import pytest

from germlab.analyzer import CANDIDATE, CONFIRMED, FAILS, REFUTED, analyze, witness_check
from germlab.catalog import (default_nonsimple_entries, default_simple_entries,
                             simple_entry)
from germlab.germs import build_Dk, class_size, expected_dims, partitions, sigma_sharp
from germlab.homology import alternating_homology, chi_alt_fixed_point_formula, homology, chi_top
from germlab.homology import induced_homology_action_ranks
from germlab.ideals import Ideal, germ_is_empty
from germlab.milnor import milnor_icis, mu_chain
from germlab.parse import parse_polynomial
from germlab.poly import PolyRing, divided_differences
from germlab.smith import smith_special_ranks, verify_equivariant_smith, verify_floyd
from polyref import sign_of, subs
from randoms import random_block_complex

# criterion 1 rows: (family, args, expected muD2, expected muD3)
TABLE_ROWS = [
    ("A", 1, 1, None), ("A", 2, 2, None), ("A", 3, 3, None), ("A", 4, 4, None),
    ("D", 4, 4, None), ("D", 5, 5, None),
    ("E", 6, 6, None), ("E", 7, 7, None), ("E", 8, 8, None),
    ("B", 2, 3, None), ("B", 3, 5, None),
    ("C", 3, 4, None), ("C", 4, 5, None),
    ("F", 4, 6, None),
    ("P", 1, 0, 1), ("P", 2, 0, 4),
    ("Q", 2, 1, 1), ("Q", 3, 2, 1),
    ("R", 3, 3, 4),
    ("S", (1, 2), 1, 7),
]

MU_I_ROWS = {"A1": 1, "A2": 2, "A3": 3, "B2": 2, "B3": 3, "C3": 3, "F4": 4,
             "P1": 1, "Q2": 2, "R3": 4}


def entry_for(family, arg):
    if family == "S":
        j, k = arg
        return simple_entry("S", j=j, k=k)
    return simple_entry(family, k=arg)


@pytest.fixture(scope="module")
def table_reports():
    out = {}
    for family, arg, want2, want3 in TABLE_ROWS:
        e = entry_for(family, arg)
        out[e.label] = (e, analyze(e.germ))
    return out


def test_criterion_01_table_milnor_columns(table_reports):
    for family, arg, want2, want3 in TABLE_ROWS:
        label = entry_for(family, arg).label
        _, rep = table_reports[label]
        assert rep.mu_of(2) == want2, (label, rep.mu_of(2), want2)
        assert rep.mu_of(3) == want3, (label, rep.mu_of(3), want3)


def test_criterion_02_empty_triple_and_quadruple_points(table_reports):
    for label, (e, rep) in table_reports.items():
        if label[0] in "ADEBCF":
            assert germ_is_empty(dict(build_Dk(e.germ, 3))[(1, 1, 1)]), label
        assert germ_is_empty(dict(build_Dk(e.germ, 4))[(1, 1, 1, 1)]), label


def test_criterion_03_image_milnor_numbers(table_reports):
    for label, want in MU_I_ROWS.items():
        _, rep = table_reports[label]
        assert rep.mu_I == want, (label, rep.mu_I, want)


def test_criterion_04_classification(table_reports):
    candidates = set()
    for e in default_simple_entries():
        rep = (table_reports[e.label][1] if e.label in table_reports
               else analyze(e.germ))
        if rep.verdict == CANDIDATE:
            candidates.add(e.label)
    assert candidates == {"A1", "P1", "Q2"}
    for e in default_nonsimple_entries():
        assert analyze(e.germ).verdict == FAILS, e.label


def test_criterion_05_q2_witness():
    ring = PolyRing(("x", "y", "z"))
    from germlab.germs import GermCorank1

    q2 = GermCorank1(3, 4, ring, (parse_polynomial("x*z + y*z^2", ring),
                                  parse_polynomial("z^3 + y^2*z", ring)), "Q2")
    ring_s = PolyRing(("x", "y", "z"), ("s",))
    q2w = GermCorank1(3, 4, ring_s, (parse_polynomial("x*z + y*z^2", ring_s),
                                     parse_polynomial("z^3 + y^2*z - s*z", ring_s)), "Q2s")
    w = witness_check(q2, q2w, {"s": Fraction(1)})
    assert w.verdict == CONFIRMED
    k2 = next(r for r in w.rows if r.k == 2)
    k3 = next(r for r in w.rows if r.k == 3)
    # Abeta_2(D^2) = (2 + 0)/2 = 1 on both sides
    chis2 = {c.partition: (c.chi_complex, c.chi_real) for c in k2.classes}
    assert chis2[(1, 1)] == (2, 2) and chis2[(2,)] == (0, 0)
    assert k2.abeta_complex == 1 and k2.abeta_real == 1
    # Abeta_1(D^3) = (0 + 3*2 + 2*0)/6 = 1 on both sides
    chis3 = {c.partition: (c.chi_complex, c.chi_real) for c in k3.classes}
    assert chis3[(1, 1, 1)] == (0, 0)
    assert chis3[(2, 1)] == (2, 2)
    assert chis3[(3,)] == (0, 0)
    assert sum(class_size(p) * cr for p, (_, cr) in chis3.items()) == 6
    assert k3.abeta_complex == 1 and k3.abeta_real == 1
    # real models: D^2 a positive definite quadric sphere S^2, D^3 a circle
    reals = {c.partition: c.real for r in w.rows for c in r.classes if not r.germ_empty}
    assert reals[(1, 1)].kind == "SPHERE" and reals[(1, 1)].dim == 2
    assert reals[(1, 1)].signature == (3, 0, 0)
    assert reals[(1, 1, 1)].kind == "SPHERE" and reals[(1, 1, 1)].dim == 1
    # the wrong parameter sign is refuted
    assert witness_check(q2, q2w, {"s": Fraction(-1)}).verdict == REFUTED


def test_criterion_06_segment_orbit_counterexample():
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from test_topology import triangles_complex

    X = triangles_complex()
    ah = alternating_homology(X)
    assert ah.ranks[0] == 1
    assert ah.torsion[0] == []  # AH_0 is Z, explicitly not Z/2


def _accept_corpus():
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


def test_criterion_07_property_suite():
    failures = []
    coprime_checked = 0
    for case in _accept_corpus():
        i, k, m, nf, max_dim, p, seed = case
        X = random_block_complex(random.Random(seed), k=k, m=m, n_facets=nf,
                                 max_dim=max_dim, p=p)
        ok, _ = verify_floyd(X)
        if not ok:
            failures.append(("floyd", case))
        ok, _ = verify_equivariant_smith(X)
        if not ok:
            failures.append(("smith", case))
        val = chi_alt_fixed_point_formula(X)
        ah = alternating_homology(X, fields=("Q",))
        if val.denominator != 1 or val != ah.chi_alt:
            failures.append(("chi", case))
        if homology(X, "Q").chi() != chi_top(X):
            failures.append(("euler", case))
        iso = induced_homology_action_ranks(X)
        ahq = ah.field_ranks["Q"]
        top = max(len(iso), len(ahq))
        if (iso + [0] * (top - len(iso))) != (ahq + [0] * (top - len(ahq))):
            failures.append(("isotype", case))
        if p > 1 and k < 2 or (k == 2 and p == 3):  # p coprime to k!
            for i_exp in range(1, p):
                rep = smith_special_ranks(X, i_exp)
                if not rep.ses_exact or not all(b1 and b2 for _, b1, b2 in rep.les_bounds):
                    failures.append(("ses", case, i_exp))
            coprime_checked += 1
    assert not failures, failures[:5]
    assert coprime_checked >= 50


def test_criterion_08_combinatorial_identities():
    for k in range(1, 9):
        for part in partitions(k):
            assert sign_of(part) == (-1) ** (k - sigma_sharp(part))
            for (n, p) in ((3, 4), (2, 3), (4, 7), (2, 5)):
                d_k, d_sigma, _ = expected_dims(n, p, k, part)
                assert (-1) ** d_k * sign_of(part) == (-1) ** d_sigma
    # divided-difference identity on 500 random polynomials
    rng = random.Random(20240817)
    src = PolyRing(("x", "y", "z"), ("s",))
    tgt = PolyRing(("x", "y", "z1", "z2"), ("s",))
    z1, z2 = tgt.sym("z1"), tgt.sym("z2")
    from germlab.poly import Polynomial

    for _ in range(500):
        terms = {}
        for _t in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, 4) for _ in range(src.nsyms))
            terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        f = Polynomial(src, terms)
        q = divided_differences(f, "z", ["z1", "z2"], tgt)[0]
        assert (z1 - z2) * q == subs(f, {"z": z1}, tgt) - subs(f, {"z": z2}, tgt)


def test_criterion_09_milnor_oracles():
    from itertools import product

    for nv in (1, 2, 3):
        ring = PolyRing(tuple(f"x{i}" for i in range(nv)))
        for exps in product(range(2, 7), repeat=nv):
            f = ring.zero()
            for name, a in zip(ring.vars, exps):
                f = f + ring.sym(name) ** a
            want = 1
            for a in exps:
                want *= a - 1
            assert milnor_icis(Ideal.of([f]), nv - 1).milnor == want
    # the checked entry point (linear elimination first) against the
    # Le-Greuel chain on the unreduced generators of the table's double and
    # triple point ideals
    for family, arg, *_ in TABLE_ROWS:
        e = entry_for(family, arg)
        for k in (2, 3):
            I = dict(build_Dk(e.germ, k))[(1,) * k]
            d = expected_dims(e.germ.n, e.germ.p, k, (1,) * k)[1]
            if germ_is_empty(I) or d <= 0:
                continue
            auto = milnor_icis(I, d).milnor
            chain = mu_chain(list(I.gens), I.ring, d)
            assert auto == chain, (e.label, k, auto, chain)


def test_criterion_10_exclusions_documented():
    """Homotopy-type statements and whisker geometry are out of scope.

    The engine exposes no homotopy-equivalence machinery; the homology-level
    substitutes exercised by criteria 5..7 are the supported surface.
    """
    import germlab.analyzer as analyzer
    import germlab.homology as hml

    assert not any("homotopy" in name.lower() for name in dir(analyzer))
    assert not any("whisker" in name.lower() for name in dir(analyzer))
    for name in ("alternating_homology", "chi_alt_fixed_point_formula"):
        assert hasattr(hml, name)
