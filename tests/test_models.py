"""Desk-scale simplicial models of the perturbed multiple point spaces.

The verdict pipeline never triangulates varieties; these tests rebuild the
real models by hand and confirm the alternating fixed-point bookkeeping the
witness comparisons rely on.
"""

from fractions import Fraction

import pytest

from germlab.analyzer import CANDIDATE, analyze
from germlab.germs import GermCorank1
from germlab.homology import alternating_homology, chi_alt_fixed_point_formula
from germlab.ideals import Ideal
from germlab.milnor import NonIsolatedError, milnor_icis
from germlab.parse import parse_polynomial
from germlab.poly import PolyRing
from germlab.simplicial import GComplex, validate_or_subdivide
from germlab.smith import verify_equivariant_smith, verify_floyd


def octahedron_with_swap():
    """The double-point sphere model: S^2 with the swap, fixed equator S^1."""
    facets = []
    eq = [2, 3, 4, 5]
    for pole in (0, 1):
        for i in range(4):
            facets.append(tuple(sorted((pole, eq[i], eq[(i + 1) % 4]))))
    swap = (1, 0, 2, 3, 4, 5)
    return GComplex(6, tuple(sorted(facets)), 2, (swap,))


def test_sphere_swap_alternating_euler():
    # chi_Alt = (chi(S^2) + sgn * chi(S^1)) / 2 = (2 + 0)/2 = 1
    X = validate_or_subdivide(octahedron_with_swap())
    val = chi_alt_fixed_point_formula(X)
    assert val == 1
    ah = alternating_homology(X)
    assert ah.chi_alt == 1
    assert ah.ranks[2] == 1  # one alternating class on top of the sphere


def dihedral_circle():
    """The triple-point circle model: a 12-gon with the dihedral S_3 action.

    Transpositions act as reflections with two fixed vertices each; 3-cycles
    rotate freely.
    """
    facets = tuple(tuple(sorted((i, (i + 1) % 12))) for i in range(12))
    s1 = tuple((12 - v) % 12 for v in range(12))
    s2 = tuple((4 - v) % 12 for v in range(12))
    return GComplex(12, tuple(sorted(facets)), 3, (s1, s2))


def test_circle_dihedral_alternating_euler():
    X = validate_or_subdivide(dihedral_circle())
    # (0 + (2 + 2 + 2) + (0 + 0)) / 3! with the parity convention: Abeta_1 = 1
    val = chi_alt_fixed_point_formula(X)
    assert val == -1
    ah = alternating_homology(X)
    assert ah.chi_alt == -1
    assert ah.ranks == [0, 1]


def test_trivial_cyclic_action_gives_equalities():
    X = validate_or_subdivide(octahedron_with_swap())
    Y = GComplex(X.n_vertices, X.facets, X.k, X.sigma_gens,
                 tuple(range(X.n_vertices)), 2)
    ok, ledger = verify_floyd(Y)
    assert ok and all(a == b for _, a, b, _ in ledger.rows())
    ok, ledgers = verify_equivariant_smith(Y)
    assert ok and all(a == b for _, a, b, _ in ledgers[0].rows())


def test_milnor_non_isolated_error():
    R = PolyRing(("x", "y"))
    x, y = R.sym("x"), R.sym("y")
    with pytest.raises(NonIsolatedError):
        milnor_icis(Ideal.of([(x + y) ** 2]), 1)


def test_analyze_immersion_trivial_report():
    ring = PolyRing(("x", "y", "z"))
    g = GermCorank1(3, 4, ring,
                    (parse_polynomial("z", ring), parse_polynomial("0", ring)),
                    "immersion")
    rep = analyze(g)
    assert rep.verdict == CANDIDATE
    assert rep.rows[0].empty
    assert rep.image_betti == {}
    assert rep.mu_I == 0


def test_catalog_grammar_roundtrip():
    from germlab.catalog import default_simple_entries
    from germlab.germfile import GermFile, format_germ_file, parse_germ_file
    from germlab.parse import to_string

    for e in default_simple_entries():
        gf = GermFile(e.label.replace(",", "_").replace("^", "_"), 3, 4,
                      ("x", "y", "z"), {},
                      tuple(to_string(c) for c in e.germ.components))
        again = parse_germ_file(format_germ_file(gf))
        assert again.base_germ().components == e.germ.components
