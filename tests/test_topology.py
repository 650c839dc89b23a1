from fractions import Fraction
from pathlib import Path

import pytest

from germlab.homology import (alternating_homology, chi_alt_fixed_point_formula,
                              homology, induced_homology_action_ranks)
from germlab.simplicial import (ActionError, GComplex, from_json_dict, load_json,
                                to_json_dict, validate_or_subdivide)
from germlab.smith import smith_special_ranks, verify_equivariant_smith, verify_floyd

RP2_FACETS = tuple(tuple(sorted((a - 1, b - 1, c - 1))) for a, b, c in [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
])


def hollow_triangle():
    return GComplex(3, ((0, 1), (0, 2), (1, 2)))


def test_homology_basic():
    H = homology(hollow_triangle(), "Z")
    assert H.betti == [1, 1]
    assert H.torsion == [[], []]
    pt = GComplex(1, ((0,),))
    assert homology(pt, "Z").betti == [1]


def test_homology_rp2():
    X = GComplex(6, RP2_FACETS)
    HZ = homology(X, "Z")
    assert HZ.betti == [1, 0, 0]
    assert HZ.torsion == [[], [2], []]
    H2 = homology(X, "F2")
    assert H2.betti == [1, 1, 1]
    HQ = homology(X, "Q")
    assert HQ.betti == [1, 0, 0]


def test_field_coefficients_must_be_prime():
    X = GComplex(6, RP2_FACETS)
    for coeff in ("F4", "F1", "F0", "Fx", "F", "R"):
        with pytest.raises(ActionError):
            homology(X, coeff)
    with pytest.raises(ActionError):
        alternating_homology(X, fields=("F6",))


def _twice_subdivided(name: str) -> GComplex:
    X = load_json(str(Path(__file__).resolve().parent.parent / "complexes" / name))
    return X.barycentric_subdivision().barycentric_subdivision()


def test_twice_subdivided_complexes():
    # 1081 and 868 cells, beyond the sizes the benchmark stream draws
    Y = _twice_subdivided("rp2.json")
    assert sum(len(s) for s in Y.simplices().values()) == 1081
    HZ = homology(Y, "Z")
    assert HZ.betti == [1, 0, 0]
    assert HZ.torsion == [[], [2], []]
    assert homology(Y, "F2").betti == [1, 1, 1]
    assert alternating_homology(Y, fields=("F2",)).field_ranks["F2"] == [1, 1, 1]
    Y = _twice_subdivided("sphere-swap.json")
    assert sum(len(s) for s in Y.simplices().values()) == 868
    assert alternating_homology(Y).ranks == [1, 0, 1]


def test_sphere_homology():
    # boundary of a tetrahedron
    X = GComplex(4, ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
    assert homology(X, "Z").betti == [1, 0, 1]


def test_validate_or_subdivide_segment_swap():
    X = GComplex(2, ((0, 1),), k=2, sigma_gens=((1, 0),))
    assert not X.is_good()
    Y = validate_or_subdivide(X)
    assert Y.n_vertices == 3
    assert sorted(Y.facets) == [(0, 2), (1, 2)]
    assert Y.is_good()
    # already-good complexes pass through unchanged
    assert validate_or_subdivide(Y) is Y


def test_validate_rotation_triangle():
    # hollow triangle with a rotation of order 3 as cyclic action
    X = GComplex(3, ((0, 1), (0, 2), (1, 2)), k=1, sigma_gens=(),
                 g_perm=(1, 2, 0), p=3)
    Y = validate_or_subdivide(X)
    assert Y.is_good()
    assert homology(Y, "Z").betti == [1, 1]


def test_alternating_homology_trivial_k():
    X = hollow_triangle()
    ah = alternating_homology(X)
    assert ah.ranks == homology(X, "Z").betti


def test_alternating_two_points_swap():
    X = GComplex(2, ((0,), (1,)), k=2, sigma_gens=((1, 0),))
    ah = alternating_homology(X)
    assert ah.ranks == [1]
    assert ah.torsion == [[]]


def test_alternating_trivial_action_on_point():
    X = GComplex(1, ((0,),), k=2, sigma_gens=((0,),))
    ah = alternating_homology(X)
    assert ah.ranks == [0]
    assert chi_alt_fixed_point_formula(X) == 0


def test_even_stabilizer_orbit_survives():
    # two points, Sigma_3 acting through its sign character: odd elements swap
    swap = (1, 0)
    X = GComplex(2, ((0,), (1,)), k=3, sigma_gens=(swap, swap))
    ah = alternating_homology(X)
    assert ah.ranks == [1]
    assert induced_homology_action_ranks(X) == [1]


def triangles_complex():
    """Sigma_3 orbit of the segment (a,b,c)->(b,c,a): two hollow triangles.

    Vertices are the six arrangements w of the values (a, b, c); edges join w
    to its value rotation (w1, w2, w0); Sigma_3 permutes coordinate positions.
    """
    import itertools

    arr = sorted(itertools.permutations(range(3)))
    index = {w: i for i, w in enumerate(arr)}
    facets = sorted({tuple(sorted((index[w], index[(w[1], w[2], w[0])]))) for w in arr})

    def position_action(tau):  # w -> w o tau^{-1}
        inv = [0] * 3
        for i, x in enumerate(tau):
            inv[x] = i
        return tuple(index[tuple(w[inv[i]] for i in range(3))] for w in arr)

    vals = {0: (-1, -1), 1: (1, 1), 2: (0, -1)}  # a=-1-i, b=1+i, c=-i as (re, im)
    coords = tuple(
        tuple(Fraction(x) for v in w for x in vals[v]) for w in arr
    )
    gens = (position_action((1, 0, 2)), position_action((0, 2, 1)))
    return GComplex(6, tuple(facets), 3, gens, coords=coords)


def test_triangles_counterexample():
    X = triangles_complex()
    assert homology(X, "Z").betti == [2, 2]  # two hollow triangles
    ah = alternating_homology(X)
    assert ah.ranks[0] == 1
    assert ah.torsion[0] == []  # AH_0 = Z, not Z/2
    assert ah.ranks == [1, 1]


def test_chi_alt_formula_matches_direct():
    X = triangles_complex()
    ah = alternating_homology(X)
    assert chi_alt_fixed_point_formula(X) == ah.chi_alt


def test_json_roundtrip():
    X = triangles_complex()
    d = to_json_dict(X)
    Y = from_json_dict(d)
    assert Y.facets == X.facets
    assert Y.sigma_gens == X.sigma_gens
    assert Y.coords == X.coords


def sphere_with_reflection():
    """Octahedron boundary: reflection fixing an equatorial square."""
    # vertices: 0/1 poles (swapped by reflection), 2..5 equator (fixed)
    facets = []
    eq = [2, 3, 4, 5]
    for pole in (0, 1):
        for i in range(4):
            facets.append(tuple(sorted((pole, eq[i], eq[(i + 1) % 4]))))
    refl = (1, 0, 2, 3, 4, 5)
    return GComplex(6, tuple(sorted(facets)), 1, (), refl, 2)


def test_floyd_sphere_reflection():
    X = validate_or_subdivide(sphere_with_reflection())
    assert homology(X, "Z").betti == [1, 0, 1]
    ok, ledger = verify_floyd(X)
    assert ok
    rows = ledger.rows()
    assert rows[0][1] == 2 and rows[0][2] == 2  # 2 >= 2 at N=0


def test_floyd_free_antipodal_circle():
    # hexagon with the antipodal rotation (free): fixed set empty
    facets = tuple((i, (i + 1) % 6) for i in range(6))
    facets = tuple(tuple(sorted(f)) for f in facets)
    g = tuple((i + 3) % 6 for i in range(6))
    X = GComplex(6, tuple(sorted(facets)), 1, (), g, 2)
    Y = validate_or_subdivide(X)
    ok, ledger = verify_floyd(Y)
    assert ok
    assert all(r[2] == 0 for r in ledger.rows())


def two_spheres_swapped_with_conjugation():
    """Two tetrahedron boundaries swapped by Sigma_2, inner reflection as Z/2."""
    import itertools

    facets = []
    for b in (0, 4):
        for f in itertools.combinations(range(4), 3):
            facets.append(tuple(sorted(b + v for v in f)))
    swap = tuple(list(range(4, 8)) + list(range(4)))
    refl = (1, 0, 2, 3, 5, 4, 6, 7)  # swaps two vertices inside each block
    return GComplex(8, tuple(sorted(facets)), 2, (swap,), refl, 2)


def test_equivariant_smith_two_spheres():
    X = validate_or_subdivide(two_spheres_swapped_with_conjugation())
    ok, ledgers = verify_equivariant_smith(X)
    assert ok


def test_smith_special_ranks_free_orbit():
    # two disjoint segments swapped by g (p=2, free): dim C^rho = dim C/2
    X = GComplex(4, ((0, 1), (2, 3)), 1, (), (2, 3, 0, 1), 2)
    Y = validate_or_subdivide(X)
    rep = smith_special_ranks(Y, 1)
    assert rep.ses_exact
    for q in rep.degrees:
        assert rep.dim_rho[q] == rep.dim_alt[q] // 2
        assert rep.dim_fixed[q] == 0


def test_smith_special_ranks_fixed_simplex_killed():
    # a single fixed segment: eta kills it, C^rho = 0, SES still rank-exact
    X = GComplex(2, ((0, 1),), 1, (), (0, 1), 2)
    rep = smith_special_ranks(X, 1)
    assert rep.ses_exact
    assert all(d == 0 for d in rep.dim_rho)
    assert rep.dim_fixed == rep.dim_alt


def test_smith_special_ranks_endpoints_literal():
    X = GComplex(2, ((0, 1),), 1, (), (0, 1), 2)
    rep0 = smith_special_ranks(X, 0)  # rho = 1: image is everything
    assert rep0.dim_rho == rep0.dim_alt
    rep2 = smith_special_ranks(X, 2)  # rho = eta^p = 0
    assert all(d == 0 for d in rep2.dim_rho)
