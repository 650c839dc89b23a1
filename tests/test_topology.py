import copy
import hashlib
import pickle
import random
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest

from germlab.homology import (alternating_chain_complex, alternating_homology,
                              boundary_matrices, chi_alt_fixed_point_formula, chi_top,
                              homology, induced_homology_action_ranks)
from randoms import random_block_complex
from germlab.simplicial import (ActionError, GComplex, from_json_dict, load_json,
                                smallest_prime_factor, validate_or_subdivide)
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
    assert induced_homology_action_ranks(X) == ah.ranks


def test_isotype_of_a_complex_that_is_not_good():
    # Sigma_3 permuting the vertices of the hollow triangle: H_0 is the
    # trivial representation and a transposition reverses the 1-cycle
    base = hollow_triangle()
    X = GComplex(3, base.facets, k=3, sigma_gens=((1, 0, 2), (0, 2, 1)))
    assert not X.is_good()
    assert induced_homology_action_ranks(X) == [0, 1]


def test_isotype_refuses_an_action_that_is_not_simplicial():
    # the swap of vertices 0 and 2 sends the edge (0, 1) to (1, 2), absent here
    X = GComplex(3, ((0, 1), (2,)), k=2, sigma_gens=((2, 1, 0),))
    with pytest.raises(ActionError):
        induced_homology_action_ranks(X)


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

    gens = (position_action((1, 0, 2)), position_action((0, 2, 1)))
    return GComplex(6, tuple(facets), 3, gens)


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


def test_json_vertex_coordinates_build_the_counted_complex():
    # the points a, b, c of the example, one coordinate list per vertex:
    # they are checked and counted, and the complex is the same as from 6
    import itertools

    X = triangles_complex()
    vals = {0: (-1, -1), 1: (1, 1), 2: ("0", "-1/1")}  # a=-1-i, b=1+i, c=-i as (re, im)
    data = {"facets": [list(f) for f in X.facets],
            "sigma_generators": [list(g) for g in X.sigma_gens]}
    coords = [[x for v in w for x in vals[v]] for w in sorted(itertools.permutations(range(3)))]
    assert from_json_dict({**data, "vertices": coords}) == X
    assert from_json_dict({**data, "vertices": 6}) == X


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


def test_fixed_subcomplex_is_the_reindexed_fixed_locus():
    # simplexes fixed vertexwise by g (order 4) or by g^2, read back through
    # the renumbering, with the symmetric and residual actions restricted
    rng = random.Random(11)
    complexes = [random_block_complex(rng, k=2, m=4, n_facets=4, max_dim=2, p=4)
                 for _ in range(10)]
    complexes += [validate_or_subdivide(two_spheres_swapped_with_conjugation()),
                  load_json(str(Path(__file__).resolve().parent.parent / "complexes"
                                / "sphere-reflection.json")),
                  GComplex(3, ((0, 1), (1, 2)), 1, (), (2, 1, 0), 2)]
    for X in complexes:
        g = X.g_perm
        g2 = tuple(g[v] for v in g)
        for fixing, residual in ((g, None), (g2, g)):
            F = X.fixed_subcomplex(fixing, residual=residual)
            keep = [v for v in range(X.n_vertices) if fixing[v] == v]
            assert F.n_vertices == len(keep)
            back = {tuple(keep[v] for v in s) for lst in F.simplices().values() for s in lst}
            assert back == {s for lst in X.simplices().values() for s in lst
                            if all(fixing[v] == v for v in s)}
            for perm, restricted in zip(X.sigma_gens, F.sigma_gens):
                assert [keep[w] for w in restricted] == [perm[v] for v in keep]
            if residual is None or F.g_perm is None:
                assert F.g_perm is F.p is None
            else:
                assert [keep[w] for w in F.g_perm] == [residual[v] for v in keep]
                assert F.p == 2
        assert X.g_fixed_subcomplex() is X.g_fixed_subcomplex()
        assert X.g_fixed_subcomplex() == X.fixed_subcomplex(g)


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


# (k, m, p) of block complexes random_block_complex(Random(100 + case), k, m,
# n_facets=5, max_dim=2, p) and the first 16 hex digits of the sha256 of the
# repr of [smith_special_ranks(X, i) for i in 0..p], taken when the ranks of
# C^{Alt,rho} were read off an extracted column basis of rho
SPECIAL_RANKS_PINS = [
    ((1, 2, 2), "d2a39915ca929628"), ((1, 3, 3), "6b00cb793686ac88"),
    ((2, 2, 2), "53eec9e8552ccf59"), ((2, 3, 3), "edae97f46193bda6"),
    ((2, 3, 2), "9dfde3b6ac0aeaf6"), ((3, 2, 2), "22d463deca64ba6f"),
    ((1, 3, 2), "59bdb8e71a22fc0b"), ((3, 3, 2), "91065937c6c9badd"),
    ((2, 3, 3), "96acce5fb9b4ced5"), ((3, 3, 3), "869e4eecb76ac379"),
]


def test_smith_special_ranks_pinned():
    for case, ((k, m, p), digest) in enumerate(SPECIAL_RANKS_PINS):
        X = random_block_complex(random.Random(100 + case), k=k, m=m, n_facets=5,
                                 max_dim=2, p=p)
        reports = repr([smith_special_ranks(X, i) for i in range(p + 1)])
        assert hashlib.sha256(reports.encode()).hexdigest()[:16] == digest, case


# -- per-complex caches --------------------------------------------------------


def _homology_pipeline(X: GComplex) -> GComplex:
    """What one request of the benchmark's homology workload asks of a complex."""
    Y = validate_or_subdivide(X)
    homology(Y, "Z")
    alternating_homology(Y)
    chi_alt_fixed_point_formula(Y)
    verify_floyd(Y)
    verify_equivariant_smith(Y)
    smith_special_ranks(Y, 1)
    return Y


def _cyclic_random_complex() -> GComplex:
    return random_block_complex(random.Random(7), k=2, m=3, n_facets=4, max_dim=2, p=3)


def test_homology_pipeline_eliminates_each_matrix_once(monkeypatch):
    import germlab.homology as hom

    closure = GComplex.__dict__["_simplices"]
    build_closure = closure.func
    builds: Counter = Counter()
    complexes: list[GComplex] = []  # kept alive so that ids stay distinct

    def counted_closure(X):
        builds[id(X)] += 1
        complexes.append(X)
        return build_closure(X)

    eliminated = []
    snf = hom.smith_normal_form
    monkeypatch.setattr(closure, "func", counted_closure)
    monkeypatch.setattr(hom, "smith_normal_form", lambda M: eliminated.append(M) or snf(M))
    sphere_swap = load_json(str(Path(__file__).resolve().parent.parent / "complexes"
                                / "sphere-swap.json"))
    for X in (sphere_swap, _cyclic_random_complex()):
        assert X.p is not None and smallest_prime_factor(X.p) == X.p
        eliminated.clear()
        Y = _homology_pipeline(X)
        done = len(eliminated)
        # Floyd, equivariant Smith and the special ranks share one fixed
        # complex: H_* over Z and F_p and AH_* of Y and of X^g, nothing else
        fixed = Y.g_fixed_subcomplex()
        need = sum(len(boundary_matrices(Z)) + len(alternating_chain_complex(Z).boundaries)
                   for Z in (Y, fixed))
        assert need and done == need == len(eliminated)
    assert builds and set(builds.values()) == {1}


def _cached(X: GComplex) -> set[str]:
    return set(vars(X)) - {f.name for f in fields(GComplex)}


def test_cached_structure_is_immutable_and_invisible():
    X = _cyclic_random_complex()
    twin = GComplex(X.n_vertices, X.facets, X.k, X.sigma_gens, X.g_perm, X.p)
    _homology_pipeline(X)
    assert _cached(X) and not _cached(twin)
    assert X == twin and hash(X) == hash(twin)
    simp, index, table, elements = X.simplices(), X.simplex_index(), X.group(), X.all_elements()
    assert all(len(simp[q]) == len(index[q]) for q in simp)
    for mapping, key in ((simp, 0), (index, 0), (index[0], (0,)), (table, next(iter(table)))):
        with pytest.raises(TypeError):
            mapping[key] = mapping[key]
        with pytest.raises(TypeError):
            del mapping[key]
    with pytest.raises(AttributeError):
        simp[0].append((0,))
    with pytest.raises(TypeError):
        elements[0] = elements[0]
    alt = alternating_chain_complex(X)
    with pytest.raises(TypeError):
        alt.divisors[1] = ()
    with pytest.raises(AttributeError):
        alt.boundaries[1][0].append(0)
    # answers are fresh objects: scribbling on one leaves the next intact
    H = homology(X, "Z")
    H.betti.append(99)
    H.torsion[0].append(99)
    assert homology(X, "Z") == homology(twin, "Z")
    for cold in (replace(X), X.barycentric_subdivision(),
                 X.fixed_subcomplex(X.g_perm), X.fixed_subcomplex(X.g_perm, residual=X.g_perm),
                 pickle.loads(pickle.dumps(X)), copy.deepcopy(X)):
        assert not _cached(cold)
    assert pickle.loads(pickle.dumps(X)) == X == copy.deepcopy(X)


_ENTRY_POINTS = (
    ("H_Z", lambda X: homology(X, "Z")),
    ("H_Q", lambda X: homology(X, "Q")),
    ("H_F2", lambda X: homology(X, "F2")),
    ("H_F3", lambda X: homology(X, "F3")),
    ("AH", lambda X: alternating_homology(X, fields=("Q", "F2", "F3"))),
    ("AH_Q", lambda X: alternating_homology(X, fields=("Q",))),
    ("chi_alt", chi_alt_fixed_point_formula),
    ("chi_top", chi_top),
    ("good", lambda X: X.is_good()),
    ("cells", lambda X: {q: list(s) for q, s in X.simplices().items()}),
    ("floyd", lambda X: verify_floyd(X) if X.p else None),
    ("smith", lambda X: verify_equivariant_smith(X) if X.p else None),
    ("special", lambda X: [smith_special_ranks(X, i) for i in range(X.p + 1)]
     if X.p else None),
)


def test_cached_answers_match_fresh_complexes():
    # a seeded differential oracle: every entry point on warmed complexes,
    # called in two orders, against the same call on a cold copy
    rng = random.Random(20240608)
    for case in range(50):
        k, m = rng.choice(((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)))
        p = rng.choice([None] + [q for q in (2, 3) if q <= m])
        X = random_block_complex(rng, k=k, m=m, n_facets=rng.randint(2, 4),
                                 max_dim=rng.randint(1, 2), p=p)

        def cold():
            return GComplex(X.n_vertices, X.facets, X.k, X.sigma_gens, X.g_perm, X.p)

        forward, backward = cold(), cold()
        got_forward = {name: fn(forward) for name, fn in _ENTRY_POINTS}
        got_backward = {name: fn(backward) for name, fn in reversed(_ENTRY_POINTS)}
        for name, fn in _ENTRY_POINTS:
            want = fn(cold())
            assert got_forward[name] == want == got_backward[name], (case, name)
            assert fn(forward) == want, (case, name)
        want = induced_homology_action_ranks(cold())
        assert induced_homology_action_ranks(forward) == want, case
