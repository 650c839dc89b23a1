import math
import random
import re
from fractions import Fraction
from pathlib import Path

from germlab.catalog import default_nonsimple_entries, default_simple_entries
from germlab.germfile import load_germ_file
from germlab.germs import (GermCorank1, build_Dk, class_size, expected_dims,
                           marar_mond_check, partitions, sigma_sharp)
from germlab.ideals import colength, germ_is_empty, local_dimension
from germlab.milnor import EMPTY, ICIS, ORIGIN, VIOLATION, milnor_icis
from germlab.poly import PolyRing, eliminate_linear
from germlab.parse import parse_polynomial
from polyref import is_immersive, reduces_to_zero, sign_of, subs

GERMS = Path(__file__).resolve().parent.parent / "germs"


def make_germ(n, p, exprs, varnames=("x", "y", "z"), params=(), name=""):
    ring = PolyRing(tuple(varnames), tuple(params))
    comps = tuple(parse_polynomial(e, ring) for e in exprs)
    return GermCorank1(n, p, ring, comps, name)


def q2():
    return make_germ(3, 4, ["x*z + y*z^2", "z^3 + y^2*z"], name="Q2")


def a_k(k):
    return make_germ(3, 4, ["z^2", f"z*(z^2 + x^2 + y^{k + 1})"], name=f"A{k}")


def test_a_germ_keeps_its_hash_and_a_copy_hashes_afresh():
    import copy
    import dataclasses
    import pickle

    g = q2()
    h = hash(g)
    assert h == hash((g.n, g.p, g.ring, g.components, g.name)) == hash(q2())
    # a string hashes differently in another process: no copy carries the kept hash
    for c in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), dataclasses.replace(g)):
        assert c == g and "_hash" not in vars(c) and hash(c) == h


def test_expected_dims_examples():
    assert expected_dims(3, 4, 2, (1, 1)) == (2, 2, 2)
    assert expected_dims(3, 4, 3, (3,)) == (1, -1, 1)
    d_k, d_sigma, sharp = expected_dims(9, 10, 10, (4, 2, 2, 1, 1))
    assert sharp == 5


def test_partition_combinatorics():
    assert partitions(3) == ((1, 1, 1), (2, 1), (3,))
    assert sum(class_size(q) for q in partitions(5)) == 120
    # sgn(sigma) = (-1)^(k - sigma^#) and (-1)^{d_k} sgn = (-1)^{d_k^sigma}, k <= 8
    for k in range(1, 9):
        for q in partitions(k):
            assert sign_of(q) == (-1) ** (k - sigma_sharp(q))
            for (n, p) in ((3, 4), (2, 3), (4, 7)):
                d_k, d_sigma, sharp = expected_dims(n, p, k, q)
                assert (-1) ** d_k * sign_of(q) == (-1) ** d_sigma


def test_build_d2_q2_matches_displayed_generators():
    g = q2()
    spaces = dict(build_Dk(g, 2))
    assert list(spaces) == [(1, 1), (2,)]  # partitions(2), the identity first
    space = spaces[(1, 1)]
    R = space.ring
    x, y, z1, z2 = (R.sym(n) for n in ("x", "y", "z1", "z2"))
    want = [x + y * (z1 + z2), z1 ** 2 + z1 * z2 + z2 ** 2 + y ** 2]
    assert list(space.gens) == want
    assert list(spaces[(2,)].gens) == want + [z1 - z2]
    assert expected_dims(g.n, g.p, 2, (1, 1))[1] == 2
    assert local_dimension(space) == 2


def test_build_d3_q2_matches_displayed_generators():
    g = q2()
    spaces = dict(build_Dk(g, 3))
    assert list(spaces) == list(partitions(3))
    space = spaces[(1, 1, 1)]
    R = space.ring
    x, y, z1, z2, z3 = (R.sym(n) for n in ("x", "y", "z1", "z2", "z3"))
    gens = list(space.gens)
    assert x + y * (z1 + z2) in gens
    assert z1 ** 2 + z1 * z2 + z2 ** 2 + y ** 2 in gens
    assert y in gens
    assert z1 + z2 + z3 in gens


def test_d3_of_a_family_is_empty():
    space = dict(build_Dk(a_k(2), 3))[(1, 1, 1)]
    assert germ_is_empty(space)


def test_a1_d3_empty_via_immersion_logic():
    space = dict(build_Dk(a_k(1), 3))[(1, 1, 1)]
    assert germ_is_empty(space)


def test_dk_ideal_mu_values_q2():
    g = q2()
    d2 = dict(build_Dk(g, 2))[(1, 1)]
    assert milnor_icis(d2, 2).milnor == 1
    d3 = dict(build_Dk(g, 3))
    assert milnor_icis(d3[(1, 1, 1)], 1).milnor == 1
    d3t = d3[(2, 1)]
    assert expected_dims(g.n, g.p, 3, (2, 1))[1] == 0
    assert milnor_icis(d3t, 0).milnor == 1
    assert colength(d3t) == 2
    d3c = d3[(3,)]
    assert expected_dims(g.n, g.p, 3, (3,))[1] == -1
    assert not germ_is_empty(d3c)  # the germ is the origin itself
    d4 = dict(build_Dk(g, 4))[(1, 1, 1, 1)]
    assert germ_is_empty(d4)


def test_ak_reduction_to_normal_form():
    for k in (1, 2, 3):
        space = dict(build_Dk(a_k(k), 2))[(1, 1)]
        elim = eliminate_linear(list(space.gens))
        assert len(elim.gens) == 1
        R = elim.ring
        want = R.sym("z1") ** 2 + R.sym("x") ** 2 + R.sym("y") ** (k + 1)
        assert elim.gens[0] == want
        assert milnor_icis(space, 2).milnor == k


def test_dk_sigma_contains_dk_ideal():
    g = q2()
    spaces = dict(build_Dk(g, 3))
    full, fixed = spaces[(1, 1, 1)], spaces[(2, 1)]
    for gen in full.gens:
        assert gen in fixed.gens


def test_dk_ideal_sigma_invariance():
    # permuted generators of D^k reduce to zero against the D^k ideal
    g = q2()
    I = dict(build_Dk(g, 3))[(1, 1, 1)]
    R = I.ring
    perms = [("z1", "z2"), ("z2", "z3")]
    for a, b in perms:
        swap = {a: R.sym(b), b: R.sym(a)}
        for gen in I.gens:
            assert reduces_to_zero(subs(gen, swap), I)


def test_marar_mond_q2_finite():
    rep = marar_mond_check(q2())
    assert rep.finite
    assert rep.first_empty_k == 4
    kinds = {(s.k, s.partition): s.kind for s in rep.statuses}
    assert kinds[(2, (1, 1))] == ICIS
    assert kinds[(3, (3,))] == ORIGIN
    assert kinds[(4, (1, 1, 1, 1))] == EMPTY


def test_marar_mond_violation():
    # the suspension (x, y, z^2, z^3) is not finite: D^2 is a non-isolated germ
    g = make_germ(3, 4, ["z^2", "z^3"])
    rep = marar_mond_check(g, max_k=3)
    assert not rep.finite
    assert any(s.kind == VIOLATION for s in rep.statuses)


def test_marar_mond_immersion():
    g = make_germ(3, 4, ["z", "0"])  # the immersion (x, y, z, 0)
    assert is_immersive(g)
    rep = marar_mond_check(g)
    assert rep.finite
    assert rep.first_empty_k == 2

    rep = marar_mond_check(a_k(1))
    assert rep.finite
    assert rep.first_empty_k == 3


def _assert_fraction_free(p):
    """Integer numerators over a positive int denominator, in lowest terms."""
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c for c in p.terms.values())
    assert math.gcd(p.den, *p.terms.values()) == 1


def test_dk_generators_are_fraction_free():
    # every space the table and the witness streams build: the catalog germs
    # of `table all`, and q2, a1, p1 perturbed at s = 7/3
    # (germ, the germ whose first empty D^k ends the sweep)
    germs = [(e.germ, e.germ) for e in default_simple_entries() + default_nonsimple_entries()]
    for name in ("q2", "a1", "p1"):
        gf = load_germ_file(str(GERMS / f"{name}.germ"))
        pert = gf.symbolic_germ(perturbed=True).at_params({"s": Fraction(7, 3)})
        germs.append((pert, gf.base_germ()))
    dens = set()
    for germ, base in germs:
        for k in range(2, 13):
            for _, ideal in build_Dk(germ, k):
                gens = ideal.gens
                for g in gens:
                    _assert_fraction_free(g)
                    dens.add(g.den)
                for g in eliminate_linear(list(gens)).gens:
                    _assert_fraction_free(g)
                    assert g.den == 1 and g == g.primitive()
            if germ_is_empty(dict(build_Dk(base, k))[(1,) * k]):
                break
        else:
            raise AssertionError(f"no empty D^k for {germ.name}")
    assert dens > {1}  # the perturbed germs carry denominators


def test_catalog_parameter_values_match_the_template_with_rational_literals():
    # rows I and VIII at seeded (a, b) inside the row's guard: the catalog
    # germ equals the row's template parsed with each value written in as a
    # rational literal such as (-5/3), a path that substitutes nothing
    from germlab import catalog

    rng = random.Random(2022)
    ring = PolyRing(("x", "y", "z"))
    for row in ("I", "VIII"):
        templates, guard = catalog._NONSIMPLE[row][:2], catalog._NONSIMPLE[row][-1]
        checked = set()
        while len(checked) < 6:
            values = {name: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
                      for name in "ab"}
            if not guard(values):
                continue
            want = tuple(parse_polynomial(re.sub(r"\b[ab]\b", lambda m: f"({values[m[0]]})", t),
                                          ring) for t in templates)
            assert catalog.nonsimple_entry(row, values).germ.components == want, (row, values)
            # six of the eight kinds: both signs of a and of b, with and without a denominator
            checked.add((values["a"] > 0, values["b"] > 0, values["a"].denominator > 1))
