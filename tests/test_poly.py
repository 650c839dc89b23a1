import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from germlab.germfile import load_germ_file
from germlab.germs import GermCorank1, GermError
from germlab.parse import parse_polynomial
from germlab.poly import PolyError, PolyRing, Polynomial, divided_differences, eliminate_linear
from polyref import divided_difference, h_complete, is_immersive, reduces_to_zero, subs


R3 = PolyRing(("x", "y", "z"), ("s",))


def test_ring_basics():
    x, y, z, s = (R3.sym(n) for n in "xyzs")
    p = x * y + z ** 2 - s * z
    assert p.degree_in("z") == 2
    assert p.involves("s")
    assert (p - p).is_zero()
    assert p.constant_term() == 0
    q = p.subs_params({"s": Fraction(1)})
    assert q.ring.params == ()


def test_equal_rings_compare_and_hash_equal_and_keep_their_symbol_table():
    import dataclasses
    import pickle

    a, b = PolyRing(("x", "y", "z"), ("s",)), PolyRing(tuple("xyz"), ("s",))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != PolyRing(("x", "y", "z", "s")) and a != PolyRing(("x", "y"), ("z", "s"))
    for ring in (dataclasses.replace(a), pickle.loads(pickle.dumps(a))):
        assert ring == a and hash(ring) == hash(a)
        assert ring.syms == ("x", "y", "z", "s") and ring.nsyms == 4
    ring = dataclasses.replace(a, params=())
    assert ring.syms == ("x", "y", "z") and ring.nsyms == 3

def test_pow_and_mul():
    x = R3.sym("x")
    y = R3.sym("y")
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert (x + y) ** 0 == R3.const(1)
    with pytest.raises(PolyError):
        (x + y) ** -1


def random_poly(ring, rng, maxdeg=4, nterms=5):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = tuple(rng.randint(0, maxdeg) for _ in range(ring.nsyms))
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(ring, terms)


def test_divided_differences_match_h_complete_and_recursion():
    # F_j = sum_m coeff_m * h_{m-j}(z_1..z_{j+1}), and the divided-difference
    # recursion (z_1 - z_{j+1}) F_j = F_{j-1}(z_1..z_j) - F_{j-1}(z_2..z_{j+1})
    rng = random.Random(4242)
    src = PolyRing(("x", "y", "z"), ("s", "t"))
    fresh = ["z1", "z2", "z3", "z4"]
    tgt = PolyRing(("x", "y", *fresh), ("s", "t"))
    zs = [tgt.sym(n) for n in fresh]
    for _ in range(120):
        f = random_poly(src, rng, maxdeg=5, nterms=6)
        outs = divided_differences(f, "z", fresh, tgt)
        for j, F in enumerate(outs, start=1):
            expect = tgt.zero()
            for e, c in f.coefficients().items():
                coeff = tgt.monomial({"x": e[0], "y": e[1], "s": e[3], "t": e[4]}, c)
                expect = expect + coeff * h_complete(tgt, e[2] - j, fresh[: j + 1])
            assert F == expect
        prev = [subs(f, {"z": zs[0]}, tgt)] + outs
        for j in range(1, len(fresh)):
            shifted = subs(prev[j - 1], {fresh[i]: zs[i + 1] for i in range(j)})
            assert (zs[0] - zs[j]) * prev[j] == prev[j - 1] - shifted
    with pytest.raises(PolyError):  # y is used but absent from the target
        divided_differences(src.sym("y") * src.sym("z") ** 2, "z", fresh[:2],
                            PolyRing(("x", "z1", "z2"), ("s", "t")))


def test_divided_difference_identity_bulk():
    # (z1 - z2) * q == f(z1) - f(z2), exact expansion, 500 random polynomials
    rng = random.Random(20240817)
    src = PolyRing(("x", "y", "z"), ("s",))
    tgt = PolyRing(("x", "y", "z1", "z2"), ("s",))
    z1, z2 = tgt.sym("z1"), tgt.sym("z2")
    for _ in range(500):
        f = random_poly(src, rng)
        q = divided_differences(f, "z", ["z1", "z2"], tgt)[0]
        f1 = subs(f, {"z": z1}, tgt)
        f2 = subs(f, {"z": z2}, tgt)
        assert (z1 - z2) * q == f1 - f2


def test_divided_difference_examples():
    src = PolyRing(("x", "y", "z"))
    tgt = PolyRing(("x", "y", "z1", "z2"))
    z1, z2 = tgt.sym("z1"), tgt.sym("z2")
    x, y = tgt.sym("x"), tgt.sym("y")
    z = src.sym("z")

    q = divided_difference(z ** 2, "z", ("z1", "z2"), tgt)
    assert q == z1 + z2

    f = z * (z ** 2 + src.sym("x") ** 2 + src.sym("y") ** 2)
    q = divided_difference(f, "z", ("z1", "z2"), tgt)
    assert q == z1 ** 2 + z1 * z2 + z2 ** 2 + x ** 2 + y ** 2

    f = src.sym("x") * z + src.sym("y") * z ** 2
    q = divided_difference(f, "z", ("z1", "z2"), tgt)
    assert q == x + y * (z1 + z2)


def test_iterated_divided_differences():
    src = PolyRing(("z",))
    tgt = PolyRing(("z1", "z2", "z3"))
    z = src.sym("z")
    z1, z2, z3 = (tgt.sym(n) for n in ("z1", "z2", "z3"))

    out = divided_differences(z ** 2, "z", ["z1", "z2", "z3"], tgt)
    assert out == [z1 + z2, tgt.const(1)]

    out = divided_differences(z ** 3, "z", ["z1", "z2", "z3"], tgt)
    assert out[0] == z1 ** 2 + z1 * z2 + z2 ** 2
    assert out[1] == z1 + z2 + z3

    out = divided_differences(z, "z", ["z1", "z2"], tgt)
    assert out == [tgt.const(1)]


def test_divided_difference_vandermonde_oracle():
    # j-th divided difference of z^m equals h_{m-j}(z_1..z_{j+1}) where the
    # oracle expands the Vandermonde quotient by brute-force polynomial division.
    src = PolyRing(("z",))
    names = ["z1", "z2", "z3", "z4"]
    tgt = PolyRing(tuple(names))
    z = src.sym("z")
    for m in range(1, 7):
        outs = divided_differences(z ** m, "z", names, tgt)
        for j, q in enumerate(outs, start=1):
            assert q == h_complete(tgt, m - j, names[: j + 1])


def test_divided_difference_symmetry():
    rng = random.Random(7)
    src = PolyRing(("x", "z"))
    tgt = PolyRing(("x", "z1", "z2", "z3"))
    for _ in range(25):
        f = random_poly(src, rng)
        outs = divided_differences(f, "z", ["z1", "z2", "z3"], tgt)
        f2 = outs[1]
        for a, b in (("z1", "z2"), ("z2", "z3"), ("z1", "z3")):
            swapped = subs(f2, {a: tgt.sym(b), b: tgt.sym(a)})
            assert swapped == f2


def test_eliminate_linear_basic():
    R = PolyRing(("x", "y", "z1", "z2"))
    x, y, z1, z2 = (R.sym(n) for n in R.vars)
    res = eliminate_linear([z1 + z2, z1 ** 2 + z1 * z2 + z2 ** 2 + x ** 2 + y ** 2])
    assert list(res.subs) == ["z2"]
    assert res.subs["z2"] == -z1
    assert len(res.gens) == 1
    r = res.ring
    assert res.gens[0] == r.sym("z1") ** 2 + r.sym("x") ** 2 + r.sym("y") ** 2


def test_eliminate_linear_no_move():
    R = PolyRing(("x", "y"))
    x, y = R.sym("x"), R.sym("y")
    res = eliminate_linear([x ** 2 + y ** 2])
    assert res.subs == {}
    assert res.gens == [x ** 2 + y ** 2]


def test_eliminate_linear_graph():
    R = PolyRing(("x", "y", "z1", "z2"))
    x, y, z1, z2 = (R.sym(n) for n in R.vars)
    gens = [x + y * (z1 + z2), z1 ** 2 + z1 * z2 + z2 ** 2 + y ** 2]
    res = eliminate_linear(gens)
    assert list(res.subs) == ["x"]
    assert res.subs["x"] == -(y * (z1 + z2))
    r = res.ring
    assert res.gens == [
        r.sym("z1") ** 2 + r.sym("z1") * r.sym("z2") + r.sym("z2") ** 2 + r.sym("y") ** 2
    ]


def test_eliminate_preserves_ideal_membership():
    # substitute-and-check both ways through a Groebner oracle
    from germlab.ideals import Ideal

    R = PolyRing(("x", "y", "z1", "z2"))
    x, y, z1, z2 = (R.sym(n) for n in R.vars)
    cases = [
        [z1 + z2, z1 ** 2 + z1 * z2 + z2 ** 2 + x ** 2 + y ** 2],
        # z2 is solved first in terms of x, which is eliminated after it
        [z1 + z2 + x ** 2, x + y * z1, z1 ** 3 + y ** 2 + z2 * y],
    ]
    for gens in cases:
        res = eliminate_linear(gens)
        # original generators die in the output ideal + substitution relations
        lifted = [g.cast(R) for g in res.gens]
        lifted += [R.sym(v) - s.cast(R) for v, s in res.subs.items()]
        I = Ideal.of(lifted, local=False)
        for g in gens:
            assert reduces_to_zero(g, I)
        J = Ideal.of(gens + [R.sym(v) - s.cast(R) for v, s in res.subs.items()], local=False)
        for g in lifted:
            assert reduces_to_zero(g, J)
    assert list(res.subs) == ["z2", "x"] and res.subs["z2"].involves("x")


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(99)
    for _ in range(60):
        f = random_poly(R3, rng)
        g = random_poly(R3, rng)
        h = random_poly(R3, rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f + R3.zero() == f
        assert f * R3.const(1) == f
        assert (f - f).is_zero()


def test_parse_roundtrip_smoke():
    from germlab.catalog import default_nonsimple_entries, default_simple_entries
    from germlab.parse import parse_polynomial, to_string

    p = parse_polynomial("z^3 + y^2*z - s*z", R3)
    assert len(p.terms) == 3
    catalog = [c for e in default_simple_entries() + default_nonsimple_entries()
               for c in e.germ.components]
    for q in [p] + catalog:
        assert parse_polynomial(to_string(q), q.ring) == q
    assert parse_polynomial("0", R3).is_zero()
    q = parse_polynomial("(z - y)*(z + y)", PolyRing(("y", "z")))
    r = PolyRing(("y", "z"))
    assert q == r.sym("z") ** 2 - r.sym("y") ** 2


def test_germ_origin_checks():
    R = PolyRing(("x", "y", "z"), ("s",))

    def germ(*exprs):
        return GermCorank1(3, 4, R, tuple(parse_polynomial(e, R) for e in exprs))

    for bad in (("z^2 + 1", "z^3"), ("z^2", "z^3 - 1/2 + x"), ("z^2 + x", "s^2 + 3")):
        with pytest.raises(GermError):
            germ(*bad)
    germ("z^2 + s*x", "z^3 + s*z")  # parameters are evaluated at 0

    def immersive_by_evaluation(g):
        zero = {v: 0 for v in g.ring.syms}
        return any(not subs(h.deriv(g.zvar), zero).is_zero()
                   for h in g.components)

    assert is_immersive(germ("z + z^2", "z^3"))
    assert not is_immersive(germ("s*z + z^2", "z^3"))
    germs_dir = Path(__file__).resolve().parent.parent / "germs"
    shipped = []
    for path in sorted(germs_dir.glob("*.germ")):
        gf = load_germ_file(str(path))
        shipped += [gf.symbolic_germ(), gf.base_germ()]
        if gf.perturbation is not None:
            shipped.append(gf.symbolic_germ(perturbed=True))
    assert len(shipped) >= 8
    for g in shipped:
        assert is_immersive(g) == immersive_by_evaluation(g)


# -- scalars: only int and Fraction ------------------------------------------


def test_float_and_bool_scalars_are_refused():
    x, y = R3.sym("x"), R3.sym("y")
    p = x * y + 1
    e = (1, 0, 0, 0)
    refused = [
        lambda: R3.const(0.1),
        lambda: R3.const(True),
        lambda: R3.const("1/2"),
        lambda: R3.monomial({"x": 2}, 0.5),
        lambda: Polynomial(R3, {e: 0.5}),
        lambda: Polynomial(R3, {e: False}),
        lambda: p.subs_params({"s": 0.5}),
        lambda: p.subs_params({"s": True}),
        lambda: (p * R3.sym("s")).subs_params({"s": 0.5}),
        lambda: p * 0.5,
        lambda: 0.5 * p,
        lambda: p * True,
        lambda: p + 0.5,
        lambda: 0.5 + p,
        lambda: p - 0.5,
        lambda: 0.5 - p,
    ]
    for make in refused:
        with pytest.raises(PolyError):
            make()
    # ints and Fractions still work, exactly
    assert (p * Fraction(1, 2)).coefficients() == {(1, 1, 0, 0): Fraction(1, 2),
                                                   (0, 0, 0, 0): Fraction(1, 2)}
    assert R3.const(Fraction(3, 6)) == R3.const(1) * Fraction(1, 2)
    small = PolyRing(("x", "y", "z"))
    assert (y * R3.sym("s") + 1).subs_params({"s": Fraction(2, 3)}) == \
        small.sym("y") * Fraction(2, 3) + 1


# -- a dict-of-Fraction reference for the fraction-free arithmetic ------------


def _clean(d):
    return {e: c for e, c in d.items() if c}


def _r_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return _clean(out)


def _r_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(p + q for p, q in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _clean(out)


def _r_pow(a, k, n):
    out = {(0,) * n: Fraction(1)}
    for _ in range(k):
        out = _r_mul(out, a)
    return out


def _r_deriv(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


def _r_subs(a, i, value):
    """Substitute symbol i by a Fraction or a reference polynomial (same ring)."""
    out = {}
    n = len(next(iter(a))) if a else 0
    for e, c in a.items():
        rest = {e[:i] + (0,) + e[i + 1:]: c}
        if isinstance(value, dict):
            term = _r_mul(rest, _r_pow(value, e[i], n))
        else:
            term = _clean({m: v * value ** e[i] for m, v in rest.items()})
        out = _r_add(out, term)
    return out


def _random_ref(rng, nsyms, maxdeg=3, nterms=5, dens=(1, 2, 3, 4, 6)):
    d = {}
    for _ in range(rng.randint(1, nterms)):
        e = tuple(rng.randint(0, maxdeg) for _ in range(nsyms))
        d[e] = Fraction(rng.randint(-9, 9), rng.choice(dens))
    return _clean(d)


def _assert_canonical(p):
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c for c in p.terms.values())
    g = p.den
    for c in p.terms.values():
        g = math.gcd(g, c)
    assert g == 1 or not p.terms
    assert p.terms or p.den == 1


def test_fraction_free_arithmetic_matches_fraction_reference():
    rng = random.Random(14)
    n = R3.nsyms
    small = PolyRing(("x", "y", "z"))
    wide = PolyRing(("w", "z", "y", "x"), ("t", "s"))
    for _ in range(150):
        a, b = (_random_ref(rng, n) for _ in range(2))
        f, g = (Polynomial(R3, d) for d in (a, b))
        q = Fraction(rng.choice([-7, -2, 1, 3, 5]), rng.choice([1, 2, 9]))
        k = rng.randint(0, 3)
        results = [
            (f + g, _r_add(a, b)),
            (f - g, _r_add(a, b, -1)),
            (f * g, _r_mul(a, b)),
            (f * q, _clean({e: c * q for e, c in a.items()})),
            (q - f, _r_add({(0,) * n: q} if q else {}, a, -1)),
            (f ** k, _r_pow(a, k, n)),
            (f.deriv("y"), _r_deriv(a, 1)),
        ]
        for got, want in results:
            _assert_canonical(got)
            assert got.coefficients() == want
        for s in (Fraction(7, 3), Fraction(-1, 2)):
            got = f.subs_params({"s": s})
            assert got.ring == small
            _assert_canonical(got)
            assert got.coefficients() == {e[:3]: c for e, c in _r_subs(a, 3, s).items()}
        # cast to a larger, reordered ring: x y z s -> positions 3 2 1 5
        got = f.cast(wide)
        _assert_canonical(got)
        assert got.coefficients() == {(0, e[2], e[1], e[0], 0, e[3]): c for e, c in a.items()}
    # two parameters with denominators and both signs; u does not occur, so
    # leaving it unassigned counts it as 0
    two = PolyRing(("x", "y", "z"), ("s", "t", "u"))
    signs = set()
    for _ in range(60):
        a = {e + (0,): c for e, c in _random_ref(rng, 5).items()}
        f = Polynomial(two, a)
        s, t = (Fraction(rng.choice([-7, -2, 3, 5]), rng.choice([2, 3, 9])) for _ in range(2))
        signs.add((s > 0, t > 0))
        got = f.subs_params({"s": s, "t": t})
        assert got.ring == small
        _assert_canonical(got)
        assert got.coefficients() == {e[:3]: c for e, c in _r_subs(_r_subs(a, 3, s), 4, t).items()}
    assert len(signs) == 4
    with pytest.raises(PolyError):
        (f + two.sym("u")).subs_params({"s": s, "t": t})


def test_equal_values_built_by_different_routes_are_one_value():
    rng = random.Random(1414)
    x, s = R3.sym("x"), R3.sym("s")
    for _ in range(60):
        f, g, h = (Polynomial(R3, _random_ref(rng, R3.nsyms)) for _ in range(3))
        q = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        pairs = [
            (f * g + f * h, f * (g + h)),
            ((f * q) * (1 / q), f),
            ((f + g) - g, f),
            (f * 3 - f * 3, R3.zero()),
            (Polynomial(R3, f.coefficients()), f),
            ((x * q + s) ** 2, x * x * q * q + x * s * (2 * q) + s * s),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1
            assert a.den == b.den and a.terms == b.terms


def _leibniz(m):
    from itertools import permutations

    n = len(m)
    total = {}
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = {(0,) * R3.nsyms: Fraction(-1 if inversions % 2 else 1)}
        for i in range(n):
            term = _r_mul(term, m[i][perm[i]])
        total = _r_add(total, term)
    return total


def test_minors_match_leibniz_determinants():
    from itertools import combinations

    from germlab.ideals import minors

    rng = random.Random(2718)
    for _ in range(12):
        rows, cols = rng.choice([(2, 3), (3, 3), (3, 4)])
        ref = [[_random_ref(rng, R3.nsyms, maxdeg=2, nterms=3) if rng.random() < 0.8 else {}
                for _ in range(cols)] for _ in range(rows)]
        mat = [[Polynomial(R3, d) for d in row] for row in ref]
        for size in range(1, rows + 1):
            want = []
            for rs in combinations(range(rows), size):
                for cs in combinations(range(cols), size):
                    d = _leibniz([[ref[r][c] for c in cs] for r in rs])
                    if d:
                        want.append(d)
            got = minors(mat, size)
            for p in got:
                _assert_canonical(p)
            assert [p.coefficients() for p in got] == want


# -- fraction-free elimination ----------------------------------------------


def _r_eliminate(gens, nv):
    """Reference elimination over Fractions, with eliminate_linear's choice rule."""
    live = [g for g in gens if g]
    solved = []
    while True:
        pick = None
        for idx, g in enumerate(live):
            names = [i for i in range(nv)
                     if sum(1 for e in g if e[i]) == 1
                     and any(e[i] == 1 and sum(e) == 1 for e in g)]
            if names:
                pick = (idx, max(names))
                break
        if pick is None:
            return live, solved
        idx, i = pick
        g = live.pop(idx)
        coef = next(c for e, c in g.items() if e[i])
        sol = {e: -c / coef for e, c in g.items() if not e[i]}
        live = [h for h in (_r_subs(h, i, sol) for h in live) if h]
        solved.append((i, sol))


def _assert_positive_multiples(res, live, solved, ring):
    dead = {i for i, _ in solved}
    assert [ring.var_index(v) for v in res.subs] == [i for i, _ in solved]
    for (i, sol), (name, got) in zip(solved, res.subs.items()):
        assert got.coefficients() == sol, name  # the exact rational solution
    assert len(res.gens) == len(live)
    for G, H in zip(res.gens, live):
        assert G.den == 1 and math.gcd(*G.terms.values()) == 1  # primitive
        H = {tuple(a for j, a in enumerate(e) if j not in dead): c for e, c in H.items()}
        assert H.keys() == G.terms.keys()
        ratios = {G.terms[e] / c for e, c in H.items()}
        assert len(ratios) == 1 and ratios.pop() > 0


def test_fraction_free_elimination_example():
    R = PolyRing(("x", "y", "z"))
    x, y, z = (R.sym(n) for n in R.vars)
    gens = [-3 * x + y ** 2, x ** 2 + y ** 2 + z ** 2 - 1]
    res = eliminate_linear(gens)
    assert res.subs == {"x": y ** 2 * Fraction(1, 3)}
    r = res.ring
    ry, rz = r.sym("y"), r.sym("z")
    # 9 * ((y^2/3)^2 + y^2 + z^2 - 1)
    assert res.gens == [ry ** 4 + 9 * ry ** 2 + 9 * rz ** 2 - 9]
    live, solved = _r_eliminate([{e: Fraction(c) for e, c in g.coefficients().items()}
                                 for g in gens], R.nvars)
    _assert_positive_multiples(res, live, solved, R)


def test_fraction_free_elimination_matches_fraction_reference():
    rng = random.Random(31)
    R = PolyRing(("x", "y", "z", "w"), ("s",))
    n = R.nsyms
    for _ in range(120):
        gens = []
        for i in rng.sample(range(4), rng.randint(1, 3)):
            tail = _random_ref(rng, n, maxdeg=2, nterms=4)
            tail = {e: c for e, c in tail.items() if not e[i] and sum(e) != 1}
            unit = tuple(int(j == i) for j in range(n))
            tail[unit] = Fraction(rng.choice([-6, -3, -2, 2, 3, 5]), rng.choice([1, 2, 3]))
            gens.append(tail)
        gens.append(_random_ref(rng, n, maxdeg=3, nterms=5))
        rng.shuffle(gens)
        res = eliminate_linear([Polynomial(R, g) for g in gens])
        live, solved = _r_eliminate(gens, R.nvars)
        _assert_positive_multiples(res, live, solved, R)
