import random
import sys
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from germlab.ideals import (INF, Ideal, affine_is_smooth, colength,
                            contains_one, germ_is_empty, leading_exponents,
                            local_dimension, minors, singular_locus_ideal, standard_basis)
from germlab.linalg import rank_q
from germlab.milnor import (EmptyGermError, NonIcisError, NonIsolatedError, milnor_icis,
                            mu_chain)
from germlab.poly import PolyError, Polynomial, PolyRing, eliminate_linear
from polyref import subs


def syms(ring):
    return [ring.sym(n) for n in ring.vars]


def test_standard_basis_leads_local():
    # with z2 declared first the basis of <z1+z2, z1^2+z1 z2+z2^2> leads with {z2, z1^2}
    R = PolyRing(("z2", "z1"))
    z2, z1 = syms(R)
    I = Ideal.of([z1 + z2, z1 ** 2 + z1 * z2 + z2 ** 2], local=True)
    leads = set(leading_exponents(I))
    assert leads == {(1, 0), (0, 2)}  # z2 and z1^2


def test_standard_basis_unit_and_monomial():
    from germlab.ideals import standard_basis

    R = PolyRing(("x", "y"))
    x, y = syms(R)
    I = Ideal.of([R.const(1)], local=True)
    assert leading_exponents(I) == [(0, 0)]
    assert standard_basis(I) == ({(0, 0): 1},)
    J = Ideal.of([x ** 2, x * y, y ** 2], local=True)
    assert set(leading_exponents(J)) == {(2, 0), (1, 1), (0, 2)}
    assert sorted(standard_basis(J), key=lambda g: sorted(g)) == [
        {(0, 2): 1}, {(1, 1): 1}, {(2, 0): 1}]
    # the kernel sees variables only: parameters must be substituted first
    P = PolyRing(("x",), ("s",))
    with pytest.raises(PolyError):
        standard_basis(Ideal.of([P.sym("x") ** 2]))


def test_colength_examples():
    R = PolyRing(("x", "y"))
    x, y = syms(R)
    assert colength(Ideal.of([x ** 2, y ** 3])) == 6
    assert colength(Ideal.of([x + y])) == INF
    # Jacobian ideal of x^2 + y^4
    f = x ** 2 + y ** 4
    assert colength(Ideal.of([f.deriv("x"), f.deriv("y")])) == 3


def test_germ_is_empty():
    R = PolyRing(("z1", "z2"))
    z1, z2 = syms(R)
    assert germ_is_empty(Ideal.of([z1 + z2, R.const(1)]))
    assert not germ_is_empty(Ideal.of([z1]))
    assert germ_is_empty(Ideal.of([z1 + z2, z1 ** 2 + 1]))


def test_local_dimension():
    R = PolyRing(("x", "y", "z1"))
    x, y, z1 = syms(R)
    assert local_dimension(Ideal.of([z1 ** 2 + x ** 2 + y ** 2])) == 2
    R2 = PolyRing(("x", "y", "z"))
    x, y, z = syms(R2)
    assert local_dimension(Ideal.of([x, y])) == 1


def test_milnor_morse():
    R = PolyRing(("x", "y", "z1"))
    x, y, z1 = syms(R)
    rep = milnor_icis(Ideal.of([z1 ** 2 + x ** 2 + y ** 2]), 2)
    assert rep.milnor == 1 and rep.is_A1 and not rep.is_smooth
    assert rep.tjurina == 1


def test_milnor_table_forms():
    R = PolyRing(("x", "y", "z1"))
    x, y, z1 = syms(R)
    # reduced D^2 of the A_3 family
    rep = milnor_icis(Ideal.of([z1 ** 2 + x ** 2 + y ** 4]), 2)
    assert rep.milnor == 3
    # reduced D^2 of the B_2 family
    rep = milnor_icis(Ideal.of([x ** 2 + y ** 2 + z1 ** 4]), 2)
    assert rep.milnor == 3


def test_milnor_brieskorn_pham_oracle():
    # mu(sum x_i^{a_i}) = prod(a_i - 1) for every tuple with a_i <= 6, <= 3 vars
    for nv in (1, 2, 3):
        ring = PolyRing(tuple(f"x{i}" for i in range(nv)))
        for exps in product(range(2, 7), repeat=nv):
            f = ring.zero()
            for name, a in zip(ring.vars, exps):
                f = f + ring.sym(name) ** a
            want = 1
            for a in exps:
                want *= a - 1
            rep = milnor_icis(Ideal.of([f]), nv - 1)
            assert rep.milnor == want, (exps, rep.milnor)


def test_milnor_invariance_under_coordinate_changes():
    rng = random.Random(11)
    R = PolyRing(("x", "y", "z1"))
    x, y, z1 = syms(R)
    base = [z1 ** 2 + x ** 2 + y ** 3]
    expect = milnor_icis(Ideal.of(base), 2).milnor
    for _ in range(5):
        # random invertible linear substitution
        while True:
            M = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            if rank_q(M) == 3:
                break
        imgs = {}
        for i, v in enumerate(R.vars):
            acc = R.zero()
            for j, w in enumerate(R.vars):
                acc = acc + R.sym(w) * M[i][j]
            imgs[v] = acc
        moved = [subs(g, imgs) for g in base]
        assert milnor_icis(Ideal.of(moved), 2).milnor == expect


def test_milnor_zero_dimensional():
    R = PolyRing(("z1",))
    z1 = R.sym("z1")
    rep = milnor_icis(Ideal.of([z1 ** 2 * 3]), 0)
    assert rep.milnor == 1  # two points in the generic fiber
    R2 = PolyRing(("x", "y"))
    x, y = syms(R2)
    rep = milnor_icis(Ideal.of([x, y ** 2]), 0)
    assert rep.milnor == 1


def test_milnor_chain_route_matches_hypersurface_route():
    # milnor_icis eliminates z2 and takes the hypersurface's Jacobian
    # colength; the chain on the generators as given must agree
    R = PolyRing(("x", "y", "z1", "z2"))
    x, y, z1, z2 = syms(R)
    gens = [z1 + z2, z1 ** 2 + z1 * z2 + z2 ** 2 + x ** 2 + y ** 4]
    a = milnor_icis(Ideal.of(gens), 2).milnor
    b = mu_chain(gens, R, 2)
    assert a == b == 3


@pytest.mark.parametrize("exprs,mu", [
    (("x^2 + y^3", "z^2 + x^3"), 12),
    (("x^2 + y^2", "y^2 + z^3"), 9),
])
def test_icis_curve_whose_every_deletion_order_fails(exprs, mu):
    # each generator alone is singular along a coordinate axis, so both
    # deletion orders of the chain fail and the classifier must recombine
    # the generators; the oracle is the chain on the recombination
    # (g1 + g2, g2), whose first deletion leaves an isolated hypersurface
    from germlab.parse import parse_polynomial

    R = PolyRing(("x", "y", "z"))
    g1, g2 = (parse_polynomial(e, R) for e in exprs)
    for order in ([g1, g2], [g2, g1]):
        with pytest.raises(NonIsolatedError):
            mu_chain(order, R, 1)
    assert mu_chain([g1 + g2, g2], R, 1) == mu
    rep = milnor_icis(Ideal.of([g1, g2]), 1)
    assert (rep.dim, rep.milnor, rep.tjurina) == (1, mu, None)


def test_milnor_errors():
    R = PolyRing(("x", "y"))
    x, y = syms(R)
    with pytest.raises(NonIcisError):
        milnor_icis(Ideal.of([x * y ** 2 - x]), 0)  # dim 1, not 0
    with pytest.raises(EmptyGermError):
        milnor_icis(Ideal.of([R.const(1)]), 0)
    with pytest.raises(NonIcisError):
        milnor_icis(Ideal.of([x, y]), -1)  # the origin, of negative expected dimension
    with pytest.raises(NonIcisError):
        milnor_icis(Ideal.of([x + y ** 2]), 0)  # a smooth curve, not a point


def test_mu_chain_needs_dimension_one():
    # the classifier measures a space of dimension at most 0 itself; the
    # chain on (x^2, y^2) at dimension 0 would fail its deletion search
    R = PolyRing(("x", "y"))
    x, y = syms(R)
    for gens, dim in (([x ** 2, y ** 2], 0), ([x ** 2, y ** 3], -1), ([], 2)):
        with pytest.raises(NonIcisError, match="dimension >= 1"):
            mu_chain(gens, R, dim)
    assert milnor_icis(Ideal.of([x ** 2, y ** 2]), 0).milnor == 3  # colength 4, minus 1


def smooth(gens):
    """affine_is_smooth on a nonempty space, from its one elimination."""
    I = Ideal.of(gens, local=False)
    assert not contains_one(I)
    return affine_is_smooth(I, eliminate_linear(gens))


def jacobian_oracle(gens):
    """The Jacobian criterion on the presentation as given."""
    return contains_one(singular_locus_ideal(Ideal.of(gens, local=False)))


def test_affine_checks():
    R = PolyRing(("x", "y", "z1", "z2"))
    x, y, z1, z2 = syms(R)
    gens = [z1 ** 2 + z1 * z2 + z2 ** 2 + y ** 2 - 1, x + y * (z1 + z2)]
    assert smooth(gens)
    R2 = PolyRing(("x",))
    x = R2.sym("x")
    assert not smooth([x ** 2])
    R3 = PolyRing(("x", "y"))
    x, y = syms(R3)
    assert smooth([x ** 2 + y ** 2 - 1])
    assert contains_one(Ideal.of([x ** 2 + 1, y - x, x + y], local=False))


def test_fitting_rule_dropped_generator_is_singular():
    # x is eliminated and x*y becomes 0: one row short, so Fitt = 0
    R = PolyRing(("x", "y"))
    x, y = syms(R)
    elim = eliminate_linear([x, x * y])
    assert list(elim.subs) == ["x"] and elim.gens == []
    assert not smooth([x, x * y])
    assert not jacobian_oracle([x, x * y])


def test_fitting_rule_everything_eliminated_is_smooth():
    # the graph of (y^2, z^3): an affine line after eliminating x and y
    R = PolyRing(("x", "y", "z"))
    x, y, z = syms(R)
    gens = [x - y ** 2, y - z ** 3]
    elim = eliminate_linear(gens)
    assert len(elim.subs) == 2 and elim.gens == []
    assert smooth(gens) and jacobian_oracle(gens)


def _random_ideal(rng, R):
    """A few small generators, often linear in some variable, sometimes redundant."""
    xs = syms(R)

    def poly():
        g = R.const(rng.randint(-2, 2))
        for _ in range(rng.randint(1, 3)):
            m = R.const(rng.choice((-2, -1, 1, 3)))
            for _ in range(rng.randint(1, 3)):
                m = m * rng.choice(xs)
            g = g + m
        if rng.random() < 0.5:
            g = g + rng.choice(xs)
        return g

    gens = [poly() for _ in range(rng.randint(1, R.nvars))]
    if rng.random() < 0.3:
        gens.append(gens[0] * rng.choice(xs + [R.const(2)]) + gens[-1])
    return [g for g in gens if not g.is_zero()] or [xs[0]]


def test_fitting_rule_matches_jacobian_criterion_on_original_presentation():
    rng = random.Random(2024)
    branches = {"empty": 0, "dropped": 0, "affine": 0, "minors": 0}
    for trial in range(200):
        R = PolyRing(("x", "y", "z")[:rng.choice((2, 3))])
        gens = _random_ideal(rng, R)
        expected = jacobian_oracle(gens)
        I = Ideal.of(gens, local=False)
        if contains_one(I):
            branches["empty"] += 1
            assert expected, gens  # an empty space counts as smooth
            continue
        elim = eliminate_linear(gens)
        size = min(len(gens), R.nvars) - len(elim.subs)
        branches["dropped" if size > len(elim.gens)
                 else "affine" if not elim.gens else "minors"] += 1
        assert affine_is_smooth(I, elim) == expected, (trial, gens)
    assert all(branches.values()), branches


def _counting_kernel(monkeypatch):
    """Count global standard bases the kernel computes."""
    import germlab._kernel as kernel

    calls = []
    real = kernel.std_basis

    def counting(gens, local, trunc=0):
        calls.append(local)
        return real(gens, local, trunc)

    monkeypatch.setattr(kernel, "std_basis", counting)
    return calls


def test_quadric_smoothness_is_settled_by_elimination(monkeypatch):
    # a quadric's partial derivatives are linear: eliminating its singular
    # locus leaves a constant or nothing, so no standard basis is taken
    R = PolyRing(("x", "y", "z"))
    x, y, z = syms(R)
    cone = x ** 2 + y ** 2 - z ** 2
    cases = [
        ([cone], False),                                      # the cone is singular
        ([cone - 1], True),                                   # a hyperboloid
        ([x ** 2 + y * z + x + 3], True),                     # linear part, no vertex on it
        ([x ** 2 + 2 * x + 1 - y ** 2], False),               # the cone moved to (-1, 0)
        ([x ** 2 - 1], True),                                 # two parallel planes
    ]
    rng = random.Random(7)
    for _ in range(60):
        g = R.const(rng.randint(-2, 2))
        for i, j in combinations(range(3), 2):
            g = g + rng.randint(-2, 2) * syms(R)[i] * syms(R)[j]
        for v in syms(R):
            g = g + rng.randint(-1, 1) * v ** 2 + rng.randint(-1, 1) * v
        if not g.is_zero() and not contains_one(Ideal.of([g], local=False)):
            cases.append(([g], jacobian_oracle([g])))
    assert {want for _, want in cases} == {True, False}
    calls = _counting_kernel(monkeypatch)
    for gens, want in cases:
        I = Ideal.of(gens, local=False)
        assert not contains_one(I)
        elim = eliminate_linear(gens)
        calls.clear()
        assert affine_is_smooth(I, elim) == want, gens
        assert not calls, gens


def test_cubic_singular_locus_falls_back_to_a_standard_basis(monkeypatch):
    # the partials of a cubic are quadrics: the eliminated singular locus
    # keeps two or more generators and its emptiness takes a basis
    from germlab.ideals import affine_elimination

    R = PolyRing(("x", "y", "z"))
    x, y, z = syms(R)
    fermat = x ** 3 + y ** 3 + z ** 3
    calls = _counting_kernel(monkeypatch)
    for gens, want in (([fermat - 1], True), ([fermat], False),
                       ([x ** 3 - y ** 2 * z - 2], True)):
        elim = eliminate_linear(gens)
        assert affine_elimination(Ideal.of(gens, local=False)) is not None
        calls.clear()
        locus = singular_locus_ideal(Ideal.of(elim.gens, local=False))
        assert len(eliminate_linear(locus.gens).gens) >= 2
        assert affine_is_smooth(Ideal.of(gens, local=False), elim) == want
        assert calls == [False], gens
        assert jacobian_oracle(gens) == want
    # emptiness of two non-constant generators takes a basis too
    calls.clear()
    assert affine_elimination(Ideal.of([x ** 2 + 1, x ** 2 - 1], local=False)) is None
    assert affine_elimination(Ideal.of([x ** 2 - 1, y ** 2 - 1], local=False)) is not None
    assert calls == [False, False]


def test_one_generator_emptiness_never_reaches_the_kernel(monkeypatch):
    # no generator, a nonzero constant or a single non-constant generator
    # settles emptiness: 1 is in (g) only when g is a unit
    import germlab._kernel as kernel
    from germlab.ideals import affine_elimination, affine_is_empty

    R = PolyRing(("x", "y", "z"))
    x, y, z = syms(R)
    cases = [([x ** 3 + y ** 2 * z - 1], False), ([x ** 2 + y ** 2 + z ** 2 + 1], False),
             ([x + 1, x - 1], True), ([x - y, x ** 2 - y ** 3], False),
             ([x - y ** 2, y - z ** 3], False), ([R.const(3)], True)]
    expected = [contains_one(Ideal.of(gens, local=False)) for gens, _ in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("standard basis of a presentation with at most one generator")

    monkeypatch.setattr(kernel, "std_basis", refuse)
    for (gens, want), oracle in zip(cases, expected):
        elim = eliminate_linear(gens)
        assert len(elim.gens) <= 1 or any(len(g.terms) == 1 and g.constant_term()
                                          for g in elim.gens), gens
        assert affine_is_empty(elim) == want == oracle, gens
        assert (affine_elimination(Ideal.of(gens, local=False)) is None) == want, gens


def test_colength_counts_local_fiber_points():
    # unit factors are invisible to the local ring: z^2(1 - z) has local degree 2
    R = PolyRing(("z",))
    z = R.sym("z")
    assert colength(Ideal.of([z ** 2 - z ** 3])) == 2
    R2 = PolyRing(("u", "v"))
    u, v = R2.sym("u"), R2.sym("v")
    # (u^2, v^3) covers a generic value 6 times near the origin
    assert colength(Ideal.of([u ** 2, v ** 3])) == 6
    assert colength(Ideal.of([u ** 2 - u ** 4, v * (1 + u + v)])) == 2


def test_colength_generator_permutation_invariance():
    rng = random.Random(5)
    R = PolyRing(("x", "y", "z1"))
    x, y, z1 = syms(R)
    gens = [z1 ** 2 + x ** 3, x * y, y ** 4 + z1 * x]
    base = colength(Ideal.of(gens))
    for _ in range(5):
        p = gens[:]
        rng.shuffle(p)
        assert colength(Ideal.of(p)) == base


def test_standard_basis_memo_cannot_be_grown_by_callers():
    from germlab.ideals import standard_basis

    R = PolyRing(("x", "y"))
    x, y = syms(R)
    I = Ideal.of([x ** 2 - y ** 3, x * y], local=True)
    basis = standard_basis(I)
    size = len(basis)
    with pytest.raises(AttributeError):
        basis.append({(0, 0): 1})  # a unit would make I the whole local ring
    assert len(standard_basis(I)) == size
    assert (0, 0) not in leading_exponents(I)
    assert colength(I) == 5  # 1, x, y, y^2, y^3


def _macaulay_colength(gens, nvars, D):
    """dim_Q Q[x]/(I + m^D) by linear algebra alone, no standard basis.

    The multiples x^a * g of the generators, cut modulo m^D, span the image
    of I in Q[x]/m^D, whose dimension is the number of monomials of degree
    < D; the quotient's dimension is that number minus their rank.  Columns
    run from the highest degree down, which keeps the elimination sparse.
    """
    cols = sorted((e for e in product(range(D), repeat=nvars) if sum(e) < D),
                  key=lambda e: (-sum(e), e))
    index = {e: i for i, e in enumerate(cols)}
    rows = []
    for g in gens:
        terms = g.coefficients()
        for a in cols:
            row = {}
            for e, c in terms.items():
                m = tuple(x + y for x, y in zip(a, e))
                if sum(m) < D:
                    row[index[m]] = c
            if row:
                rows.append(row)
    rows.sort(key=min)
    dense = [[Fraction(0)] * len(cols) for _ in rows]
    for out, row in zip(dense, rows):
        for i, c in row.items():
            out[i] = c
    return len(cols) - (rank_q(dense) if dense else 0)


def _macaulay_oracle(gens, nvars, start, stop):
    """(colength, corner) from dim Q[x]/(I + m^D), D = start, start + 1, ...

    The dimension at D + 1 exceeds the one at D by the number of standard
    monomials of degree D.  Once two consecutive values agree, m^D lies in
    I + m^(D+1), so in I by Nakayama, and the value is the colength; the
    corner (highest standard degree) is exact when the first values differ.
    (INF, None) when the values still grow at `stop`.
    """
    prev = _macaulay_colength(gens, nvars, start)
    for D in range(start + 1, stop + 1):
        cur = _macaulay_colength(gens, nvars, D)
        if cur == prev:
            return cur, (D - 2 if D > start + 1 else None)
        prev = cur
    return INF, None


def _random_tail(rng, ring, low, high):
    """A few random monomials of total degree in [low, high], small coefficients."""
    nv = ring.nvars
    tail = ring.zero()
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(low, high)
        e = [0] * nv
        for _ in range(d):
            e[rng.randrange(nv)] += 1
        tail = tail + Polynomial(ring, {tuple(e): rng.choice([-5, -2, -1, 1, 3, 4])})
    return tail


def _scrambled(rng, ring, gens):
    """Same ideal, messier generators: g_i += q * g_j, plus one combination."""
    gens = list(gens)
    for _ in range(2):
        i, j = rng.sample(range(len(gens)), 2)
        q = ring.const(rng.choice([-2, 1, 3])) + _random_tail(rng, ring, 1, 2)
        gens[i] = gens[i] + q * gens[j]
    mix = ring.zero()
    for g in gens:
        mix = mix + _random_tail(rng, ring, 0, 2) * g
    if not mix.is_zero():
        gens.append(mix)
    rng.shuffle(gens)
    return gens


def test_colength_matches_macaulay_rank_oracle():
    # Initial forms x_i^(a_i) form a regular sequence, so the corner is
    # sum(a_i - 1) and the colength prod(a_i), whatever the higher tails;
    # the shapes put corners far below, at (D - 2) and just above (D - 1)
    # each rung D of the truncation ladder 8, 16, 32; above the last rung
    # colength falls back to the untruncated basis.
    shapes = [(2, 2), (2, 3), (1, 3), (2, 2, 2), (2, 2, 3), (3, 5), (2, 3, 4),
              (4, 5), (2, 3, 5), (7, 9), (8, 9), (1, 31), (1, 32)]
    rng = random.Random(2024)
    corners = set()
    for shape in shapes:
        nv = len(shape)
        R = PolyRing(("x", "y", "z")[:nv])
        base = [R.sym(v) ** a + _random_tail(rng, R, a + 1, a + 4)
                for v, a in zip(R.vars, shape)]
        gens = _scrambled(rng, R, base)
        top = sum(a - 1 for a in shape)
        # the oracle reads the unscrambled generators of the same ideal
        want, corner = _macaulay_oracle(base, nv, top, top + 2)
        assert corner == top, shape
        assert colength(Ideal.of(gens)) == want, shape
        corners.add(top)
    assert {6, 7, 14, 15, 30, 31} <= corners and min(corners) <= 4

    # staircases that are not complete intersections: the oracle alone knows
    for a, (c, d), b in [(3, (1, 2), 4), (5, (2, 2), 6), (6, (3, 1), 3)]:
        R = PolyRing(("x", "y"))
        x, y = syms(R)
        base = [x ** a + _random_tail(rng, R, a + 1, a + 3),
                x ** c * y ** d + _random_tail(rng, R, c + d + 1, c + d + 3),
                y ** b + _random_tail(rng, R, b + 1, b + 3)]
        gens = _scrambled(rng, R, base)
        want, _ = _macaulay_oracle(base, 2, 1, a + b + 2)
        assert want != INF
        assert colength(Ideal.of(gens)) == want, (a, c, d, b)


def test_coprime_leads_colength_matches_macaulay_oracle_without_their_s_polynomials(monkeypatch):
    # Row I's quadruple point space, eliminated to four variables, has
    # colength 24 and basis leads z1, z2^2, z3^3, z4^4, each lead with a long
    # tail (positive ecart).  The kernel skips every S-pair of coprime leads
    # (product criterion); the rank oracle checks the colength that results.
    from germlab import _kernel
    from germlab.catalog import nonsimple_entry
    from germlab.germs import build_Dk

    germ = nonsimple_entry("I", {"a": Fraction(0), "b": Fraction(1)}).germ
    elim = eliminate_linear(dict(build_Dk(germ, 4))[(1, 1, 1, 1)].gens)
    J = Ideal.of(elim.gens)
    reduced = []
    nf_local = _kernel._nf_local

    def spy(h, reducers, *rest):
        pair = sys._getframe(1).f_locals  # the completion loop's S-pair
        reduced.append((pair["gi"][3], pair["gj"][3]))
        return nf_local(h, reducers, *rest)

    monkeypatch.setattr(_kernel, "_nf_local", spy)
    assert colength(J) == 24
    basis = standard_basis(J)
    leads = [_kernel.lead_exp(g, True) for g in basis]
    assert sorted(leads, reverse=True) == [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 4)]
    assert all(max(map(sum, g)) > sum(e) for g, e in zip(basis, leads))  # positive ecart
    assert reduced and all(any(map(min, a, b)) for a, b in reduced)
    assert _macaulay_oracle(elim.gens, 4, 6, 8) == (24, 6)


def test_colength_infinite_matches_growing_macaulay_dimension():
    rng = random.Random(7)
    R2 = PolyRing(("x", "y"))
    x, y = syms(R2)
    f = x ** 2 - y ** 3 + _random_tail(rng, R2, 4, 5)
    R3 = PolyRing(("x", "y", "z"))
    X, Y, Z = syms(R3)
    samples = [
        (R2, [f * (x + _random_tail(rng, R2, 2, 3)), f * (y ** 2 + _random_tail(rng, R2, 3, 4))]),
        (R2, [x * y ** 2 + _random_tail(rng, R2, 4, 6)]),
        (R3, [X ** 2 + _random_tail(rng, R3, 3, 5), Y ** 3 + _random_tail(rng, R3, 4, 6)]),
    ]
    for ring, gens in samples:
        # the quotient modulo m^D keeps growing: no m^D lies in I
        assert _macaulay_oracle(gens, ring.nvars, 1, 9) == (INF, None)
        assert colength(Ideal.of(gens)) == INF


def _leibniz_minors(matrix, size):
    """Nonzero size x size minors by the permutation sum, rows then columns."""
    ring = matrix[0][0].ring
    out = []
    for rows in combinations(range(len(matrix)), size):
        for cols in combinations(range(len(matrix[0])), size):
            det = ring.zero()
            for perm in permutations(range(size)):
                inversions = sum(perm[i] > perm[j]
                                 for i in range(size) for j in range(i + 1, size))
                term = ring.const(-1 if inversions % 2 else 1)
                for i, j in enumerate(perm):
                    term = term * matrix[rows[i]][cols[j]]
                det = det + term
            if not det.is_zero():
                out.append(det)
    return out


def _sparse_entry(rng, ring):
    if rng.random() < 0.4:
        return ring.zero()
    entry = ring.zero()
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(0, 2) for _ in ring.vars)
        entry = entry + Polynomial(ring, {e: Fraction(rng.choice([-3, -1, 1, 2]),
                                                      rng.choice([1, 1, 2]))})
    return entry


def test_minors_match_leibniz_oracle():
    # the Jacobian shapes of the workloads (one row per generator, full-row
    # minors), then shapes with fewer minor rows than matrix rows, where
    # sub-minors on the same columns but different rows must stay apart
    rng = random.Random(11)
    R = PolyRing(("x", "y", "z"))
    full_row = [(1, 2, 1), (1, 3, 1), (2, 3, 2), (2, 4, 2), (3, 4, 3), (4, 5, 4), (5, 5, 5)]
    below = [(3, 3, 2), (4, 4, 2), (4, 5, 3), (5, 5, 3)]
    nonzero = 0
    for nrows, ncols, size in full_row + below:
        for _ in range(3):
            m = [[_sparse_entry(rng, R) for _ in range(ncols)] for _ in range(nrows)]
            want = _leibniz_minors(m, size)
            assert minors(m, size) == want, (nrows, ncols, size)
            nonzero += len(want)
    assert nonzero > 100

    x, y, z = syms(R)
    zero_row = [[x, y * z, R.const(2)], [R.zero()] * 3, [z ** 2, x - y, y]]
    assert minors(zero_row, 3) == []
    assert minors(zero_row, 2) == _leibniz_minors(zero_row, 2) != []
    a, b = x + 1, y * z - 2
    r0 = [x * y, z, R.zero(), y ** 2]
    r1 = [R.const(3), x ** 2, y, z]
    deficient = [r0, r1, [a * p + b * q for p, q in zip(r0, r1)]]
    assert minors(deficient, 3) == []
    assert minors(deficient, 2) == _leibniz_minors(deficient, 2)
    assert len(minors(deficient, 2)) == 18
