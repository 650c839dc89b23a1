import random
from fractions import Fraction
from itertools import product

import pytest

from germlab.ideals import (INF, Ideal, affine_is_smooth, colength,
                            contains_one, germ_is_empty, leading_exponents,
                            local_dimension)
from germlab.milnor import (EmptyGermError, NonIcisError, milnor_icis)
from germlab.orders import MonomialOrder
from germlab.poly import PolyRing


def syms(ring):
    return [ring.sym(n) for n in ring.vars]


def test_standard_basis_leads_local():
    # with priority z2 > z1 the basis of <z1+z2, z1^2+z1 z2+z2^2> leads with {z2, z1^2}
    R = PolyRing(("z1", "z2"))
    z1, z2 = syms(R)
    I = Ideal.of([z1 + z2, z1 ** 2 + z1 * z2 + z2 ** 2], local=True)
    order = MonomialOrder(local=True, priority=("z2", "z1"))
    leads = set(leading_exponents(I, order))
    assert leads == {(0, 1), (2, 0)}  # z2 and z1^2


def test_standard_basis_unit_and_monomial():
    from germlab.ideals import standard_basis_ideal

    R = PolyRing(("x", "y"))
    x, y = syms(R)
    I = Ideal.of([R.const(1)], local=True)
    assert leading_exponents(I) == [(0, 0)]
    assert standard_basis_ideal(I).gens == (R.const(1),)
    J = Ideal.of([x ** 2, x * y, y ** 2], local=True)
    assert set(leading_exponents(J)) == {(2, 0), (1, 1), (0, 2)}
    assert set(standard_basis_ideal(J).gens) == {x ** 2, x * y, y ** 2}


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
            from germlab.milnor import _det

            if _det(M) != 0:
                break
        imgs = {}
        for i, v in enumerate(R.vars):
            acc = R.zero()
            for j, w in enumerate(R.vars):
                acc = acc + R.sym(w) * M[i][j]
            imgs[v] = acc
        moved = [g.subs(imgs) for g in base]
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
    R = PolyRing(("x", "y", "z1", "z2"))
    x, y, z1, z2 = syms(R)
    gens = [z1 + z2, z1 ** 2 + z1 * z2 + z2 ** 2 + x ** 2 + y ** 4]
    a = milnor_icis(Ideal.of(gens), 2, route="auto").milnor
    b = milnor_icis(Ideal.of(gens), 2, route="chain").milnor
    assert a == b == 3


def test_milnor_errors():
    R = PolyRing(("x", "y"))
    x, y = syms(R)
    with pytest.raises(NonIcisError):
        milnor_icis(Ideal.of([x * y ** 2 - x]), 0)  # dim 1, not 0
    with pytest.raises(EmptyGermError):
        milnor_icis(Ideal.of([R.const(1)]), 0)


def test_affine_checks():
    R = PolyRing(("x", "y", "z1", "z2"))
    x, y, z1, z2 = syms(R)
    gens = [z1 ** 2 + z1 * z2 + z2 ** 2 + y ** 2 - 1, x + y * (z1 + z2)]
    assert affine_is_smooth(Ideal.of(gens, local=False), 2)
    R2 = PolyRing(("x",))
    x = R2.sym("x")
    assert not affine_is_smooth(Ideal.of([x ** 2], local=False), 0)
    R3 = PolyRing(("x", "y"))
    x, y = syms(R3)
    assert affine_is_smooth(Ideal.of([x ** 2 + y ** 2 - 1], local=False), 1)
    assert contains_one(Ideal.of([x ** 2 + 1, y - x, x + y], local=False))


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


def test_standard_basis_memo_evicts_least_recently_used(monkeypatch):
    from collections import OrderedDict

    import germlab.ideals as ideals

    monkeypatch.setattr(ideals, "_basis_cache", OrderedDict())
    monkeypatch.setattr(ideals, "_BASIS_CACHE_SIZE", 2)
    computed = []
    kernel_std_basis = ideals._kernel.std_basis

    def counting(gens, local, trunc=0):
        computed.append(len(computed))
        return kernel_std_basis(gens, local, trunc)

    monkeypatch.setattr(ideals._kernel, "std_basis", counting)
    R = PolyRing(("x", "y"))
    x, y = syms(R)
    A, B, C = (Ideal.of([g], local=True) for g in (x ** 2 + y ** 3, x * y, y ** 2 - x ** 3))
    for I in (A, B, A, C):  # the hit on A makes B the oldest entry
        ideals.standard_basis(I)
    assert len(computed) == 3
    ideals.standard_basis(A)
    ideals.standard_basis(C)
    assert len(computed) == 3  # A and C stayed
    ideals.standard_basis(B)
    assert len(computed) == 4  # B was evicted; now A goes, C stays
    ideals.standard_basis(C)
    assert len(computed) == 4
    ideals.standard_basis(A)
    assert len(computed) == 5
    assert len(ideals._basis_cache) == 2


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
