from fractions import Fraction

from germlab.ideals import Ideal, contains_one
from germlab.poly import PolyRing, eliminate_linear
from germlab.realtopo import (CELL, EMPTY, INCONCLUSIVE, POINTS, SPHERE,
                              classify_real_space, quadratic_parts, signature,
                              sturm_distinct_real_roots)


def F(x):
    return Fraction(x)


def classify(gens, expected_dim):
    """classify_real_space on a nonempty space, from its one elimination."""
    assert not contains_one(Ideal.of(gens, local=False))
    return classify_real_space(eliminate_linear(gens), expected_dim)


def test_signature_definite():
    assert signature([[F(1), F(0)], [F(0), F(2)]]) == (2, 0, 0)
    assert signature([[F(-1), F(0)], [F(0), F(-3)]]) == (0, 2, 0)
    # z1^2 + z1 z2 + z2^2 + y^2 is positive definite
    m = [[F(1), F(0), F(0)],
         [F(0), F(1), Fraction(1, 2)],
         [F(0), Fraction(1, 2), F(1)]]
    assert signature(m) == (3, 0, 0)


def test_signature_indefinite_and_degenerate():
    assert signature([[F(0), F(1)], [F(1), F(0)]]) == (1, 1, 0)
    assert signature([[F(1), F(0)], [F(0), F(0)]]) == (1, 0, 1)


def test_sturm_counts():
    # z^2 - 1: two roots; z^2 + 1: none; z^3 - z: three; (z-1)^2: one distinct
    assert sturm_distinct_real_roots([F(-1), F(0), F(1)]) == 2
    assert sturm_distinct_real_roots([F(1), F(0), F(1)]) == 0
    assert sturm_distinct_real_roots([F(0), F(-1), F(0), F(1)]) == 3
    assert sturm_distinct_real_roots([F(1), F(-2), F(1)]) == 1
    assert sturm_distinct_real_roots([F(-1), F(3)]) == 1
    # (z-1)^2 (z+1) = z^3 - z^2 - z + 1: the repeated root counts once
    assert sturm_distinct_real_roots([F(1), F(-1), F(-1), F(1)]) == 2
    # trailing zero coefficients are no degree: z^2 - 1 written with degree 4
    assert sturm_distinct_real_roots([F(-1), F(0), F(1), F(0), F(0)]) == 2
    # a nonzero constant has no root, with or without trailing zeros
    assert sturm_distinct_real_roots([F(5)]) == 0
    assert sturm_distinct_real_roots([F(-2), F(0)]) == 0


def test_classify_sphere():
    R = PolyRing(("x", "y", "z1", "z2"))
    x, y, z1, z2 = (R.sym(n) for n in R.vars)
    gens = [x + y * (z1 + z2), z1 ** 2 + z1 * z2 + z2 ** 2 + y ** 2 - 1]
    space = classify(gens, 2)
    assert space.kind == SPHERE and space.dim == 2
    assert space.chi == 2 and space.betti() == [1, 0, 1]
    assert space.signature == (3, 0, 0)


def test_classify_empty_wrong_side():
    R = PolyRing(("y", "z1", "z2"))
    y, z1, z2 = (R.sym(n) for n in R.vars)
    gens = [z1 ** 2 + z1 * z2 + z2 ** 2 + y ** 2 + 1]
    assert classify(gens, 2).kind == EMPTY
    # x^2 + y^2 + 1 = 0: a positive definite form below its level
    R = PolyRing(("x", "y"))
    x, y = (R.sym(n) for n in R.vars)
    empty = classify([x ** 2 + y ** 2 + 1], 1)
    assert (empty.kind, empty.signature, empty.chi) == (EMPTY, (2, 0, 0), 0)
    # one variable on the right side: x^2 = 4 is two points, x^2 = -4 none
    R1 = PolyRing(("x",))
    x = R1.sym("x")
    two = classify([x ** 2 - 4], 1)
    assert (two.kind, two.count, two.chi) == (POINTS, 2, 2)
    assert classify([x ** 2 + 4], 1).kind == EMPTY


def test_classify_points_and_cell():
    R = PolyRing(("z1",))
    z1 = R.sym("z1")
    got = classify([z1 ** 2 * 3 - 1], 0)
    assert got.kind == POINTS and got.count == 2
    R2 = PolyRing(("x", "z1"))
    x, z1 = R2.sym("x"), R2.sym("z1")
    got = classify([x + z1 ** 2], 1)
    assert got.kind == CELL and got.dim == 1 and got.chi == 1


def test_classify_inconclusive():
    R = PolyRing(("y", "z1"))
    y, z1 = R.sym("y"), R.sym("z1")
    assert classify([y ** 2 - z1 ** 2 - 1], 1).kind == INCONCLUSIVE  # hyperbola
    assert classify([y ** 3 + z1 ** 2 - 1], 1).kind == INCONCLUSIVE  # cubic
    R3 = PolyRing(("a", "b", "c"))
    a, b, c = (R3.sym(n) for n in R3.vars)
    assert classify([a * a + b * b - 1, c * c + a - 2], 1).kind == INCONCLUSIVE


def test_quadratic_parts():
    R = PolyRing(("y", "z1"))
    y, z1 = R.sym("y"), R.sym("z1")
    const, lin, quad = quadratic_parts(y ** 2 + y * z1 - 3)
    assert const == -3 and lin == {}
    assert quad[0][0] == 1 and quad[0][1] == Fraction(1, 2)
    assert quadratic_parts(y ** 3 + z1) is None


def test_classify_after_fraction_free_elimination():
    # -2w + x^2 - y^2 gives w = (x^2 - y^2)/2; the second generator, of degree
    # 1 in w, is kept as 2 * (its substituted form), a positive multiple
    R = PolyRing(("x", "y", "w"))
    x, y, w = (R.sym(n) for n in R.vars)
    circle = classify([-2 * w + x ** 2 - y ** 2, w + y ** 2 - 1], 1)
    # x^2/2 + y^2/2 - 1 = 0
    assert (circle.kind, circle.dim, circle.signature, circle.chi) == (SPHERE, 1, (2, 0, 0), 0)
    empty = classify([-2 * w + x ** 2 - y ** 2, -w - y ** 2 - 1], 1)
    # -x^2/2 - y^2/2 - 1 = 0: a negative definite form with no real point
    assert (empty.kind, empty.signature, empty.chi) == (EMPTY, (0, 2, 0), 0)
    R2 = PolyRing(("x", "w"))
    x, w = R2.sym("x"), R2.sym("w")
    # w = x^2/3: x*w - x becomes x^3 - 3x, roots 0 and +-sqrt(3)
    three = classify([-3 * w + x ** 2, x * w - x], 0)
    assert (three.kind, three.count) == (POINTS, 3)
    # w^2 - 1 becomes x^4 - 9, roots +-sqrt(3)
    two = classify([-3 * w + x ** 2, w ** 2 - 1], 0)
    assert (two.kind, two.count) == (POINTS, 2)
