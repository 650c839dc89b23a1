import random
from fractions import Fraction

import pytest

import germlab.analyzer as analyzer
from germlab.analyzer import (CANDIDATE, CONFIRMED, FAILS, INCONCLUSIVE,
                              REFUTED, NotAFiniteError, WitnessPreconditionError,
                              analyze, witness_check)
from germlab.germs import VIOLATION, GermCorank1, GermError, build_Dk, marar_mond_check
from germlab.parse import parse_polynomial
from germlab.poly import PolyError, PolyRing
from polyref import subs


def make(exprs, params=(), name="", varnames=("x", "y", "z"), n=3, p=4):
    ring = PolyRing(tuple(varnames), tuple(params))
    comps = tuple(parse_polynomial(e, ring) for e in exprs)
    return GermCorank1(n, p, ring, comps, name)


Q2 = make(["x*z + y*z^2", "z^3 + y^2*z"], name="Q2")
Q2W = make(["x*z + y*z^2", "z^3 + y^2*z - s*z"], params=("s",), name="Q2s")


@pytest.fixture
def computed_at_s(monkeypatch):
    """witness_check decides every request at its own s, as it does for an
    unfolding without positive weights, and keeps no report per sign of s.
    The settled preconditions are cleared too, since they hold the weight
    answer."""
    monkeypatch.setattr(analyzer, "positive_weights", lambda germ: None)
    analyzer._settled.cache_clear()
    analyzer._sign_report.cache_clear()
    yield
    analyzer._settled.cache_clear()
    analyzer._sign_report.cache_clear()


def test_analyze_q2_full_report():
    rep = analyze(Q2)
    assert rep.verdict == CANDIDATE
    assert rep.mu_of(2) == 1 and rep.mu_of(3) == 1
    assert rep.mu_I == 2
    assert rep.image_betti == {3: 2}
    assert rep.zero_dim_counts == [(3, (2, 1), 2)]
    r3 = rep.row(3)
    by_part = {c.partition: c for c in r3.classes}
    assert by_part[(2, 1)].count == 2
    assert by_part[(3,)].status == "beta0" and by_part[(3,)].beta0 == 1
    assert rep.row(4).empty


def test_analyze_rules_ledger():
    rep = analyze(make(["z^2", "z*(z^2 + x^2 + y^3)"], name="A2"))
    assert rep.verdict == FAILS
    assert any(v.rule == "R1" and v.k == 2 and v.observed == 2 for v in rep.violations)


def test_analyze_rejects_non_finite():
    with pytest.raises(NotAFiniteError):
        analyze(make(["z^2", "z^3"]))


def test_analyze_verdict_coordinate_invariance():
    rng = random.Random(3)
    base = Q2
    rep0 = analyze(base)
    R = base.ring
    for _ in range(3):
        # invertible linear change of the x, y coordinates and unit rescale of z
        while True:
            a, b, c, d = (Fraction(rng.randint(-2, 2)) for _ in range(4))
            if a * d - b * c != 0:
                break
        u = Fraction(rng.choice((1, 2, -1, 3)))
        imgs = {"x": R.sym("x") * a + R.sym("y") * b,
                "y": R.sym("x") * c + R.sym("y") * d,
                "z": R.sym("z") * u}
        moved = GermCorank1(3, 4, R, tuple(subs(g, imgs) for g in base.components), "Q2'")
        rep = analyze(moved)
        assert rep.verdict == rep0.verdict
        assert rep.mu_of(2) == rep0.mu_of(2) and rep.mu_of(3) == rep0.mu_of(3)
        assert rep.mu_I == rep0.mu_I


def test_witness_q2_confirmed_with_paper_values():
    w = witness_check(Q2, Q2W, {"s": Fraction(1)})
    assert w.verdict == CONFIRMED
    k2 = next(r for r in w.rows if r.k == 2)
    assert k2.abeta_complex == 1 and k2.abeta_real == 1
    kinds = {c.partition: c.real.kind for c in k2.classes}
    assert kinds[(1, 1)] == "SPHERE" and kinds[(2,)] == "SPHERE"
    chis = {c.partition: (c.chi_complex, c.chi_real) for c in k2.classes}
    assert chis[(1, 1)] == (2, 2) and chis[(2,)] == (0, 0)
    k3 = next(r for r in w.rows if r.k == 3)
    assert k3.abeta_complex == 1 and k3.abeta_real == 1
    reals = {c.partition: c.real for c in k3.classes}
    assert reals[(1, 1, 1)].kind == "SPHERE" and reals[(1, 1, 1)].dim == 1
    assert reals[(2, 1)].kind == "POINTS" and reals[(2, 1)].count == 2
    assert reals[(3,)].kind == "EMPTY"
    chis = {c.partition: c.chi_real for c in k3.classes}
    assert (chis[(1, 1, 1)], chis[(2, 1)], chis[(3,)]) == (0, 2, 0)


def test_witness_q2_refuted_wrong_sign():
    w = witness_check(Q2, Q2W, {"s": Fraction(-1)})
    assert w.verdict == REFUTED
    k2 = next(r for r in w.rows if r.k == 2)
    assert k2.abeta_real == 0 and k2.abeta_complex == 1
    assert k2.classes[0].real.kind == "EMPTY"


def test_witness_a1_confirmed():
    a1 = make(["z^2", "z^3 + x^2*z + y^2*z"], name="A1")
    a1w = make(["z^2", "z^3 + x^2*z + y^2*z - s*z"], params=("s",), name="A1s")
    assert witness_check(a1, a1w, {"s": Fraction(1)}).verdict == CONFIRMED


def test_witness_p1_good_and_bad_perturbations():
    p1 = make(["y*z + z^4", "x*z + z^3"], name="P1")
    good = make(["y*z + z^4 - s*z^2", "x*z + z^3"], params=("s",), name="P1s")
    assert witness_check(p1, good, {"s": Fraction(1)}).verdict == CONFIRMED
    # a linear-in-z shift does not smooth the triple point curve: not stable
    bad = make(["y*z + z^4 - s*z", "x*z + z^3"], params=("s",), name="P1bad")
    assert witness_check(p1, bad, {"s": Fraction(1)}).verdict == REFUTED


@pytest.mark.parametrize("max_k", [2, 3, 4, None])
def test_witness_capped_before_the_first_empty_space_is_inconclusive(max_k):
    # Q2's first empty multiple point space is D^4: a sweep stopped below it
    # leaves spaces unchecked and cannot confirm; a refutation still stands
    rep = witness_check(Q2, Q2W, {"s": Fraction(5)}, max_k=max_k)
    capped = max_k is not None and max_k < 4
    assert [r.k for r in rep.rows] == list(range(2, 5 if not capped else max_k + 1))
    assert rep.verdict == (INCONCLUSIVE if capped else CONFIRMED)
    cap_notes = [note for note in rep.notes if f"max_k={max_k}" in note]
    assert len(cap_notes) == (1 if capped else 0)
    # the perturbed cusp loses its node at k = 2 (see the test below)
    cusp = make(["z^2", "z^3"], varnames=("z",), n=1, p=2, name="cusp")
    pert = make(["z^2 + s*z - s*z^2", "z^3"], params=("s",), varnames=("z",), n=1, p=2)
    rep = witness_check(cusp, pert, {"s": Fraction(1)}, max_k=max_k)
    assert rep.verdict == REFUTED
    assert rep.rows[-1].germ_empty == (max_k != 2)


def test_witness_inconclusive_indefinite_quadric():
    # complexly this is an A1 double point germ, but the chosen real structure
    # perturbs to a hyperboloid: not a decidable shape, so no verdict is forced
    g = make(["z^2", "z^3 + x^2*z - y^2*z"], name="A1ind")
    w = make(["z^2", "z^3 + x^2*z - y^2*z - s*z"], params=("s",), name="A1inds")
    rep = witness_check(g, w, {"s": Fraction(1)})
    assert rep.verdict == "INCONCLUSIVE"
    k2 = next(r for r in rep.rows if r.k == 2)
    assert k2.classes[0].real.kind == "INCONCLUSIVE"
    assert k2.classes[0].real.signature == (2, 1, 0)


def test_witness_preconditions():
    other = make(["x*z + y*z^2", "z^3 + y^3*z - s*z"], params=("s",), name="Q3s")
    with pytest.raises(WitnessPreconditionError):
        witness_check(Q2, other, {"s": Fraction(1)})  # reduces to Q3, not Q2
    a2 = make(["z^2", "z*(z^2 + x^2 + y^3)"], name="A2")
    a2w = make(["z^2", "z*(z^2 + x^2 + y^3) - s*z"], params=("s",), name="A2s")
    with pytest.raises(WitnessPreconditionError):
        witness_check(a2, a2w, {"s": Fraction(1)})  # analyze(A2) FAILS
    with pytest.raises(WitnessPreconditionError):
        witness_check(Q2, Q2W, {})  # unassigned parameter
    with pytest.raises(WitnessPreconditionError, match=r"unknown parameters: \['S'\]"):
        witness_check(Q2, Q2W, {"s": Fraction(1), "S": Fraction(1)})  # a typo for s


def test_witness_must_perturb_the_germ():
    with pytest.raises(WitnessPreconditionError, match="germ itself"):
        witness_check(Q2, Q2W, {"s": Fraction(0)})
    with pytest.raises(WitnessPreconditionError, match="germ itself"):
        witness_check(Q2, Q2, {})  # no parameter to perturb with


A2 = make(["z^2", "z*(z^2 + x^2 + y^3)"], name="A2")  # analyze() says FAILS
A2W = make(["z^2", "z*(z^2 + x^2 + y^3) - s*z"], params=("s",), name="A2s")
Q2_UNUSED_S = make(["x*z + y*z^2", "z^3 + y^2*z"], params=("s",))
Q2_CONSTANT = make(["x*z + y*z^2", "z^3 + y^2*z + s^3"], params=("s",))
OFF_ORIGIN = "component does not vanish at the origin (parameters at 0)"
GERM_ITSELF = "the assigned perturbation is the germ itself"
# which refusal wins when a request breaks several preconditions, recorded
# before the s-independent checks were kept per (germ, perturbation)
PRECONDITION_PINS = {
    "no reduction at 0": (
        Q2, make(["x*z + y*z^2", "z^3 + y^3*z - s*z"], params=("s",)), {"s": Fraction(1)},
        WitnessPreconditionError, "perturbation does not reduce to the germ at parameter 0"),
    "no reduction, missing parameter": (
        Q2, make(["x*z + y*z^2", "z^3 + y^3*z - s*z"], params=("s",)), {},
        WitnessPreconditionError, "perturbation does not reduce to the germ at parameter 0"),
    "other variables": (
        Q2, make(["u*w + v*w^2", "w^3 + v^2*w - s*w"], params=("s",), varnames=("u", "v", "w")),
        {"s": Fraction(1)}, PolyError, "symbol 'x' absent from target ring"),
    "missing parameter": (
        Q2, Q2W, {}, WitnessPreconditionError, "unassigned parameters: ['s']"),
    "missing one of two": (
        Q2, make(["x*z + y*z^2", "z^3 + y^2*z - s*z - t*z"], params=("s", "t")),
        {"t": Fraction(1)}, WitnessPreconditionError,
        "unassigned parameters: ['s']"),
    "unknown parameter": (
        Q2, Q2W, {"s": Fraction(1), "S": Fraction(1)}, WitnessPreconditionError,
        "unknown parameters: ['S']"),
    "unknown parameter, float s": (
        Q2, Q2W, {"s": 0.5, "S": Fraction(1)}, WitnessPreconditionError,
        "unknown parameters: ['S']"),
    "s = 0.5": (Q2, Q2W, {"s": 0.5}, PolyError, "scalars must be int or Fraction, got float 0.5"),
    "s = True": (Q2, Q2W, {"s": True}, PolyError, "scalars must be int or Fraction, got bool True"),
    "s = '1'": (Q2, Q2W, {"s": "1"}, PolyError, "scalars must be int or Fraction, got str '1'"),
    "float s, unused s": (
        Q2, Q2_UNUSED_S, {"s": 0.5}, PolyError, "scalars must be int or Fraction, got float 0.5"),
    "Q2 + s^3": (Q2, Q2_CONSTANT, {"s": Fraction(2)}, GermError, OFF_ORIGIN),
    "Q2 + s^3 at s = -1/3": (Q2, Q2_CONSTANT, {"s": Fraction(-1, 3)}, GermError, OFF_ORIGIN),
    "A2 + s^3": (
        A2, make(["z^2", "z*(z^2 + x^2 + y^3) + s^3"], params=("s",)), {"s": Fraction(2)},
        GermError, OFF_ORIGIN),
    "Q2 + s^3 at s = 0": (
        Q2, Q2_CONSTANT, {"s": Fraction(0)}, WitnessPreconditionError, GERM_ITSELF),
    "unused s at 3": (Q2, Q2_UNUSED_S, {"s": Fraction(3)}, WitnessPreconditionError, GERM_ITSELF),
    "unused s at -1/2": (
        Q2, Q2_UNUSED_S, {"s": Fraction(-1, 2)}, WitnessPreconditionError, GERM_ITSELF),
    "unused s, FAILS germ": (
        A2, make(["z^2", "z*(z^2 + x^2 + y^3)"], params=("s",)), {"s": Fraction(3)},
        WitnessPreconditionError, GERM_ITSELF),
    "s = 0": (Q2, Q2W, {"s": Fraction(0)}, WitnessPreconditionError, GERM_ITSELF),
    "s = int 0": (Q2, Q2W, {"s": 0}, WitnessPreconditionError, GERM_ITSELF),
    "FAILS germ": (
        A2, A2W, {"s": Fraction(1)}, WitnessPreconditionError,
        "witness verification requires a CANDIDATE germ; analyze() said FAILS"),
}


@pytest.mark.parametrize("case", PRECONDITION_PINS)
def test_witness_precondition_precedence(case):
    germ, pert, assignment, error, message = PRECONDITION_PINS[case]
    for _ in range(2):  # a refusal is never kept
        with pytest.raises(error) as info:
            witness_check(germ, pert, assignment)
        assert type(info.value) is error and str(info.value) == message


def test_zero_dim_counts_cross_cap_analog():
    # (x, z^2, z^3 + x^2 z) for source dimension 2: the transposition space of
    # D^2 has expected dimension 0 and length 2
    g = make(["z^2", "z^3 + x^2*z"], varnames=("x", "z"), n=2, p=3, name="S1")
    counts = analyze(g).zero_dim_counts
    assert (2, (2,), 2) in counts


def test_plane_curve_cusp_node_perturbation():
    # (z^2, z^3): the perturbation (z^2, z^3 - s z) realizes one real node
    cusp = make(["z^2", "z^3"], varnames=("z",), n=1, p=2, name="cusp")
    rep = analyze(cusp)
    assert rep.verdict == CANDIDATE
    assert rep.mu_I == 1 and rep.image_betti == {1: 1}
    pert = make(["z^2", "z^3 - s*z"], params=("s",), varnames=("z",), n=1, p=2)
    w = witness_check(cusp, pert, {"s": Fraction(1)})
    assert w.verdict == CONFIRMED
    k2 = next(r for r in w.rows if r.k == 2)
    assert k2.classes[0].real.kind == "POINTS" and k2.classes[0].real.count == 2
    assert witness_check(cusp, pert, {"s": Fraction(-1)}).verdict == REFUTED


def test_mu_alt_and_image_betti_helpers():
    rep = analyze(Q2)
    assert [(r.k, r.empty, r.mu_alt) for r in rep.rows] == [(2, False, 1), (3, False, 1),
                                                            (4, True, None)]
    assert rep.image_betti == {3: 2}


def test_mu_alt_examples_from_tables():
    # A_k: muAlt(D^2) = (k + k)/2 = k; B_2: (3 + 1)/2 = 2
    for k in (1, 2, 3):
        rep = analyze(make(["z^2", f"z*(z^2 + x^2 + y^{k + 1})"]))
        assert rep.row(2).mu_alt == k
    rep = analyze(make(["z^2", "z*(x^2 + y^2 + z^4)"]))
    assert rep.row(2).mu_alt == 2


def test_analyze_builds_each_space_once(monkeypatch):
    import germlab.germs as germs
    from collections import Counter

    from germlab.catalog import nonsimple_entry

    built = Counter()
    real_build = germs.build_Dk

    def counting_build(germ, k):
        built[(germ.name, k)] += 1
        return real_build(germ, k)

    monkeypatch.setattr(germs, "build_Dk", counting_build)
    row3 = nonsimple_entry("III")
    for germ in (Q2, row3.germ):
        rep = analyze(germ)
        assert len(rep.rows) >= 3  # k = 2, 3 and the first empty k
    assert built and max(built.values()) == 1
    assert {k for _, k in built} >= {2, 3, 4}


def _count_divided_differences(monkeypatch):
    """Counter of divided_differences calls keyed by (polynomial, k)."""
    from collections import Counter

    import germlab.poly as poly

    calls = Counter()
    real = poly.divided_differences

    def counting(f, var, fresh, ring):
        calls[(f, len(fresh))] += 1
        return real(f, var, fresh, ring)

    _patch_everywhere(monkeypatch, real, counting)
    return calls


def test_divided_differences_taken_once_per_component_and_k(monkeypatch, computed_at_s):
    # every cycle type of one k shares the divided differences of D^k: an
    # analysis and a witness decided at its own s take them once per
    # (component, k)
    from germlab.catalog import nonsimple_entry

    row3 = nonsimple_entry("III").germ
    witness_check(Q2, Q2W, {"s": Fraction(1)})  # warms the base report
    calls = _count_divided_differences(monkeypatch)
    for germ in (Q2, row3):
        calls.clear()
        rep = analyze(germ)
        assert set(calls.values()) == {1}, germ.name
        assert len(calls) == len(germ.components) * len(rep.rows), germ.name
    calls.clear()
    rep = witness_check(Q2, Q2W, {"s": Fraction(7, 3)})
    assert set(calls.values()) == {1}
    assert len(calls) == len(Q2W.components) * len(rep.rows)


def test_milnor_icis_matches_analyze_on_simple_rows():
    # the checked entry point and the sweep share one classifier and one
    # status -> mu map; on every "mu" class of the simple table they agree
    from germlab.catalog import default_simple_entries
    from germlab.milnor import milnor_icis

    checked = 0
    for e in default_simple_entries():
        for row in analyze(e.germ).rows:
            for ce in row.classes:
                if ce.status == "mu":
                    space = dict(build_Dk(e.germ, row.k))[ce.partition]
                    assert milnor_icis(space, ce.d_sigma).milnor == ce.mu, \
                        (e.label, row.k, ce.partition)
                    checked += 1
    assert checked >= 50


def test_analyze_asks_each_local_question_once(monkeypatch):
    # the sweep's answers are final: no standard basis is asked for twice in
    # one analysis, and the checked Milnor entry point is never reached.  The
    # sweep runs one Le-Greuel chain on the eliminated presentation of every
    # positive-dimensional ICIS that elimination leaves generators for, and a
    # chain that succeeds certifies isolatedness, so no singular-locus ideal
    # is built
    import germlab.ideals as ideals
    import germlab.milnor as milnor
    from germlab.catalog import nonsimple_entry, simple_entry
    from germlab.poly import eliminate_linear

    asked, loci, chains = [], [], []
    real_basis, real_locus = ideals.standard_basis, ideals.singular_locus_ideal
    real_chain = milnor.mu_chain

    def recording_basis(I, trunc=0):
        asked.append((tuple(I.gens), I.local, trunc))
        return real_basis(I, trunc=trunc)

    def recording_locus(I):
        loci.append(len(I.gens))
        return real_locus(I)

    open_calls = []

    def recording_chain(gens, ring, dim):
        if not open_calls:  # a top call, not one down the chain
            chains.append(list(gens))
        open_calls.append(gens)
        try:
            return real_chain(gens, ring, dim)
        finally:
            open_calls.pop()

    def refuse(*args, **kwargs):
        raise AssertionError("milnor_icis called during analyze")

    entries = (simple_entry("Q", k=2), simple_entry("S", k=2, j=1), nonsimple_entry("VIII"))
    # the presentations a chain must run on, in sweep order
    expected = {}
    for e in entries:
        expected[e.label] = want = []
        for row in analyze(e.germ).rows:
            spaces = dict(build_Dk(e.germ, row.k))
            for ce in row.classes:
                gens = eliminate_linear(spaces[ce.partition].gens).gens
                if ce.status == "mu" and ce.d_sigma > 0 and gens:
                    want.append(gens)
    assert any(len(gens) == 1 for want in expected.values() for gens in want)
    assert any(len(gens) >= 2 for want in expected.values() for gens in want)
    monkeypatch.setattr(ideals, "standard_basis", recording_basis)
    _patch_everywhere(monkeypatch, real_locus, recording_locus)
    _patch_everywhere(monkeypatch, real_chain, recording_chain)
    _patch_everywhere(monkeypatch, milnor.milnor_icis, refuse)
    for entry in entries:
        asked.clear()
        chains.clear()
        analyze(entry.germ)
        assert asked, entry.label
        assert len(set(asked)) == len(asked), entry.label
        assert chains == expected[entry.label], entry.label
    assert not loci, loci


def _patch_everywhere(monkeypatch, real, fake):
    """Replace `real` in every germlab module that bound it at import time."""
    import sys

    for name, mod in list(sys.modules.items()):
        if name.startswith("germlab"):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, fake)


def test_witness_asks_each_global_question_once(monkeypatch, computed_at_s):
    # per row of a witness decided at its own s: every class is eliminated
    # once, from its own generators, a class that must be smooth eliminates
    # its singular locus at most once, and a standard basis is taken only of
    # an eliminated presentation with two or more generators, on its ring
    import re

    import germlab.germs as germs
    import germlab.ideals as ideals
    import germlab.poly as poly

    a1 = make(["z^2", "z^3 + x^2*z + y^2*z"], name="A1")
    a1w = make(["z^2", "z^3 + x^2*z + y^2*z - s*z"], params=("s",), name="A1s")
    p1 = make(["y*z + z^4", "x*z + z^3"], name="P1")
    p1w = make(["y*z + z^4 - s*z^2", "x*z + z^3"], params=("s",), name="P1s")
    cases = [(Q2, Q2W), (a1, a1w), (p1, p1w)]
    for base, pert in cases:
        witness_check(base, pert, {"s": Fraction(1)})  # warms the base report

    events = []
    real_basis, real_locus = ideals.standard_basis, ideals.singular_locus_ideal
    real_elim, real_build = poly.eliminate_linear, germs.build_Dk

    def basis(I, trunc=0):
        events.append(("B", I))
        return real_basis(I, trunc=trunc)

    def locus(I):
        events.append(("L",))
        return real_locus(I)

    def eliminate(gens):
        gens = list(gens)
        out = real_elim(gens)
        events.append(("E", out, gens))
        return out

    def build(*args, **kwargs):
        events.append(("build",))
        for part, I in real_build(*args, **kwargs):
            events.append(("space", I))
            yield part, I

    for real, fake in ((real_basis, basis), (real_locus, locus), (real_elim, eliminate),
                       (real_build, build)):
        _patch_everywhere(monkeypatch, real, fake)
    loci = 0
    for base, pert in cases:
        for s in (Fraction(1), Fraction(-1), Fraction(7, 3)):
            events.clear()
            rep = witness_check(base, pert, {"s": s})
            rows = []  # per row, each class's space and the events that follow it
            for e in events:
                if e[0] == "build":
                    rows.append([])
                elif e[0] == "space":
                    rows[-1].append((e[1], []))
                else:
                    rows[-1][-1][1].append(e)
            assert len(rows) == len(rep.rows), (pert.name, s)
            for row, classes in zip(rep.rows, rows):
                assert len(classes) == len(row.classes), (pert.name, s, row.k)
                for cc, (I, seen) in zip(row.classes, classes):
                    where = (pert.name, s, row.k, cc.partition)
                    kinds = "".join(e[0] for e in seen)
                    # one elimination of the space itself; then at most one locus
                    assert re.fullmatch(r"E(B*)(LEB*)?", kinds), where
                    assert seen[0][2] == list(I.gens), where
                    assert "L" not in kinds or cc.complex_note == "must be smooth", where
                    loci += kinds.count("L")
                    last = None
                    for e in seen:
                        if e[0] == "E":
                            last = e[1]
                        elif e[0] == "B":
                            I = e[1]
                            assert not I.local and len(I.gens) >= 2, where
                            assert I.ring == last.ring and list(I.gens) == last.gens, where
    assert loci


def test_emptiness_after_elimination_matches_the_uneliminated_ideal():
    # oracle: 1 in I asked of every D^k(f_s)^sigma as it was built, at every
    # s the witness output is pinned at, against the answer read off the
    # elimination of the space, as witness_check reads it
    from pathlib import Path

    from germlab.germfile import load_germ_file
    from germlab.ideals import affine_elimination, contains_one
    from test_cli import WITNESS_PINS

    germs = Path(__file__).resolve().parent.parent / "germs"
    seen = set()
    for name, s, _, _ in WITNESS_PINS:
        gf = load_germ_file(str(germs / f"{name}.germ"))
        pert = gf.symbolic_germ(perturbed=True).at_params({"s": Fraction(s)})
        for row in analyze(gf.base_germ()).rows:
            for part, I in build_Dk(pert, row.k):
                empty = contains_one(I)
                assert (affine_elimination(I) is None) == empty, (name, s, row.k, part)
                seen.add(empty)
    assert seen == {True, False}


def test_smoothness_after_elimination_matches_the_uneliminated_singular_locus():
    # oracle: the Jacobian criterion on every nonempty D^k(f_s)^sigma as it
    # was built, 1 in I + minors, at every pinned s and at s = 0, against
    # affine_is_smooth on the space's elimination, which eliminates the
    # singular locus of the eliminated presentation
    from pathlib import Path

    from germlab.germfile import load_germ_file
    from germlab.ideals import (affine_elimination, affine_is_smooth, contains_one,
                                singular_locus_ideal)
    from test_cli import WITNESS_PINS

    germs = Path(__file__).resolve().parent.parent / "germs"
    seen = set()
    # the unperturbed germ (s = 0) has singular spaces
    for name, s in sorted({(name, s) for name, s, _, _ in WITNESS_PINS} | {
            (name, "0") for name in ("q2", "a1", "p1")}):
        gf = load_germ_file(str(germs / f"{name}.germ"))
        pert = gf.symbolic_germ(perturbed=True).at_params({"s": Fraction(s)})
        for row in analyze(gf.base_germ()).rows:
            for part, I in build_Dk(pert, row.k):
                elim = affine_elimination(I)
                if elim is None:
                    continue
                smooth = contains_one(singular_locus_ideal(I))
                assert affine_is_smooth(I, elim) == smooth, (name, s, row.k, part)
                seen.add(smooth)
    assert seen == {True, False}


def test_no_gluing_equation_is_built_at_the_first_empty_k(monkeypatch, computed_at_s):
    # the sweep and a witness decided at its own s stop after an empty D^k,
    # so the other cycle types of that k are never built
    import germlab.germs as germs
    from germlab.catalog import nonsimple_entry

    yielded = []
    real_build = germs.build_Dk

    def build(germ, k):
        for part, ideal in real_build(germ, k):
            yielded.append((k, part))
            yield part, ideal

    _patch_everywhere(monkeypatch, real_build, build)
    witness_check(Q2, Q2W, {"s": Fraction(1)})  # warms the base report
    runs = (lambda: [(r.k, r.empty) for r in analyze(Q2).rows],
            lambda: [(r.k, r.empty) for r in analyze(nonsimple_entry("III").germ).rows],
            lambda: [(r.k, r.germ_empty) for r in
                     witness_check(Q2, Q2W, {"s": Fraction(-2)}).rows])
    for run in runs:
        yielded.clear()
        rows = run()
        assert [empty for _, empty in rows] == [False] * (len(rows) - 1) + [True]
        for k, empty in rows:
            want = [(1,) * k] if empty else list(germs.partitions(k))
            assert [part for j, part in yielded if j == k] == want, k


def test_the_sweep_eliminates_every_nonempty_space_once_and_no_empty_one(monkeypatch):
    # the local D^k at the first empty k is never eliminated; every other
    # D^k(f)^sigma of the sweep is eliminated exactly once, from its own
    # generators
    import germlab.germs as germs
    import germlab.poly as poly
    from germlab.catalog import nonsimple_entry
    from germlab.ideals import germ_is_empty

    spaces, eliminated = [], []
    real_build, real_elim = germs.build_Dk, poly.eliminate_linear

    def build(germ, k):
        for part, ideal in real_build(germ, k):
            spaces.append((k, part, ideal))
            yield part, ideal

    def eliminate(gens):
        gens = list(gens)
        eliminated.append(gens)
        return real_elim(gens)

    _patch_everywhere(monkeypatch, real_build, build)
    _patch_everywhere(monkeypatch, real_elim, eliminate)
    immersive = make(["z + x*z^2", "y*z"], name="immersive")
    for germ in (Q2, nonsimple_entry("III").germ, immersive):
        spaces.clear()
        eliminated.clear()
        last = marar_mond_check(germ).first_empty_k
        assert spaces[-1][:2] == (last, (1,) * last), germ.name
        for k, part, ideal in spaces:
            empty = germ_is_empty(ideal)
            assert empty == ((k, part) == (last, (1,) * last)), (germ.name, k, part)
            assert eliminated.count(list(ideal.gens)) == (0 if empty else 1), (germ.name, k, part)
        assert len(eliminated) == len(spaces) - 1, germ.name
    assert spaces == [(2, (1, 1), spaces[0][2])]  # the immersive germ: D^2 is empty

# sha256 prefix of the JSON of dataclasses.asdict() of every WitnessReport of
# the germ at the 40 values of witness_s_values(), one report a line: every
# stored field, and lists and tuples alike are JSON arrays.  Recorded while
# the reports were still mutable lists, whose repr pins had been recorded
# before D^k's elimination was continued per cycle type and emptiness and
# smoothness were read off eliminated presentations
WITNESS_REPORT_PINS = {
    "q2": "fc2361a82402d9bb",
    "a1": "f3bbd26d9c80cf2e",
    "p1": "cfa7fce7e5083b4d",
}


def witness_s_values(seed=17, n=40):
    """n seeded rationals of alternating sign, numerators up to 200, denominators up to 32."""
    rng = random.Random(seed)
    return [Fraction((-1) ** i * rng.randint(1, 200), rng.randint(1, 32)) for i in range(n)]


@pytest.mark.parametrize("name", sorted(WITNESS_REPORT_PINS))
def test_witness_reports_pinned_over_seeded_parameters(name):
    import hashlib
    import json
    from dataclasses import asdict
    from pathlib import Path

    from germlab.germfile import load_germ_file

    gf = load_germ_file(str(Path(__file__).resolve().parent.parent / "germs" / f"{name}.germ"))
    base, pert = gf.base_germ(), gf.symbolic_germ(perturbed=True)
    reports = [witness_check(base, pert, {"s": s}) for s in witness_s_values()]
    assert {r.verdict for r in reports} == {CONFIRMED, REFUTED}
    text = "\n".join(json.dumps(asdict(r)) for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == WITNESS_REPORT_PINS[name]


def test_hypersurface_mu_matches_macaulay_rank_oracle():
    # oracle: the colength of the partial derivatives by Macaulay-matrix
    # ranks, with no standard basis, against the mu the sweep keeps
    from germlab.catalog import simple_entry
    from test_local_algebra import _macaulay_oracle

    from germlab.milnor import ICIS
    from germlab.poly import eliminate_linear

    checked = 0
    for family, k in (("A", 3), ("D", 4), ("E", 6)):
        germ = simple_entry(family, k=k).germ
        for st in marar_mond_check(germ).statuses:
            if st.kind != ICIS or st.dim <= 0:
                continue
            gens = eliminate_linear(dict(build_Dk(germ, st.k))[st.partition].gens).gens
            if len(gens) != 1:
                continue
            g = gens[0]
            parts = [g.deriv(v) for v in g.ring.vars]
            want, _ = _macaulay_oracle(parts, g.ring.nvars, 1, 12)
            assert st.mu == want, (family, k, st.partition)
            checked += 1
    assert checked == 6


@pytest.mark.parametrize("exprs,p,ngens,dim", [
    (["z^2", "z^3"], 4, 1, 2),
    (["z^2", "z^3 + x^2*z", "y^2*z^3"], 5, 2, 1),
])
def test_non_isolated_singular_locus_is_a_violation(exprs, p, ngens, dim):
    # a hypersurface (whose Le-Greuel chain is its Jacobian colength) and a
    # two-generator space (whose failed chain sends the sweep to its singular
    # locus) whose singularities are not isolated
    from germlab.poly import eliminate_linear

    germ = make(exprs, p=p)
    mm = marar_mond_check(germ, max_k=3)
    st = next(st for st in mm.statuses if (st.k, st.partition) == (2, (1, 1)))
    assert (st.kind, st.reason, st.dim) == (VIOLATION, "non-isolated singular locus", dim)
    assert len(eliminate_linear(dict(build_Dk(germ, 2))[(1, 1)].gens).gens) == ngens
    assert not mm.finite


def test_non_isolated_space_builds_no_recombined_chain(monkeypatch):
    # the failed chain sends the sweep to the singular locus, whose infinite
    # colength settles the space: no recombination of its generators is
    # tried, so every chain runs on a space's eliminated generators or on a
    # deletion from them
    import germlab.milnor as milnor
    from germlab.poly import eliminate_linear

    germ = make(["z^2", "z^3 + x^2*z", "y^2*z^3"], p=5)
    presentations = [set(eliminate_linear(I.gens).gens)
                     for k in (2, 3) for _, I in build_Dk(germ, k)]
    real_chain, chains = milnor.mu_chain, []

    def recording_chain(gens, ring, dim):
        chains.append(set(gens))
        return real_chain(gens, ring, dim)

    _patch_everywhere(monkeypatch, real_chain, recording_chain)
    mm = marar_mond_check(germ, max_k=3)
    assert [(st.k, st.partition, st.reason) for st in mm.violations()] == [
        (2, (1, 1), "non-isolated singular locus"),
        (2, (2,), "dimension 1, should be dimension 0")]
    assert chains and all(any(c <= p for p in presentations) for c in chains), chains


# D^2 of this germ eliminates to (x^2 + z1^2, x^3 + y^2 + z1^2): four lines
# through 0 in general position in C^3, so delta = 4 and mu = 2 delta - 4 + 1 = 5
FOUR_LINES = (["z^2", "z^3 + x^2*z", "y^2*z + x^3*z + z^3"], 5)


def test_two_generator_icis_whose_first_deletion_order_fails():
    # the first generator alone is singular along the y-axis, so the chain's
    # first deletion order fails inside the sweep and the second one gives mu
    from germlab.milnor import ICIS, NonIsolatedError, milnor_icis, mu_chain
    from germlab.poly import eliminate_linear

    exprs, p = FOUR_LINES
    germ = make(exprs, p=p)
    space = dict(build_Dk(germ, 2))[(1, 1)]
    gens = eliminate_linear(space.gens).gens
    assert len(gens) == 2
    with pytest.raises(NonIsolatedError):
        mu_chain(gens[:1], gens[0].ring, 2)
    mm = marar_mond_check(germ)
    st = mm.statuses[0]
    assert (st.partition, st.kind, st.dim, st.mu) == ((1, 1), ICIS, 1, 5)
    assert milnor_icis(space, 1).milnor == st.mu == 5
    assert mm.finite and mm.first_empty_k == 3


def test_failed_chain_on_an_isolated_space_raises_from_the_sweep(monkeypatch):
    # with two generators a failed chain consults the singular locus: a
    # finite colength is not a violation, so the chain's error surfaces
    import germlab.milnor as milnor
    from germlab.milnor import NonIsolatedError

    def failing(*args, **kwargs):
        raise NonIsolatedError("Le-Greuel chain failed")

    monkeypatch.setattr(milnor, "mu_chain", failing)
    exprs, p = FOUR_LINES
    with pytest.raises(NonIsolatedError, match="chain failed"):
        marar_mond_check(make(exprs, p=p))


def test_safety_cap_reports_a_non_finite_germ_and_refuses_a_clean_sweep(monkeypatch):
    # the uncapped sweep stops at SAFETY_CAP: with violations found its
    # report says not finite, as the same explicit cap does; without any, no
    # verdict can be given
    import germlab.germs as germs

    zero = make(["0", "0"], name="Z")
    mm = marar_mond_check(zero)
    assert not mm.finite and mm.first_empty_k is None
    assert mm.statuses[-1].k == germs.SAFETY_CAP
    assert mm.statuses == marar_mond_check(zero, max_k=germs.SAFETY_CAP).statuses
    with pytest.raises(NotAFiniteError, match=r"\(k=2, \(1, 1\)\)"):
        analyze(zero)
    monkeypatch.setattr(germs, "SAFETY_CAP", 3)  # Q2's first empty D^k is D^4
    with pytest.raises(GermError, match="safety cap"):
        marar_mond_check(Q2)
    with pytest.raises(GermError, match="safety cap"):
        analyze(Q2)


def test_capped_analyze_leaves_the_image_sums_unknown():
    # mu_I and the image Betti numbers sum over every k; a sweep stopped
    # before the first empty D^k does not know them.  Rows and verdict stay
    full = analyze(Q2)
    for cap in (2, 3):
        rep = analyze(Q2, max_k=cap)
        assert rep.mu_I is None and rep.image_betti is None, cap
        assert rep.rows == full.rows[:cap - 1] and rep.verdict == full.verdict, cap
    rep = analyze(Q2, max_k=4)
    assert (rep.mu_I, rep.image_betti) == (full.mu_I, full.image_betti) == (2, {3: 2})


def test_witness_empty_space_counts_as_smooth():
    # the perturbed cusp (z^2 + s(z - z^2), z^3) is an immersion at s = 1: its
    # double point space, which must be smooth, is empty and therefore smooth
    cusp = make(["z^2", "z^3"], varnames=("z",), n=1, p=2, name="cusp")
    pert = make(["z^2 + s*z - s*z^2", "z^3"], params=("s",), varnames=("z",), n=1, p=2)
    rep = witness_check(cusp, pert, {"s": Fraction(1)})
    k2 = next(r for r in rep.rows if r.k == 2)
    smooth = k2.classes[0]
    assert smooth.complex_note == "must be smooth" and smooth.complex_ok
    assert smooth.real.kind == "EMPTY" and smooth.real.signature is None
    assert (smooth.chi_complex, smooth.chi_real) == (2, 0)
    assert rep.verdict == REFUTED  # the real picture has lost the node


def test_mu_alt_matches_analyze_on_shipped_germs():
    # a sweep capped at each k agrees with the full report row by row
    from pathlib import Path

    from germlab.germfile import load_germ_file

    paths = sorted((Path(__file__).resolve().parent.parent / "germs").glob("*.germ"))
    assert paths
    for path in paths:
        germ = load_germ_file(str(path)).base_germ()
        rep = analyze(germ)
        for i, row in enumerate(rep.rows):
            assert analyze(germ, max_k=row.k).rows == rep.rows[: i + 1], (path.name, row.k)
        assert rep.rows[-1].empty


def test_max_k_below_two_is_refused():
    for bad in (1, 0, -3):
        with pytest.raises(GermError, match="max_k"):
            marar_mond_check(Q2, bad)
        with pytest.raises(GermError, match="max_k"):
            analyze(Q2, max_k=bad)
        with pytest.raises(GermError, match="max_k"):
            witness_check(Q2, Q2W, {"s": Fraction(1)}, max_k=bad)
    assert [r.k for r in analyze(Q2, max_k=2).rows] == [2]


# -- the base-analysis memo of witness_check ------------------------------------

SWEEP = [Fraction(a, b) for a, b in ((1, 1), (2, 1), (1, 2), (3, 4), (7, 3))]
SWEEP += [-s for s in SWEEP]


@pytest.fixture
def analyze_calls(monkeypatch):
    """Counts analyze() calls by (germ name, max_k), on an empty memo."""
    from collections import Counter

    calls = Counter()
    real_analyze = analyzer.analyze

    def counting_analyze(germ, max_k=None):
        calls[(germ.name, max_k)] += 1
        return real_analyze(germ, max_k=max_k)

    monkeypatch.setattr(analyzer, "analyze", counting_analyze)
    analyzer._settled.cache_clear()
    analyzer._base_report.cache_clear()
    analyzer._sign_report.cache_clear()
    yield calls
    analyzer._settled.cache_clear()
    analyzer._base_report.cache_clear()
    analyzer._sign_report.cache_clear()


def test_witness_sweep_analyzes_base_once_per_key(analyze_calls, computed_at_s):
    # every s of the sweep is decided at that s, from one base analysis
    for s in SWEEP:
        w = witness_check(Q2, Q2W, {"s": s})
        assert w.verdict == (CONFIRMED if s > 0 else REFUTED), s
    assert analyze_calls == {("Q2", None): 1}
    witness_check(Q2, Q2W, {"s": Fraction(5)}, max_k=3)
    witness_check(Q2, Q2W, {"s": Fraction(-5)}, max_k=3)
    assert analyze_calls == {("Q2", None): 1, ("Q2", 3): 1}


def test_witness_sweep_matches_uncached_answers(analyze_calls, computed_at_s):
    cached = [witness_check(Q2, Q2W, {"s": s}) for s in SWEEP]
    fresh = []
    for s in SWEEP:
        analyzer._base_report.cache_clear()
        analyzer._sign_report.cache_clear()
        fresh.append(witness_check(Q2, Q2W, {"s": s}))
    assert cached == fresh  # names, verdicts, rows and notes
    assert analyze_calls[("Q2", None)] == 1 + len(SWEEP)


def test_witness_preconditions_checked_on_every_call(analyze_calls):
    a2 = make(["z^2", "z*(z^2 + x^2 + y^3)"], name="A2")
    a2w = make(["z^2", "z*(z^2 + x^2 + y^3) - s*z"], params=("s",), name="A2s")
    nonfinite = make(["z^2", "z^3"], name="NF")
    nonfinite_w = make(["z^2", "z^3 - s*z"], params=("s",), name="NFs")
    for _ in range(3):
        with pytest.raises(WitnessPreconditionError, match="FAILS"):
            witness_check(a2, a2w, {"s": Fraction(1)})
        with pytest.raises(NotAFiniteError):
            witness_check(nonfinite, nonfinite_w, {"s": Fraction(1)})
    assert analyze_calls[("NF", None)] == 3  # a refusal is not remembered


def test_base_report_memo_is_bounded(analyze_calls):
    from dataclasses import replace

    cap = analyzer.BASE_REPORTS
    caches = (analyzer._settled, analyzer._base_report, analyzer._sign_report)
    for i in range(cap + 3):  # the name is part of every key
        witness_check(replace(Q2, name=f"Q2.{i}"), Q2W, {"s": Fraction(1)})
        assert [c.cache_info().currsize for c in caches] == [min(i + 1, cap)] * 3
    assert [c.cache_info().maxsize for c in caches] == [cap] * 3
    misses = [c.cache_info().misses for c in caches]
    witness_check(replace(Q2, name="Q2.0"), Q2W, {"s": Fraction(1)})  # evicted, analyzed again
    assert analyze_calls[("Q2.0", None)] == 2
    # and settled and decided again
    assert [c.cache_info().misses for c in caches] == [m + 1 for m in misses]
    assert [c.cache_info().currsize for c in caches] == [cap] * 3


def test_mutating_a_witness_report_does_not_leak(analyze_calls):
    # the first report is the one kept for s > 0, named as it is decided, the
    # second the same report on a hit: every tampering with either raises
    from dataclasses import FrozenInstanceError

    first = witness_check(Q2, Q2W, {"s": Fraction(1)})
    second = witness_check(Q2, Q2W, {"s": Fraction(5, 2)})
    expected = repr(first)
    kept = repr(analyzer._sign_report(Q2, Q2W, 1, None))
    for rep in (first, second):
        for row in rep.rows:
            cc = row.classes[0]
            for obj, attr in ((rep, "name"), (row, "abeta_complex"), (cc, "chi_complex"),
                              (cc.real, "kind"), (cc.real, "count")):
                with pytest.raises(FrozenInstanceError):
                    setattr(obj, attr, -7)
            with pytest.raises(AttributeError):
                row.classes.clear()
        with pytest.raises(AttributeError):
            rep.rows.clear()
        with pytest.raises(AttributeError):
            rep.notes.append("tampered")
    again = witness_check(Q2, Q2W, {"s": Fraction(1)})
    assert repr(again) == expected and again.verdict == CONFIRMED
    assert repr(analyzer._sign_report(Q2, Q2W, 1, None)) == kept
    assert analyze_calls[("Q2", None)] == 1
    assert analyzer._sign_report.cache_info().misses == 1


def test_a_kept_sign_report_is_shared_under_each_callers_name(analyze_calls):
    one = witness_check(Q2, Q2W, {"s": Fraction(1)}, name="at one")
    other = witness_check(Q2, Q2W, {"s": Fraction(5, 2)}, name="at five halves")
    kept = analyzer._sign_report(Q2, Q2W, 1, None)
    assert (one.name, other.name, kept.name) == ("at one", "at five halves", "")
    assert one.rows is kept.rows and other.rows is kept.rows
    assert analyze_calls == {("Q2", None): 1}


def _reachable(value):
    """value and everything reachable from it through dataclass fields and tuples."""
    from dataclasses import fields, is_dataclass

    yield value
    if is_dataclass(value):
        for f in fields(value):
            yield from _reachable(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _reachable(item)


@pytest.mark.parametrize("name", ["q2", "a1", "p1"])
def test_a_witness_report_reaches_no_mutable_value(name, analyze_calls):
    # a report may be shared by every caller of its sign of s, so a field
    # added as a list, dict or set, or as a dataclass that is not frozen,
    # would let one caller change another's answer
    from dataclasses import is_dataclass

    base, pert = shipped_witnesses()[name]
    for s in (Fraction(1), Fraction(-1), Fraction(7, 3)):
        for value in _reachable(witness_check(base, pert, {"s": s})):
            assert not isinstance(value, (list, dict, set)), (name, s, value)
            if is_dataclass(value):
                assert type(value).__dataclass_params__.frozen, (name, s, type(value))


def test_kernel_sees_only_int_coefficients(monkeypatch, computed_at_s):
    # numerator dicts cross the kernel boundary as they are: Python ints only
    from germlab import _kernel

    real = _kernel.std_basis
    seen = []

    def spy(gens, local, trunc=0):
        seen.append([type(c) for g in gens for c in g.values()])
        return real(gens, local, trunc)

    monkeypatch.setattr(_kernel, "std_basis", spy)
    analyze(make(["x*z + y*z^2", "z^3 + y^2*z"], name="Q2spy"))
    local_calls = len(seen)
    witness_check(Q2, Q2W, {"s": Fraction(7, 3)})
    assert local_calls and len(seen) > local_calls
    assert {t for types in seen for t in types} == {int}


# sha256 prefix of the repr of the analyze() reports of the 40 germs of
# table_germs(), each analyzed twice; recorded (at seeds 0 and 5, when the
# sweep's Le-Greuel chains still took one) before the finiteness sweep
# measured every Milnor number
ANALYZE_REPR_PIN = "2a34403247e5ef27"

TABLE_FAMILIES = {"A": (1, 30), "C": (3, 30), "D": (4, 30), "E": (6, 8), "B": (2, 6),
                  "P": (1, 5), "Q": (2, 12), "R": (3, 6)}


def table_germs(seed=23, n=40):
    """n seeded catalog germs: simple-family members at drawn indices, and one
    in four a nonsimple row at parameters a/b (|a| <= 8, b <= 4) within its guard."""
    from germlab.catalog import CatalogError, nonsimple_entry, simple_entry

    rng = random.Random(seed)
    labels, germs = set(), []
    while len(germs) < n:
        if rng.random() < 0.25:
            row = rng.choice(("I", "III", "IV", "V", "VI", "VII", "VIII"))
            values = {q: Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                      for q in ("ab" if row in ("I", "VIII") else "a")}
            try:
                entry = nonsimple_entry(row, values)
            except CatalogError:
                continue
        else:
            fam = rng.choice(sorted(TABLE_FAMILIES))
            lo, hi = TABLE_FAMILIES[fam]
            k = rng.randint(lo, hi)
            if fam == "P" and k % 3 == 0:
                continue
            entry = simple_entry(fam, k=k)
        if entry.label not in labels:
            labels.add(entry.label)
            germs.append(entry.germ)
    return germs


def test_analyze_reports_pinned_over_seeded_table_germs():
    import hashlib

    germs = table_germs()
    text = "\n".join(repr(analyze(g)) for _ in range(2) for g in germs)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == ANALYZE_REPR_PIN


# -- one witness report per sign of s -------------------------------------------

A1 = make(["z^2", "z^3 + x^2*z + y^2*z"], name="A1")
P1 = make(["y*z + z^4", "x*z + z^3"], name="P1")
A1IND = make(["z^2", "z^3 + x^2*z - y^2*z"], name="A1ind")
CUSP = make(["z^2", "z^3"], varnames=("z",), n=1, p=2, name="cusp")

# (base, one-parameter perturbation) with positive weights (x, y, z; s)
HOMOGENEOUS = {
    "A1ind": (A1IND, make(["z^2", "z^3 + x^2*z - y^2*z - s*z"], params=("s",))),
    "P1bad": (P1, make(["y*z + z^4 - s*z", "x*z + z^3"], params=("s",))),
    "cusp-node": (CUSP, make(["z^2", "z^3 - s*z"], params=("s",), varnames=("z",), n=1, p=2)),
}
# no positive weights: the verdict of the first one changes within one sign of s
NOT_HOMOGENEOUS = {
    "Q2+sz2": (Q2, make(["x*z + y*z^2 + s*z^2", "z^3 + y^2*z - s*z"], params=("s",))),
    "P1+sz7": (P1, make(["y*z + z^4 - s*z^2 + s*z^7", "x*z + z^3"], params=("s",))),
    "cusp": (CUSP, make(["z^2 + s*z - s*z^2", "z^3"], params=("s",), varnames=("z",),
                        n=1, p=2)),
}
# weighted homogeneous in (x, y, z; s, t), but its verdict follows the sign of s + t
TWO_PARAMETERS = make(["x*z + y*z^2", "z^3 + y^2*z - s*z - t*z"], params=("s", "t"))


def shipped_witnesses():
    from pathlib import Path

    from germlab.germfile import load_germ_file

    out = {}
    for name in ("q2", "a1", "p1"):
        gf = load_germ_file(str(Path(__file__).resolve().parent.parent / "germs" / f"{name}.germ"))
        out[name] = (gf.base_germ(), gf.symbolic_germ(perturbed=True))
    return out


def sign_s_values():
    """At least 20 values of s of each sign, the extremes among them."""
    values = [Fraction(1, 10**12), Fraction(10**12), Fraction(3**40, 2**60)]
    values += witness_s_values(seed=29, n=34)
    values += [-s for s in values[:3]]
    assert sum(s > 0 for s in values) >= 20 and sum(s < 0 for s in values) >= 20
    return values


def _is_weighting(germ, w):
    return all(len({sum(a * b for a, b in zip(e, w)) for e in g.terms}) <= 1
               for g in germ.components)


def test_positive_weights_of_known_perturbations():
    from germlab.germs import positive_weights

    shipped = shipped_witnesses()
    assert {name: positive_weights(pert) for name, (_, pert) in shipped.items()} == {
        "q2": (2, 1, 1, 2), "a1": (1, 1, 1, 2), "p1": (2, 3, 1, 2)}
    assert positive_weights(HOMOGENEOUS["A1ind"][1]) == (1, 1, 1, 2)
    assert positive_weights(HOMOGENEOUS["P1bad"][1]) == (2, 3, 1, 3)
    assert positive_weights(HOMOGENEOUS["cusp-node"][1]) == (1, 2)
    # e.g. p1 + s*z^7: y*z = z^4 = s*z^2 = s*z^7 asks 5 w_z = 0
    for _, pert in NOT_HOMOGENEOUS.values():
        assert positive_weights(pert) is None, pert
    # x*z = s*x*z^2 asks w_s = -w_z: only a non-positive weight makes it homogeneous
    assert positive_weights(make(["x*z + s*x*z^2", "z^3 - s*z"], params=("s",))) is None
    assert positive_weights(make(["x*z - s*x*z^2", "z^3"], params=("s",))) is None
    # one weight per symbol, parameters last
    assert positive_weights(TWO_PARAMETERS) == (2, 1, 1, 2, 2)
    two = make(["x*z + y*z^2", "z^3 + y^2*z - s*z + t*z^2"], params=("s", "t"))
    assert positive_weights(two) == (2, 1, 1, 2, 1)
    # symbols that no equation ties down still get a positive weight
    free = make(["z^2", "z^3 - s*z"], params=("s",))
    w = positive_weights(free)
    assert min(w) > 0 and _is_weighting(free, w)


def test_positive_weights_of_seeded_homogeneous_germs():
    # oracle: components built from monomials of one weighted degree under
    # drawn weights.  The finder's answer may differ from the drawn weights
    # but must be a positive weighting; with one more term it is None or
    # again a positive weighting.
    from itertools import product

    from germlab.germs import positive_weights

    rng = random.Random(31)
    found = 0
    for _ in range(60):
        weights = [rng.randint(1, 3) for _ in range(4)]  # x, y, z, s
        ring = PolyRing(("x", "y", "z"), ("s",))
        comps = []
        for _ in range(2):
            d = rng.randint(3, 7)
            exps = [e for e in product(range(5), repeat=4)
                    if sum(a * b for a, b in zip(e, weights)) == d and e[2]]
            picks = rng.sample(exps, min(len(exps), rng.randint(1, 4)))
            comps.append(sum((ring.monomial(dict(zip(ring.syms, e)), rng.choice((-2, -1, 1, 3)))
                              for e in picks), ring.zero()))
        germ = GermCorank1(3, 4, ring, tuple(comps))
        w = positive_weights(germ)
        assert w is not None and min(w) > 0 and _is_weighting(germ, w), (weights, comps)
        found += len(set(w)) > 1
        extra = comps[0] + ring.monomial({"x": rng.randint(0, 2), "z": rng.randint(1, 4)})
        other = GermCorank1(3, 4, ring, (extra, comps[1]))
        w = positive_weights(other)
        assert w is None or (min(w) > 0 and _is_weighting(other, w)), (weights, extra)
    assert found


def test_one_report_per_sign_equals_the_report_computed_at_s(monkeypatch):
    import germlab.poly as poly

    cases = {**shipped_witnesses(), **HOMOGENEOUS}
    values = sign_s_values()
    analyzer._sign_report.cache_clear()
    reused = {(name, s): witness_check(base, pert, {"s": s}, name=name)
              for name, (base, pert) in cases.items() for s in values}
    assert analyzer._sign_report.cache_info().misses == 2 * len(cases)

    eliminations = []
    real = poly.eliminate_linear

    def counting(gens):
        eliminations.append(1)
        return real(gens)

    _patch_everywhere(monkeypatch, real, counting)
    monkeypatch.setattr(analyzer, "positive_weights", lambda germ: None)
    verdicts = set()
    for (name, s), rep in reused.items():
        base, pert = cases[name]
        analyzer._settled.cache_clear()
        analyzer._base_report.cache_clear()
        analyzer._sign_report.cache_clear()
        eliminations.clear()
        computed = witness_check(base, pert, {"s": s}, name=name)
        assert eliminations, (name, s)  # decided at s, not read from a kept report
        assert computed == rep, (name, s)
        verdicts.add((name, s > 0, rep.verdict))
    analyzer._settled.cache_clear()
    analyzer._sign_report.cache_clear()
    assert len(verdicts) == 2 * len(cases)  # one verdict per germ and sign
    assert {v for _, _, v in verdicts} == {CONFIRMED, REFUTED, INCONCLUSIVE}


def test_perturbations_without_weights_are_decided_at_each_s(monkeypatch):
    import germlab.poly as poly

    eliminations = []
    real = poly.eliminate_linear

    def counting(gens):
        eliminations.append(1)
        return real(gens)

    _patch_everywhere(monkeypatch, real, counting)
    analyzer._sign_report.cache_clear()
    values = [Fraction(1, 100), Fraction(1), Fraction(1, 100), Fraction(-7, 3), Fraction(-7, 3)]
    for name, (base, pert) in NOT_HOMOGENEOUS.items():
        for s in values:
            eliminations.clear()
            witness_check(base, pert, {"s": s})
            assert eliminations, (name, s)
    # the verdict of Q2 + s*z^2 differs between two values of s > 0
    base, pert = NOT_HOMOGENEOUS["Q2+sz2"]
    assert witness_check(base, pert, {"s": Fraction(1, 100)}).verdict == CONFIRMED
    assert witness_check(base, pert, {"s": Fraction(1)}).verdict == REFUTED
    # two parameters: never looked up, and the sign of s alone does not decide
    info = analyzer._sign_report.cache_info()
    verdicts = set()
    for t in (Fraction(1, 3), Fraction(-2), Fraction(1, 3)):
        eliminations.clear()
        verdicts.add(witness_check(Q2, TWO_PARAMETERS, {"s": Fraction(1), "t": t}).verdict)
        assert eliminations, t
    assert verdicts == {CONFIRMED, REFUTED}
    assert analyzer._sign_report.cache_info() == info
    analyzer._sign_report.cache_clear()


def _count_calls(monkeypatch):
    """Counts calls of every substitution, cast, weight solve and elimination."""
    from collections import Counter

    import germlab.germs as germs
    import germlab.poly as poly

    counts = Counter()

    def counting(key, real):
        def fake(*args):
            counts[key] += 1
            return real(*args)
        return fake

    for real in (poly.eliminate_linear, germs.positive_weights):
        _patch_everywhere(monkeypatch, real, counting(real.__name__, real))
    for cls, method in ((poly.Polynomial, "subs_params"), (poly.Polynomial, "cast"),
                        (germs.GermCorank1, "at_params")):
        monkeypatch.setattr(cls, method, counting(method, getattr(cls, method)))
    return counts


def test_a_kept_report_runs_no_elimination_and_no_analyze(monkeypatch, analyze_calls):
    counts = _count_calls(monkeypatch)
    cases = shipped_witnesses()
    for base, pert in cases.values():
        for s in (Fraction(1), Fraction(-1)):
            witness_check(base, pert, {"s": s})
    assert counts["positive_weights"] == len(cases)  # solved once per (germ, perturbation)
    assert sum(analyze_calls.values()) == len(cases)
    counts.clear()
    for base, pert in cases.values():
        for s in sign_s_values():
            assert witness_check(base, pert, {"s": s}).name == base.name
            assert witness_check(base, pert, {"s": s}, name="named").name == "named"
    assert counts == {}  # no substitution, cast, weight solve or elimination
    assert sum(analyze_calls.values()) == len(cases)


def test_the_reduction_at_zero_is_checked_once_per_key(monkeypatch):
    # copied and decided requests alike check the reduction to the germ once
    # per (germ, perturbation); a decided request still substitutes its s
    counts = _count_calls(monkeypatch)
    keys = {"Q2": (Q2, Q2W), **NOT_HOMOGENEOUS, "two": (Q2, TWO_PARAMETERS)}
    analyzer._settled.cache_clear()
    analyzer._sign_report.cache_clear()
    decided = 0
    for _ in range(2):
        for name, (base, pert) in keys.items():
            for s in (Fraction(1), Fraction(-7, 3)):
                witness_check(base, pert, {"s": s, "t": Fraction(1)} if name == "two" else {"s": s})
                decided += name != "Q2"
    assert analyzer._settled.cache_info().misses == len(keys)
    assert counts["cast"] == sum(len(base.components) for base, _ in keys.values())
    # the decided requests, and Q2W's two reports kept per sign
    assert counts["at_params"] == len(keys) + decided + 2
    analyzer._settled.cache_clear()


def test_loading_germ_files_solves_no_weights():
    # import and germ-file load stay as cheap as before: nothing is solved
    # and no report is kept until a witness asks
    import subprocess
    import sys
    from pathlib import Path

    germs = Path(__file__).resolve().parent.parent / "germs"
    script = f"""
import sys
solved = []

def watch(frame, event, arg):
    if event == "call" and frame.f_code.co_name in ("positive_weights", "_point_above_one"):
        solved.append(frame.f_code.co_name)

sys.setprofile(watch)
import germlab.analyzer as analyzer
from germlab.germfile import load_germ_file
for name in ("q2", "a1", "p1"):
    gf = load_germ_file({str(germs)!r} + "/" + name + ".germ")
    gf.base_germ(), gf.symbolic_germ(perturbed=True)
sys.setprofile(None)
assert not solved, solved
for cache in (analyzer._settled, analyzer._sign_report):
    info = cache.cache_info()
    assert info.currsize == info.hits == info.misses == 0, info
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr
