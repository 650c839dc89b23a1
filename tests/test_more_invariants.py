"""Cross-checks tying independent routes to the same answers."""

import io
from contextlib import redirect_stdout

from germlab import _kernel
from germlab.catalog import simple_entry
from germlab.cli import main
from germlab.germs import build_Dk
from germlab.ideals import Ideal, germ_is_empty, standard_basis
from germlab.poly import PolyRing
from germlab.simplicial import GComplex
from germlab.smith import smith_special_ranks


def test_germ_emptiness_agrees_with_unit_detection():
    # the constant-term shortcut must match unit detection by the local basis
    R = PolyRing(("x", "y"))
    x, y = R.sym("x"), R.sym("y")
    samples = [
        [x, y],
        [x + 1, y],
        [x * y - x],
        [x ** 2 + 1, y ** 3],
        [R.const(2)],
        [x ** 2 - x],  # unit times x: germ nonempty, affine variety has 0 and 1
    ]
    for gens in samples:
        I = Ideal.of(gens, local=True)
        basis = standard_basis(I)
        zero = (0,) * R.nvars
        unit_found = any(_kernel.lead_exp(g, True) == zero for g in basis)
        assert germ_is_empty(I) == unit_found, [str(g) for g in gens]


def test_emptiness_is_monotone_in_k():
    e = simple_entry("A", k=1)
    assert germ_is_empty(dict(build_Dk(e.germ, 3))[(1, 1, 1)])
    assert germ_is_empty(dict(build_Dk(e.germ, 4))[(1, 1, 1, 1)])
    assert germ_is_empty(dict(build_Dk(e.germ, 5))[(1, 1, 1, 1, 1)])


def test_dk_sigma_expected_complete_intersection_shape():
    # (p-n+1)(k-1) divided differences plus sum(r_i - 1) cycle equations,
    # and that count equals the expected codimension
    for family, arg in (("Q", 2), ("R", 3)):
        e = simple_entry(family, k=arg)
        for k in (2, 3):
            from germlab.germs import expected_dims

            for part, ideal in build_Dk(e.germ, k):
                n_gens = len(ideal.gens)
                assert n_gens == 2 * (k - 1) + (k - len(part))
                codim = ideal.ring.nvars - expected_dims(e.germ.n, e.germ.p, k, part)[1]
                assert n_gens == codim


def test_cmd_table_bit_for_bit_deterministic():
    def grab():
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["table", "simple", "--row", "A2", "--row", "Q2", "--row", "R3"])
        return rc, buf.getvalue()

    rc1, out1 = grab()
    rc2, out2 = grab()
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_smith_special_trivial_g_degenerate():
    # trivial cyclic action: eta = 0, both special complexes vanish and the
    # sequence degenerates onto the fixed part
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from test_topology import triangles_complex

    base = triangles_complex()
    X = GComplex(base.n_vertices, base.facets, base.k, base.sigma_gens,
                 tuple(range(base.n_vertices)), 2, base.coords)
    rep = smith_special_ranks(X, 1)
    assert all(d == 0 for d in rep.dim_rho)
    assert all(d == 0 for d in rep.dim_rho_bar)
    assert rep.dim_fixed == rep.dim_alt
    assert rep.ses_exact
