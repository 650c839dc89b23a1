import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from germlab.catalog import (CatalogError, default_nonsimple_entries,
                             default_simple_entries, nonsimple_entry, simple_entry)
from germlab.cli import main
from germlab.germfile import GermFileError, load_germ_file, parse_germ_file
from germlab.parse import parse_polynomial
from germlab.poly import PolyRing

ROOT = Path(__file__).resolve().parent.parent
GERMS = ROOT / "germs"
COMPLEXES = ROOT / "complexes"


def run_cli(*argv):
    return main(list(argv))


def test_germfile_errors():
    with pytest.raises(GermFileError):
        parse_germ_file("germ X { n=3 p=4; components: z^2; }")  # no vars
    with pytest.raises(Exception):
        parse_germ_file("germ X { n=3 p=4; vars x y z; components: z^2, w^3; }")
    with pytest.raises(GermFileError, match="zero denominator"):
        parse_germ_file("germ X { n=3 p=4; vars x y z; params s=1/0;"
                        " components: x*z + y*z^2, z^3 + y^2*z - s*z; }")


_GERM_CLAUSES = {
    "n= p=": "n=3 p=4;",
    "vars": "vars x y z;",
    "params": "params s=1;",
    "components:": "components: x*z + y*z^2, z^3 + y^2*z;",
    "perturbation:": "perturbation: x*z + y*z^2, z^3 + y^2*z - s*z;",
}


@pytest.mark.parametrize("repeated", list(_GERM_CLAUSES))
def test_germfile_rejects_repeated_clauses(capsys, tmp_path, repeated):
    # a repeat is an error, not "the last one wins"
    body = " ".join(_GERM_CLAUSES.values())
    parse_germ_file(f"germ X {{ {body} }}")
    twice = f"germ X {{ {body} {_GERM_CLAUSES[repeated]} }}"
    with pytest.raises(GermFileError, match="more than once"):
        parse_germ_file(twice)
    path = tmp_path / "twice.germ"
    path.write_text(twice)
    assert run_cli("analyze", str(path)) == 64
    assert "more than once" in capsys.readouterr().err


def test_germfile_rejects_repeated_parameter_names(capsys, tmp_path):
    text = ("germ X { n=3 p=4; vars x y z; params s=1 s=2;"
            " components: x*z + y*z^2, z^3 + y^2*z;"
            " perturbation: x*z + y*z^2, z^3 + y^2*z - s*z; }")
    with pytest.raises(GermFileError, match="'s' given more than once"):
        parse_germ_file(text)
    path = tmp_path / "s_twice.germ"
    path.write_text(text)
    assert run_cli("witness", str(path)) == 64
    assert "more than once" in capsys.readouterr().err


@pytest.mark.parametrize("clause", ["varsx y z;", "vars;", "params;", "paramss=1;"])
def test_germfile_keyword_needs_whitespace(capsys, tmp_path, clause):
    # a keyword glued to its data is not read as that keyword
    body = dict(_GERM_CLAUSES)
    body["vars" if clause.startswith("vars") else "params"] = clause
    text = f"germ X {{ {' '.join(body.values())} }}"
    with pytest.raises(GermFileError, match="unrecognized clause"):
        parse_germ_file(text)
    path = tmp_path / "glued.germ"
    path.write_text(text)
    assert run_cli("analyze", str(path)) == 64
    assert "unrecognized clause" in capsys.readouterr().err
    # any whitespace separates a keyword from its data
    spaced = " ".join(_GERM_CLAUSES.values())
    spaced = spaced.replace("vars ", "vars\t").replace("params ", "params\n")
    gf = parse_germ_file(f"germ X {{ {spaced} }}")
    assert gf.germ.ring.vars == ("x", "y", "z") and gf.params == {"s": 1}


def test_catalog_roundtrip_through_germfile():
    gf = load_germ_file(str(GERMS / "q2.germ"))
    entry = simple_entry("Q", k=2)
    assert gf.base_germ().components == entry.germ.components


def test_catalog_guards():
    with pytest.raises(CatalogError):
        simple_entry("B", k=1)
    with pytest.raises(CatalogError):
        simple_entry("P", k=3)  # 3 | k is excluded
    with pytest.raises(CatalogError):
        simple_entry("S", k=2)  # j missing
    with pytest.raises(CatalogError):
        nonsimple_entry("I", {"a": Fraction(1), "b": Fraction(1)})  # needs a != b
    with pytest.raises(CatalogError):
        nonsimple_entry("VII", {"a": Fraction(5, 4)})


def test_default_catalogs_instantiate():
    assert len(default_simple_entries()) == 22
    assert len(default_nonsimple_entries()) == 8


def test_cli_analyze_exit_codes(capsys):
    assert run_cli("analyze", str(GERMS / "q2.germ")) == 0
    out = capsys.readouterr().out
    assert "CANDIDATE" in out and "mu_I: 2" in out
    assert run_cli("analyze", str(GERMS / "a2.germ")) == 1
    capsys.readouterr()


def test_cli_analyze_json(capsys):
    assert run_cli("analyze", str(GERMS / "q2.germ"), "--json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "CANDIDATE"
    assert data["mu_I"] == 2
    assert data["image_betti"] == {"3": 2}
    assert data["rows"][0]["classes"][0]["partition"] == [1, 1]


def test_cli_witness_exit_codes(capsys):
    assert run_cli("witness", str(GERMS / "q2.germ"), "--param", "s=1") == 0
    capsys.readouterr()
    assert run_cli("witness", str(GERMS / "q2.germ"), "--param", "s=-1") == 1
    capsys.readouterr()


def test_cli_witness_two_files(capsys, tmp_path):
    pert = tmp_path / "q2pert.germ"
    pert.write_text(
        "germ Q2pert {\n  n=3 p=4;\n  vars x y z;\n  params s=1;\n"
        "  components: x*z + y*z^2, z^3 + y^2*z - s*z;\n}\n")
    assert run_cli("witness", str(GERMS / "q2.germ"), str(pert)) == 0
    capsys.readouterr()


def test_cli_rules_only(capsys):
    assert run_cli("analyze", str(GERMS / "a2.germ"), "--rules-only") == 1
    out = capsys.readouterr().out
    assert "R1 at k=2" in out and out.strip().endswith("FAILS")


# witness text and --json output per (germ, s): exit code and the first 16
# hex digits of sha256(text + json) with the parameter values taken out of
# the header line and the JSON, as recorded before the output named them.
# That body depends on the sign of s only; it pins every class's smoothness
# verdict, real class, signature and chi.  The rows at s = +-10^-12 and
# +-10^12 were recorded before witness_check reused one report per sign of s.
WITNESS_PINS = [
    ("q2", "1", 0, "8554515ce347a5b1"),
    ("q2", "-1", 1, "666af593237b7165"),
    ("q2", "1/2", 0, "8554515ce347a5b1"),
    ("q2", "-1/2", 1, "666af593237b7165"),
    ("q2", "7/3", 0, "8554515ce347a5b1"),
    ("q2", "99/16", 0, "8554515ce347a5b1"),
    ("q2", "1/1000000000000", 0, "8554515ce347a5b1"),
    ("q2", "-1/1000000000000", 1, "666af593237b7165"),
    ("q2", "1000000000000", 0, "8554515ce347a5b1"),
    ("q2", "-1000000000000", 1, "666af593237b7165"),
    ("a1", "1", 0, "a54e90b2a32eaaf6"),
    ("a1", "-1", 1, "cfb02cc81aba9961"),
    ("a1", "1/2", 0, "a54e90b2a32eaaf6"),
    ("a1", "-1/2", 1, "cfb02cc81aba9961"),
    ("a1", "7/3", 0, "a54e90b2a32eaaf6"),
    ("a1", "99/16", 0, "a54e90b2a32eaaf6"),
    ("a1", "1/1000000000000", 0, "a54e90b2a32eaaf6"),
    ("a1", "-1/1000000000000", 1, "cfb02cc81aba9961"),
    ("a1", "1000000000000", 0, "a54e90b2a32eaaf6"),
    ("a1", "-1000000000000", 1, "cfb02cc81aba9961"),
    ("p1", "1", 0, "0b16069258140c8e"),
    ("p1", "-1", 1, "41a424aa78426605"),
    ("p1", "1/2", 0, "0b16069258140c8e"),
    ("p1", "-1/2", 1, "41a424aa78426605"),
    ("p1", "7/3", 0, "0b16069258140c8e"),
    ("p1", "99/16", 0, "0b16069258140c8e"),
    ("p1", "1/1000000000000", 0, "0b16069258140c8e"),
    ("p1", "-1/1000000000000", 1, "41a424aa78426605"),
    ("p1", "1000000000000", 0, "0b16069258140c8e"),
    ("p1", "-1000000000000", 1, "41a424aa78426605"),
]


# the same digest of the whole output, which names s
WITNESS_OUTPUT_PINS = {
    ("q2", "1"): "751b8436b565fb41",
    ("q2", "-1"): "8684dada6464a8ca",
    ("q2", "1/2"): "61c9294900eaa71f",
    ("q2", "-1/2"): "19eae101cd74ec41",
    ("q2", "7/3"): "49dbc83a084a51e2",
    ("q2", "99/16"): "033e2afa41930ca6",
    ("q2", "1/1000000000000"): "33d181823f7f60ac",
    ("q2", "-1/1000000000000"): "f18004c4e8993c7b",
    ("q2", "1000000000000"): "a239756115fba0b2",
    ("q2", "-1000000000000"): "4d5ab080c3e8c158",
    ("a1", "1"): "51738e8950fec319",
    ("a1", "-1"): "cb50d3f59fbaeaf1",
    ("a1", "1/2"): "0308fbc8f211a2dd",
    ("a1", "-1/2"): "13450d3929486aa2",
    ("a1", "7/3"): "1cf89071c8851b3b",
    ("a1", "99/16"): "46d40d7ef1b353a9",
    ("a1", "1/1000000000000"): "d5492e56960eac29",
    ("a1", "-1/1000000000000"): "f046773be45f5179",
    ("a1", "1000000000000"): "c213e89c8c4b9731",
    ("a1", "-1000000000000"): "4250b4ff0431fa1f",
    ("p1", "1"): "d00fabb36494cdeb",
    ("p1", "-1"): "e9922d4a20b566a6",
    ("p1", "1/2"): "0652caa1fea69239",
    ("p1", "-1/2"): "1204c31f5434d80c",
    ("p1", "7/3"): "f2cc6c3aff289edb",
    ("p1", "99/16"): "304d198365e1a786",
    ("p1", "1/1000000000000"): "bae17d95a0bfcac8",
    ("p1", "-1/1000000000000"): "617e635913ca0146",
    ("p1", "1000000000000"): "0682953899d37218",
    ("p1", "-1000000000000"): "44598f917c33b790",
}


def _digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()[:16]


@pytest.mark.parametrize("germ,s,code,digest", WITNESS_PINS)
def test_cli_witness_output_pinned(capsys, germ, s, code, digest):
    path = str(GERMS / f"{germ}.germ")
    assert run_cli("witness", path, "--param", f"s={s}") == code
    text = capsys.readouterr().out
    assert run_cli("witness", path, "--param", f"s={s}", "--json") == code
    js = capsys.readouterr().out
    assert _digest(text + js) == WITNESS_OUTPUT_PINS[germ, s], text + js
    head, rest = text.split("\n", 1)
    at = f" at s={Fraction(s)}"
    assert head.startswith(f"witness {germ.upper()}{at}: verdict ")
    data = json.loads(js)
    assert data.pop("params") == {"s": str(Fraction(s))}
    body = head.replace(at, "", 1) + "\n" + rest + json.dumps(data, indent=2) + "\n"
    assert _digest(body) == digest, body


def test_cli_witness_output_names_its_parameters():
    assert len(set(WITNESS_OUTPUT_PINS.values())) == len(WITNESS_OUTPUT_PINS)


def test_cli_witness_inconclusive_exit(capsys, tmp_path):
    f = tmp_path / "ind.germ"
    f.write_text(
        "germ A1ind {\n  n=3 p=4;\n  vars x y z;\n  params s=1;\n"
        "  components: z^2, z^3 + x^2*z - y^2*z;\n"
        "  perturbation: z^2, z^3 + x^2*z - y^2*z - s*z;\n}\n")
    assert run_cli("witness", str(f)) == 2
    out = capsys.readouterr().out
    assert "INCONCLUSIVE" in out


def test_cli_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.germ"
    bad.write_text("germ Bad { n=3 p=4; vars x y z; components: z^2 + , z^3; }")
    assert run_cli("analyze", str(bad)) == 64
    capsys.readouterr()


def test_cli_deeply_nested_expression_exits_64(capsys, tmp_path):
    # nesting is refused at a fixed depth, not when the interpreter's stack runs out
    from germlab.parse import MAX_DEPTH, ParseError, parse_polynomial

    R = PolyRing(("x",))
    assert parse_polynomial("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, R) == R.sym("x")
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_polynomial("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), R)
    deep = tmp_path / "deep.germ"
    nested = "(" * 3000 + "z^2" + ")" * 3000
    deep.write_text(f"germ Deep {{ n=3 p=4; vars x y z; components: {nested}, z^3; }}")
    assert run_cli("analyze", str(deep)) == 64
    out, err = capsys.readouterr()
    assert out == "" and "germlab: error: parentheses nested deeper than" in err


def test_cli_deeply_nested_json_exits_64(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    assert run_cli("simplicial", str(deep), "homology") == 64
    out, err = capsys.readouterr()
    assert out == "" and "germlab: error:" in err and "not a JSON file" in err


def test_germ_file_expressions_are_parsed_once(monkeypatch):
    # two components and two perturbation components: four parses, at load
    import germlab.germfile as germfile

    calls = []

    def counting(text, ring):
        calls.append(text)
        return parse_polynomial(text, ring)

    monkeypatch.setattr(germfile, "parse_polynomial", counting)
    gf = load_germ_file(str(GERMS / "q2.germ"))
    gf.base_germ(), gf.symbolic_germ(perturbed=True)
    assert len(calls) == 4, calls


def test_cli_not_finite_exit(capsys, tmp_path):
    f = tmp_path / "sus.germ"
    f.write_text("germ Sus { n=3 p=4; vars x y z; components: z^2, z^3; }")
    assert run_cli("analyze", str(f)) == 3
    capsys.readouterr()


def test_cli_internal_error_exit(capsys, monkeypatch):
    import germlab.cli as cli

    def broken(*args, **kwargs):
        raise ArithmeticError("alternating Milnor number is not an integer")

    monkeypatch.setattr(cli, "analyze", broken)
    assert run_cli("analyze", str(GERMS / "q2.germ")) == cli.EX_INTERNAL == 70
    err = capsys.readouterr().err
    assert err.startswith("germlab: internal error:") and "not an integer" in err


def test_cli_repeated_param_exits_64(capsys):
    q2 = str(GERMS / "q2.germ")
    for cmd in ("analyze", "witness"):
        assert run_cli(cmd, q2, "--param", "s=2", "--param", " s =3") == 64
        assert "--param s given more than once" in capsys.readouterr().err
        assert run_cli(cmd, q2, "--param", "s=2") in (0, 1)
        capsys.readouterr()


def test_cli_witness_at_the_germ_itself_exits_64(capsys):
    # s = 0 assigns the unperturbed germ: a precondition error, not REFUTED
    assert run_cli("witness", str(GERMS / "q2.germ"), "--param", "s=0") == 64
    captured = capsys.readouterr()
    assert "perturbation is the germ itself" in captured.err
    assert "verdict" not in captured.out


def test_cli_usage_errors_exit_64(capsys, tmp_path):
    q2 = str(GERMS / "q2.germ")
    assert run_cli("analyze", q2, "--param", "s=abc") == 64
    assert run_cli("analyze", q2, "--param", "s=1/0") == 64
    assert run_cli("witness", q2, "--param", "S=1") == 64  # a typo for s
    assert "unknown parameters: ['S']" in capsys.readouterr().err
    assert run_cli("table", "simple", "--row", "P3^x") == 64
    assert run_cli("table", "simple", "--row", "S1") == 64
    assert run_cli("table", "simple", "--row", "A\u0661") == 64  # Arabic-Indic 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("simplicial", str(bad), "homology") == 64
    bad.write_text('{"vertices": [["1/0"]], "facets": [[0]]}')
    assert run_cli("simplicial", str(bad), "homology") == 64
    swap = '"vertices": 2, "facets": [[0, 1]], "sigma_generators": [[1, 0]]'
    for text in ('{"vertices": 3}', '{"vertices": 3, "facets": [[0, 1]]}', '[1, 2]',
                 '{"vertices": 3, "facets": [["a", 1]], "sigma_generators": []}',
                 '{"vertices": [[1], 2], "facets": [], "sigma_generators": []}',
                 '{"vertices": -1, "facets": [], "sigma_generators": []}',
                 '{"vertices": true, "facets": [], "sigma_generators": []}',
                 '{%s, "g_action": 3, "p": 2}' % swap,
                 '{%s, "g_action": [1, 0], "p": "2"}' % swap):
        bad.write_text(text)
        assert run_cli("simplicial", str(bad), "homology") == 64
    binary = tmp_path / "binary.germ"
    binary.write_bytes(b"\xff\xfe\x00germ")
    assert run_cli("analyze", str(binary)) == 64
    zero_den = tmp_path / "zero.germ"
    zero_den.write_text((GERMS / "q2.germ").read_text().replace("s=1", "s=1/0"))
    assert "s=1/0" in zero_den.read_text()
    assert run_cli("analyze", str(zero_den)) == 64
    # every number of a germ file is in ASCII digits: n and p, params, expressions
    digits = tmp_path / "digits.germ"
    for old, new in (("n=3 p=4", "n=\u0663 p=\u0664"), ("s=1", "s=\u0661"),
                     ("z^2", "z^\u0662")):
        digits.write_text((GERMS / "q2.germ").read_text().replace(old, new))
        assert new in digits.read_text()
        assert run_cli("analyze", str(digits)) == 64, new
    # every variable and parameter name is one the expression grammar can spell
    capsys.readouterr()
    names = tmp_path / "names.germ"
    for text, message in (
            ("germ T {\n  n=2 p=3;\n  vars x 1z;\n  components: x^2, x^3;\n}\n",
             "bad variable name '1z'"),
            ((GERMS / "q2.germ").read_text().replace("s=1;", "s=1 sé=1;"),
             "bad parameter declaration 'sé=1'")):
        names.write_text(text)
        assert run_cli("analyze", str(names)) == 64, message
        assert message in capsys.readouterr().err
    for coeff in ("f4", "f1", "fx"):
        assert run_cli("simplicial", str(COMPLEXES / "rp2.json"), "homology",
                       "--coeff", coeff) == 64


@pytest.mark.parametrize("argv", [("analyze",), ("witness",), ("simplicial", "homology")],
                         ids=["analyze", "witness", "simplicial"])
def test_cli_unreadable_input_path_exits_64(capsys, tmp_path, argv):
    # a directory and a missing file are usage errors, not internal ones
    for path in (tmp_path, tmp_path / "missing"):
        assert run_cli(argv[0], str(path), *argv[1:]) == 64, path
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("germlab: error:"), path
        assert "Traceback" not in err and "internal" not in err, path


def test_cli_refuses_actions_that_are_not_simplicial_representations(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for text, message in (
            ('{"vertices": 3, "facets": [[0, 1], [2]], "sigma_generators": [[0, 2, 1]]}',
             "action does not map simplexes to simplexes"),
            ('{"vertices": 4, "facets": [[0], [1], [2], [3]], '
             '"sigma_generators": [[1, 0, 2, 3], [0, 1, 3, 2]]}',
             "do not define a representation of the symmetric group"),
            ('{"vertices": 2, "facets": [[0, 1], []], "sigma_generators": []}',
             "a facet is empty"),
            ('{"vertices": 2, "facets": [[0, 1], []], "sigma_generators": [[1, 0]]}',
             "a facet is empty")):
        path.write_text(text)
        assert run_cli("simplicial", str(path), "homology") == 64, text
        out, err = capsys.readouterr()
        assert out == "" and message in err, (text, err)


def test_cli_param_in_float_syntax_exits_64(capsys):
    # a --param value is read like a germ file's params, as -?N or -?N/D, so
    # 1e-20000 is refused before it becomes a Fraction too long to print
    q2 = str(GERMS / "q2.germ")
    for value in ("1e-20000", "0.5", "1e-3", "\u0661/\u0662", "\uff11\uff12"):
        assert run_cli("witness", q2, "--param", f"s={value}") == 64, value
        out, err = capsys.readouterr()
        assert out == "" and "not a rational number" in err, value


def test_germfile_param_too_long_to_convert_exits_64(capsys, tmp_path):
    long = tmp_path / "long.germ"
    long.write_text((GERMS / "q2.germ").read_text().replace("s=1", "s=1/" + "7" * 5000))
    assert run_cli("witness", str(long)) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("germlab: error: parameter 's':")


def test_cli_takes_no_seed(capsys):
    # every answer depends on the input alone, so no subcommand takes a seed
    q2 = str(GERMS / "q2.germ")
    for argv in (("analyze", q2), ("table", "simple"), ("witness", q2, "--param", "s=1")):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--seed", "0")
        assert exc.value.code == 64, argv
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err, argv


def test_cli_max_k_below_two_exits_64(capsys):
    # no multiplicity is checked below k = 2, so there is no verdict to give
    q2 = str(GERMS / "q2.germ")
    for argv in (("witness", q2, "--max-k", "1", "--param", "s=1"),
                 ("analyze", q2, "--max-k", "1"), ("analyze", q2, "--max-k", "-3")):
        assert run_cli(*argv) == 64, argv
        out, err = capsys.readouterr()
        assert out == "" and "max_k must be at least 2" in err, argv
    assert run_cli("analyze", q2, "--max-k", "2") == 0
    capsys.readouterr()


def test_cli_capped_witness_exits_inconclusive(capsys):
    q2 = str(GERMS / "q2.germ")
    for cap, rc in (("2", 2), ("3", 2), ("4", 0)):
        assert run_cli("witness", q2, "--param", "s=5", "--max-k", cap) == rc, cap
        out = capsys.readouterr().out
        assert (f"note: max_k={cap} stops the sweep" in out) == (rc == 2), cap


def test_cli_non_finite_germ_at_the_safety_cap_exits_3(capsys, tmp_path):
    # a germ whose multiple point spaces are never empty reaches the safety
    # cap with violations found: an analysis error, as with the same cap given
    f = tmp_path / "z.germ"
    f.write_text("germ Z { n=3 p=4; vars x y z; components: 0, 0; }")
    errs = []
    for cap in ((), ("--max-k", "12")):
        assert run_cli("analyze", str(f), *cap) == 3, cap
        out, err = capsys.readouterr()
        assert out == "" and "not A-finite: (k=2, (1, 1))" in err, cap
        errs.append(err)
    assert errs[0] == errs[1]


def test_cli_capped_analyze_names_the_cap(capsys):
    q2 = str(GERMS / "q2.germ")
    assert run_cli("analyze", q2, "--max-k", "2") == 0
    out = capsys.readouterr().out
    unknown = "unknown, max_k=2 stops the sweep before the first empty D^k"
    assert f"image reduced Betti: {unknown}\nmu_I: {unknown}" in out
    assert run_cli("analyze", q2, "--max-k", "2", "--json") == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["mu_I"] is None and rep["image_betti"] is None
    assert run_cli("analyze", q2, "--max-k", "4") == 0
    out = capsys.readouterr().out
    assert "image reduced Betti: b3=2\nmu_I: 2" in out and "unknown" not in out


def test_cli_argparse_errors_exit_64(capsys):
    # argparse's own status 2 would read as INCONCLUSIVE
    rp2, swap = str(COMPLEXES / "rp2.json"), str(COMPLEXES / "sphere-swap.json")
    q2 = str(GERMS / "q2.germ")
    # an integer argument is ASCII digits: Arabic-Indic 3 and 1 are refused
    for argv in (("simplicial", rp2, "homology", "--coeff"), ("bogus",), ("analyze",),
                 ("table", "some"), ("analyze", q2, "--max-k", "x"),
                 ("analyze", q2, "--max-k", "\u0663"), ("table", "simple", "--max-k", "\u0663"),
                 ("simplicial", swap, "smith", "--i", "\u0661")):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 64, argv
        assert "usage: germlab" in capsys.readouterr().err
    proc = subprocess.run([sys.executable, "-m", "germlab.cli", "simplicial", rp2,
                           "homology", "--coeff"], capture_output=True, text=True)
    assert proc.returncode == 64
    assert "expected one argument" in proc.stderr


def test_cli_simplicial_refuses_flags_its_action_ignores(capsys):
    sphere = str(COMPLEXES / "sphere-swap.json")
    for argv in (("alt", "--coeff", "f2"), ("chi", "--coeff", "q"), ("floyd", "--coeff", "z"),
                 ("smith", "--coeff", "f2"), ("smith", "--i", "1", "--coeff", "f2"),
                 ("homology", "--i", "1"), ("alt", "--i", "0"), ("chi", "--i", "1"),
                 ("floyd", "--i", "1")):
        assert run_cli("simplicial", sphere, *argv) == 64, argv
        out, err = capsys.readouterr()
        assert out == "" and "applies to" in err, argv
    for argv in (("homology", "--coeff", "f2"), ("smith", "--i", "1"), ("floyd",)):
        assert run_cli("simplicial", sphere, *argv) == 0, argv
        capsys.readouterr()


def _simplicial_subprocess(*argv):
    # a subprocess with a timeout, so that a hang fails the test instead of the run
    return subprocess.run([sys.executable, "-m", "germlab.cli", "simplicial", *argv],
                          capture_output=True, text=True, timeout=20)


def test_cli_primes_above_max_p_exit_64_quickly(tmp_path):
    def refused(*argv):
        proc = _simplicial_subprocess(*argv)
        assert proc.returncode == 64, (argv[1:], proc.stderr)
        assert proc.stdout == "" and "germlab: error:" in proc.stderr, argv[1:]

    def with_p(p: str) -> str:
        path = tmp_path / f"p{len(p)}.json"
        path.write_text('{"vertices": 2, "facets": [[0], [1]], "sigma_generators": [], '
                        '"g_action": [0, 1], "p": %s}' % p)
        return str(path)

    rp2 = str(COMPLEXES / "rp2.json")
    refused(rp2, "homology", "--coeff", "F100000000000000000039")
    refused(with_p("100000000000031"), "floyd")
    from germlab.simplicial import MAX_P

    for p in (str(MAX_P + 1), str(2**40), "9" * 5000):
        refused(rp2, "homology", "--coeff", "F" + p)
        refused(with_p(p), "floyd")


def test_cli_complex_above_the_cell_cap_exits_64_quickly(tmp_path):
    # a 6-simplex with Sigma_6 swapping six of its vertices: one subdivision
    # would have 94,585 cells, and its boundary matrices would exhaust memory
    from germlab.simplicial import MAX_CELLS, load_json, validate_or_subdivide

    swaps = [list(range(i)) + [i + 1, i] + list(range(i + 2, 7)) for i in range(5)]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"vertices": 7, "facets": [list(range(7))],
                                "sigma_generators": swaps}))
    proc = _simplicial_subprocess(str(path), "homology")
    assert proc.returncode == 64, proc.stderr
    assert proc.stdout == "" and f"94585 cells, above the supported maximum {MAX_CELLS}" in proc.stderr
    path.write_text(json.dumps({"vertices": 20, "facets": [list(range(20))],
                                "sigma_generators": []}))
    proc = _simplicial_subprocess(str(path), "homology")
    assert proc.returncode == 64 and "2^20 - 1 faces" in proc.stderr, proc.stderr
    # the shipped complexes subdivided twice (at most 1,081 cells) pass
    for path in sorted(COMPLEXES.glob("*.json")):
        X = load_json(str(path)).barycentric_subdivision().barycentric_subdivision()
        assert validate_or_subdivide(X) == X


def test_cli_g_action_of_large_order_names_its_order(capsys, tmp_path):
    # g has cycles of the primes 2..23, order 223,092,870, on 400 vertices:
    # its order is read off the cycles, not found by composing g with itself
    g, start = list(range(400)), 0
    for length in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        g[start:start + length] = [start + (i + 1) % length for i in range(length)]
        start += length
    path = tmp_path / "big-order.json"
    path.write_text(json.dumps({"vertices": 400, "facets": [[v] for v in range(400)],
                                "sigma_generators": [], "g_action": g, "p": 2}))
    assert run_cli("simplicial", str(path), "floyd") == 64
    out, err = capsys.readouterr()
    assert out == "" and "g action order must divide p" in err, err


@pytest.mark.parametrize("vertices", [[[0.5], [0]], [["x"], [0]], [[0], 1], [0.5, "x"],
                                      [1, [0]], [None, None], [[0], [0, 1, 2]], [[True], [0]],
                                      [["1.5"], [0]], [["1e-3"], [0]], [[" 1/2 "], [0]],
                                      [["1_000"], [0]]],
                         ids=["float", "not-rational", "mixed", "bare-entries",
                              "bare-then-list", "nulls", "ragged", "bool", "decimal-string",
                              "exponent-string", "padded-string", "underscore-string"])
def test_cli_inexact_vertex_coordinates_exit_64(capsys, tmp_path, vertices):
    path = tmp_path / "coords.json"
    path.write_text(json.dumps({"vertices": vertices, "facets": [[0, 1]],
                                "sigma_generators": []}))
    assert run_cli("simplicial", str(path), "homology") == 64
    out, err = capsys.readouterr()
    assert out == "" and "germlab: error:" in err and "Traceback" not in err, err


def test_cli_large_accepted_p_finishes(tmp_path):
    # g of order 1 with a large p: only g's own powers are enumerated, and
    # the special complexes take powers of 1 - g by repeated squaring
    path = tmp_path / "trivial-g.json"
    for p, action in ((2**30, ("smith",)), (2147483647, ("smith", "--i", "2000000000")),
                      (2147483647, ("floyd",))):
        path.write_text('{"vertices": 2, "facets": [[0], [1]], "sigma_generators": [], '
                        '"g_action": [0, 1], "p": %d}' % p)
        proc = _simplicial_subprocess(str(path), *action)
        assert proc.returncode == 0, (p, action, proc.stderr)


def test_cli_engine_value_errors_are_internal(capsys, monkeypatch):
    import germlab.cli as cli
    import germlab.homology
    from germlab.milnor import EmptyGermError

    for exc in (EmptyGermError("empty germ"), ValueError("engine bug")):
        def broken(*args, exc=exc, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "analyze", broken)
        assert run_cli("analyze", str(GERMS / "q2.germ")) == 70
        monkeypatch.setattr(germlab.homology, "smith_normal_form", broken)
        assert run_cli("simplicial", str(COMPLEXES / "rp2.json"), "homology") == 70
        assert capsys.readouterr().err.startswith("germlab: internal error:")


def test_cli_closed_stdout_exits_141():
    proc = subprocess.Popen([sys.executable, "-m", "germlab.cli", "table", "simple"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 141
    assert err == b""


# Every `simplicial` action on every shipped complex, recorded while the
# complex still kept vertex coordinates: per complex, the first 16 hex
# digits of sha256 over the exit code and stdout of its 24 commands.
SIMPLICIAL_ACTIONS = (("homology",), ("homology", "--coeff", "q"),
                      ("homology", "--coeff", "f2"), ("homology", "--coeff", "f3"),
                      ("alt",), ("chi",), ("floyd",), ("smith",),
                      ("smith", "--i", "0"), ("smith", "--i", "1"),
                      ("smith", "--i", "2"), ("smith", "--i", "3"))

SIMPLICIAL_PINS = {
    "rp2": "d2527b1b3bf15ed8",
    "sphere-reflection": "30cb1d7b3440712b",
    "sphere-swap": "9718a2cb5ad12eb6",
    "triangles": "d4698d5a0648d303",
}


@pytest.mark.parametrize("name", sorted(SIMPLICIAL_PINS))
def test_cli_simplicial_outputs_pinned(capsys, name):
    record = []
    for action in SIMPLICIAL_ACTIONS:
        for fmt in ((), ("--json",)):
            code = run_cli("simplicial", str(COMPLEXES / f"{name}.json"), *action, *fmt)
            record.append(f"{code}\n{capsys.readouterr().out}")
    assert _digest("".join(record)) == SIMPLICIAL_PINS[name], record


def test_cli_simplicial(capsys):
    assert run_cli("simplicial", str(COMPLEXES / "triangles.json"), "alt") == 0
    out = capsys.readouterr().out
    assert "AH_0: rank 1" in out
    assert run_cli("simplicial", str(COMPLEXES / "rp2.json"), "homology",
                   "--coeff", "f2") == 0
    out = capsys.readouterr().out
    assert out.count("rank 1") == 3
    assert run_cli("simplicial", str(COMPLEXES / "sphere-swap.json"), "smith") == 0
    capsys.readouterr()
    assert run_cli("simplicial", str(COMPLEXES / "sphere-reflection.json"), "floyd") == 0
    capsys.readouterr()
    assert run_cli("simplicial", str(COMPLEXES / "triangles.json"), "chi", "--json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["chi_alt_fixed_point"] == data["chi_alt_direct"] == "0" or \
        int(data["chi_alt_fixed_point"]) == data["chi_alt_direct"]


def test_cli_table_rows(capsys):
    assert run_cli("table", "simple", "--row", "A1", "--row", "Q2", "--row", "S1,2") == 0
    out = capsys.readouterr().out
    assert "A1" in out and "Q2" in out and "S1,2" in out


def test_cli_table_rows_keep_the_given_order(capsys):
    for labels in (("VII", "A1", "D4", "A2"), ("A2", "D4", "A1", "VII")):
        argv = [a for label in labels + ("a1",) for a in ("--row", label)]
        assert run_cli("table", "simple", *argv, "--json") == 0
        got = [row["label"].split("[")[0] for row in json.loads(capsys.readouterr().out)]
        assert got == list(labels)


def test_cli_output_repeats_across_hash_seeds():
    commands = [
        ("table", "simple", "--row", "A1", "--row", "A2", "--row", "D4", "--row", "VII",
         "--json"),
        ("witness", str(GERMS / "q2.germ"), "--json"),
        ("simplicial", str(COMPLEXES / "rp2.json"), "alt", "--json"),
    ]
    for argv in commands:
        outs = []
        for seed in ("0", "1"):
            proc = subprocess.run([sys.executable, "-m", "germlab.cli", *argv],
                                  capture_output=True, timeout=60,
                                  env=dict(os.environ, PYTHONHASHSEED=seed))
            assert proc.returncode == 0, (argv, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], argv


def test_cli_table_all_matches_the_catalog(capsys):
    # every row of both tables, row II included, recomputed and compared
    assert run_cli("table", "all", "--json") == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 30
    assert all(row["match"] is True for row in rows)
    assert any(row["label"].startswith("II[") for row in rows)


# The analyzer's whole output, recorded before the sweep read mu off the
# Jacobian of a hypersurface and witness_check decided emptiness after
# elimination: the first 16 hex digits of sha256 of `analyze FILE --json`
# (with its exit code) per shipped germ, and of the same JSON report for
# every `table all` germ, named by its label.
ANALYZE_PINS = {
    "a1": (0, "bb979d47d30a624f"),
    "a2": (1, "f8c93630f85cb4ee"),
    "p1": (0, "a11faf999ac4f794"),
    "q2": (0, "bbca4f90e260fa9b"),
}

TABLE_ANALYZE_PINS = {
    "A1": "bb979d47d30a624f",
    "A2": "f8c93630f85cb4ee",
    "A3": "bd7d8f99644cb286",
    "A4": "df5cac4ad9540083",
    "D4": "6511b39939c25a2e",
    "D5": "74c7693a70ca4649",
    "E6": "3034e3e80e0b3718",
    "E7": "d2f38d0f22c2cafe",
    "E8": "8b114b9e34a20abb",
    "B2": "00174b5b59bbfba7",
    "B3": "6859cc22c5cea192",
    "C3": "d37ee7347fcaf98d",
    "C4": "ac5c122dee486923",
    "F4": "3c6d743a98fbb0a9",
    "P1": "a11faf999ac4f794",
    "P2": "93c9f4f9536cdb41",
    "P3^2": "3d98290a2f9aa665",
    "P4^1": "68120ceeb2c1888e",
    "Q2": "bbca4f90e260fa9b",
    "Q3": "7472ff52eb2c47e1",
    "R3": "9205eea1f8ebfc03",
    "S1,2": "21a142798a285cc4",
    "I[a=0,b=1]": "b3a527583e27ca99",
    "II[a=2,b=1,c=2]": "eb211524fc7fd6d7",
    "III[a=0]": "63eda4b07b0858a6",
    "IV[a=0]": "a359c16609004d2e",
    "V[a=0]": "1eced66cf6609776",
    "VI[a=0]": "c1c8a15761b5e0d0",
    "VII[a=2]": "60412d7a8346abc9",
    "VIII[a=0,b=1]": "5f1df0878cda0ea7",
}

# `table all` text and --json, recorded at the same time
TABLE_ALL_PINS = ("48a1a0090adfc98f", "7d4aaf62e6f66332")


@pytest.mark.parametrize("germ", sorted(ANALYZE_PINS))
def test_cli_analyze_json_pinned(capsys, germ):
    code, digest = ANALYZE_PINS[germ]
    assert run_cli("analyze", str(GERMS / f"{germ}.germ"), "--json") == code
    out = capsys.readouterr().out
    assert _digest(out) == digest, out


def test_table_all_analyze_reports_pinned(capsys):
    from germlab.analyzer import analyze
    from germlab.cli import grp_report_dict

    entries = default_simple_entries() + default_nonsimple_entries()
    assert [e.label for e in entries] == list(TABLE_ANALYZE_PINS)
    for e in entries:
        out = json.dumps(grp_report_dict(analyze(e.germ)), indent=2) + "\n"
        assert _digest(out) == TABLE_ANALYZE_PINS[e.label], (e.label, out)
    assert run_cli("table", "all") == 0
    text = capsys.readouterr().out
    assert run_cli("table", "all", "--json") == 0
    js = capsys.readouterr().out
    assert (_digest(text), _digest(js)) == TABLE_ALL_PINS, text


def test_cli_entrypoint_subprocess():
    proc = subprocess.run([sys.executable, "-m", "germlab.cli", "analyze",
                           str(GERMS / "q2.germ")], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "CANDIDATE" in proc.stdout


def test_cli_float_scalar_exits_64(capsys, monkeypatch):
    import germlab.cli as cli

    def floating(germ, **kwargs):
        return germ.components[0] * 0.5  # a float never becomes a coefficient

    monkeypatch.setattr(cli, "analyze", floating)
    assert run_cli("analyze", str(GERMS / "q2.germ")) == 64
    assert "Fraction" in capsys.readouterr().err
