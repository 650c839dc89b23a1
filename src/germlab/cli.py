"""The germlab command line.

    germlab analyze  FILE.germ [--json] [--max-k N] [--rules-only]
                     [--param name=value]...
    germlab table    {simple,nonsimple,all} [--json] [--row LABEL]...
    germlab witness  GERM.germ [PERT.germ] [--param name=value]... [--json]
    germlab simplicial FILE.json {homology,alt,chi,floyd,smith}
                     [--coeff z|q|f2|f3|...] [--i I] [--json]
                     (--coeff with homology only, --i with smith only)

Exit codes: 0 = CANDIDATE / CONFIRMED / all catalog rows match / verified;
1 = FAILS / REFUTED / catalog mismatch / inequality violated;
2 = INCONCLUSIVE; 3 = analysis error (non-finite germ, non-isolated data);
64 = usage, parse or validation error (a missing or malformed command-line
argument included, and an input path that cannot be read, such as a
directory); 70 = internal error (an exception outside these families, e.g. a
non-integral alternating Milnor number; its traceback follows the message on
stderr); 141 = stdout closed by its reader (nothing further is printed).
--max-k caps the multiplicity sweep (default: run until the first empty
multiple point space); a cap below 2 is a usage error (64).  A capped
analyze prints mu_I and the image Betti numbers as unknown.  A --param
value is read like a germ file's params, as -?N or -?N/D: float syntax
(0.5, 1e-3) and integers of more digits than Python converts are usage
errors (64).  --max-k, --i and the index of a --row label are integers
-?N; every number read is in ASCII digits.  Every answer depends on the
input alone.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback
from fractions import Fraction

from .analyzer import (CANDIDATE, CONFIRMED, NotAFiniteError, REFUTED,
                       WitnessPreconditionError, analyze, witness_check)
from .catalog import (CatalogError, default_nonsimple_entries,
                      default_simple_entries, nonsimple_entry, simple_entry)
from .germfile import GermFileError, load_germ_file, parse_rational
from .germs import GermError
from .homology import alternating_homology, chi_alt_fixed_point_formula, homology
from .milnor import NonIcisError, NonIsolatedError
from .parse import ParseError
from .poly import PolyError
from .simplicial import ActionError, load_json, validate_or_subdivide
from .smith import smith_special_ranks, verify_equivariant_smith, verify_floyd

EX_ERROR = 3
EX_USAGE = 64
EX_INTERNAL = 70  # sysexits EX_SOFTWARE
EX_PIPE = 141     # 128 + SIGPIPE, as a shell reports a pipe closed by its reader


class UsageError(Exception):
    """A command-line argument that cannot be read."""


def _fractions(pairs: list[str]) -> dict[str, Fraction]:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise UsageError(f"--param needs name=value, got {item!r}")
        name, val = item.split("=", 1)
        name = name.strip()
        if name in out:
            raise UsageError(f"--param {name} given more than once")
        try:
            out[name] = parse_rational(val.strip())
        except ValueError:
            raise UsageError(f"--param {name}: not a rational number: {val!r}") from None
    return out


def integer(text: str) -> int:
    """An integer argument in ASCII digits, -?N: --max-k, --i and a --row index."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _row_entry(label: str):
    """Catalog entry of a --row label: I..VIII, P4^1, P3^k, Sj,k or a family and index."""
    if label in {"I", "II", "III", "IV", "V", "VI", "VII", "VIII"}:
        return nonsimple_entry(label)
    if label == "P4^1":
        return simple_entry("P41")
    try:
        if label.startswith("P3^"):
            fam, indices = "P3", {"k": integer(label[3:])}
        elif label.startswith("S"):
            j, k = (integer(s) for s in label[1:].split(","))
            fam, indices = "S", {"j": j, "k": k}
        else:
            fam = "".join(ch for ch in label if not ch.isdigit())
            nums = [integer(s) for s in label.replace(fam, "").split(",") if s]
            indices = {"k": nums[0] if nums else None}
    except ValueError:
        raise UsageError(f"--row: cannot read label {label!r}") from None
    return simple_entry(fam, **indices)


# -- report serialization -------------------------------------------------


def grp_report_dict(rep) -> dict:
    return {
        "name": rep.name,
        "n": rep.n,
        "p": rep.p,
        "verdict": rep.verdict,
        "rows": [
            {
                "k": r.k,
                "d_k": r.d_k,
                "empty": r.empty,
                "mu": r.mu,
                "mu_alt": r.mu_alt,
                "classes": [
                    {
                        "partition": list(c.partition),
                        "sigma_sharp": c.sigma_sharp,
                        "d_k_sigma": c.d_sigma,
                        "status": c.status,
                        "mu": c.mu,
                        "beta0": c.beta0,
                        "count": c.count,
                    }
                    for c in r.classes
                ],
            }
            for r in rep.rows
        ],
        "rule_violations": [
            {"rule": v.rule, "k": v.k,
             "partition": list(v.partition) if v.partition else None,
             "observed": str(v.observed)}
            for v in rep.violations
        ],
        "image_betti": (None if rep.image_betti is None else
                        {str(d): r for d, r in sorted(rep.image_betti.items())}),
        "mu_I": rep.mu_I,
        "zero_dim_stable_counts": [
            {"k": k, "partition": list(part), "count": c}
            for k, part, c in rep.zero_dim_counts
        ],
    }


def _fmt_mu(value) -> str:
    return "-" if value is None else str(value)


def render_grp_report(rep) -> str:
    lines = [f"germ {rep.name}: (C^{rep.n},0) -> (C^{rep.p},0)   verdict: {rep.verdict}"]
    lines.append(f"{'k':>3} {'d_k':>4} {'mu(D^k)':>8} {'muAlt':>6}   classes (partition: status)")
    for r in rep.rows:
        if r.empty:
            lines.append(f"{r.k:>3} {r.d_k:>4} {'-':>8} {'-':>6}   empty")
            continue
        cls = []
        for c in r.classes:
            tag = {"mu": f"mu={c.mu}", "beta0": f"b0={c.beta0}", "empty": "empty"}[c.status]
            if c.count is not None:
                tag += f", len={c.count}"
            cls.append(f"{''.join(map(str, c.partition))}: d={c.d_sigma}, {tag}")
        lines.append(f"{r.k:>3} {r.d_k:>4} {_fmt_mu(r.mu):>8} {_fmt_mu(r.mu_alt):>6}   " + "; ".join(cls))
    if rep.violations:
        lines.append("rule violations:")
        for v in rep.violations:
            where = f"k={v.k}" + (f", {v.partition}" if v.partition else "")
            lines.append(f"  {v.rule} at {where}: {v.observed}")
    else:
        lines.append("rule violations: none")
    # the sums are None only when max_k stopped the sweep at the last row
    unknown = f"unknown, max_k={rep.rows[-1].k} stops the sweep before the first empty D^k"
    image = (unknown if rep.image_betti is None else
             ", ".join(f"b{d}={r}" for d, r in sorted(rep.image_betti.items())) or "trivial")
    lines.append(f"image reduced Betti: {image}")
    if rep.p == rep.n + 1:
        lines.append(f"mu_I: {unknown if rep.mu_I is None else rep.mu_I}")
    if rep.zero_dim_counts:
        zd = ", ".join(f"k={k} {part}: {c}" for k, part, c in rep.zero_dim_counts)
        lines.append(f"zero-dimensional stable counts: {zd}")
    return "\n".join(lines)


def witness_report_dict(rep, params: dict[str, Fraction]) -> dict:
    return {
        "name": rep.name,
        "params": {name: str(v) for name, v in params.items()},
        "verdict": rep.verdict,
        "rows": [
            {
                "k": r.k,
                "d_k": r.d_k,
                "germ_empty": r.germ_empty,
                "abeta_complex": r.abeta_complex,
                "abeta_real": r.abeta_real,
                "abeta_match": r.abeta_match,
                "parity_ok": r.parity_ok,
                "orbit_ok": r.orbit_ok,
                "classes": [
                    {
                        "partition": list(c.partition),
                        "d_k_sigma": c.d_sigma,
                        "complex_ok": c.complex_ok,
                        "complex_note": c.complex_note,
                        "real_kind": c.real.kind,
                        "real_dim": c.real.dim,
                        "real_count": c.real.count,
                        "signature": list(c.real.signature) if c.real.signature else None,
                        "chi_complex": c.chi_complex,
                        "chi_real": c.chi_real,
                        "chi_match": c.chi_match,
                    }
                    for c in r.classes
                ],
            }
            for r in rep.rows
        ],
        "notes": rep.notes,
    }


def render_witness_report(rep, params: dict[str, Fraction]) -> str:
    at = ", ".join(f"{name}={v}" for name, v in params.items())
    lines = [f"witness {rep.name}{' at ' + at if at else ''}: verdict {rep.verdict}"]
    for r in rep.rows:
        head = f"k={r.k} d_k={r.d_k}"
        if r.germ_empty:
            ok = r.classes[0].complex_ok
            lines.append(f"  {head}: germ empty; perturbed space empty: {'yes' if ok else 'NO'}")
            continue
        lines.append(f"  {head}: Abeta complex={r.abeta_complex} real={r.abeta_real} "
                     f"match={r.abeta_match} parity={r.parity_ok} single-orbit={r.orbit_ok}")
        for c in r.classes:
            real = c.real.kind
            if c.real.kind == "SPHERE":
                real = f"S^{c.real.dim}"
            elif c.real.kind == "POINTS":
                real = f"{c.real.count} points"
            elif c.real.kind == "CELL":
                real = f"cell R^{c.real.dim}"
            lines.append(f"    sigma={''.join(map(str, c.partition))} d={c.d_sigma}: "
                         f"complex {c.complex_note} ok={c.complex_ok}; real {real}; "
                         f"chi {c.chi_complex} vs {c.chi_real} match={c.chi_match}")
    for note in rep.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


# -- subcommands -----------------------------------------------------------


def cmd_analyze(args) -> int:
    gf = load_germ_file(args.file)
    germ = gf.base_germ(_fractions(args.param))
    rep = analyze(germ, max_k=args.max_k)
    if args.rules_only:
        for v in rep.violations:
            where = f"k={v.k}" + (f", {v.partition}" if v.partition else "")
            print(f"{v.rule} at {where}: {v.observed}")
        print(rep.verdict)
    elif args.json:
        print(json.dumps(grp_report_dict(rep), indent=2))
    else:
        print(render_grp_report(rep))
    return 0 if rep.verdict == CANDIDATE else 1


def cmd_table(args) -> int:
    entries = []
    if args.which in ("simple", "all"):
        entries += default_simple_entries()
    if args.which in ("nonsimple", "all"):
        entries += default_nonsimple_entries()
    if args.row:
        entries = [_row_entry(label) for label in dict.fromkeys(r.upper() for r in args.row)]
    reports = [analyze(e.germ, max_k=args.max_k) for e in entries]
    mismatches = 0
    out_rows = []
    candidates = []
    for e, rep in zip(entries, reports):
        got2, got3 = rep.mu_of(2), rep.mu_of(3)
        ok = got2 == e.mu_d2 and got3 == e.mu_d3
        mu_I_ok = None
        if e.mu_I is not None and rep.mu_I is not None:
            mu_I_ok = Fraction(rep.mu_I) == e.mu_I
            ok = ok and mu_I_ok
        if not ok:
            mismatches += 1
        if rep.verdict == CANDIDATE:
            candidates.append(e.label)
        out_rows.append((e, rep, got2, got3, mu_I_ok, ok))
    if args.json:
        print(json.dumps([
            {
                "label": e.label,
                "mu_d2": {"computed": got2, "expected": e.mu_d2},
                "mu_d3": {"computed": got3, "expected": e.mu_d3},
                "mu_I": {"computed": rep.mu_I,
                         "expected": str(e.mu_I) if e.mu_I is not None else None,
                         "match": mu_I_ok},
                "verdict": rep.verdict,
                "match": ok,
            }
            for e, rep, got2, got3, mu_I_ok, ok in out_rows
        ], indent=2))
    else:
        print(f"{'germ':10} {'mu(D2)':>7} {'exp':>4} {'mu(D3)':>7} {'exp':>4} "
              f"{'mu_I':>5} {'exp':>5} {'verdict':>9}  match")
        for e, rep, got2, got3, mu_I_ok, ok in out_rows:
            print(f"{e.label:10} {_fmt_mu(got2):>7} {_fmt_mu(e.mu_d2):>4} "
                  f"{_fmt_mu(got3):>7} {_fmt_mu(e.mu_d3):>4} "
                  f"{_fmt_mu(rep.mu_I):>5} {_fmt_mu(e.mu_I):>5} {rep.verdict:>9}  "
                  f"{'ok' if ok else 'MISMATCH'}")
        print(f"good-real-perturbation candidates: {', '.join(candidates) or 'none'}")
    return 1 if mismatches else 0


def cmd_witness(args) -> int:
    gf = load_germ_file(args.germ)
    germ = gf.base_germ()
    if args.perturbation:
        pf = load_germ_file(args.perturbation)
        pert = pf.germ if pf.perturbation is None else pf.perturbation
        defaults = pf.params
    else:
        pert = gf.symbolic_germ(perturbed=True)
        defaults = gf.params
    values = dict(defaults)
    values.update(_fractions(args.param))
    rep = witness_check(germ, pert, values, max_k=args.max_k, name=gf.name)
    if args.json:
        print(json.dumps(witness_report_dict(rep, values), indent=2))
    else:
        print(render_witness_report(rep, values))
    return {CONFIRMED: 0, REFUTED: 1}.get(rep.verdict, 2)


def cmd_simplicial(args) -> int:
    if args.coeff is not None and args.action != "homology":
        raise UsageError(f"--coeff applies to homology only, not to {args.action}")
    if args.i is not None and args.action != "smith":
        raise UsageError(f"--i applies to smith only, not to {args.action}")
    X = validate_or_subdivide(load_json(args.file))
    rc = 0
    if args.action == "homology":
        coeff = args.coeff.upper() if args.coeff else "Z"
        H = homology(X, coeff)
        payload = {"coefficients": coeff, "betti": H.betti}
        if H.torsion is not None:
            payload["torsion"] = H.torsion
        out = [f"H_{q}: rank {b}" + (f", torsion {H.torsion[q]}" if H.torsion and H.torsion[q] else "")
               for q, b in enumerate(H.betti)]
    elif args.action == "alt":
        fields = ("Q", "F2")
        ah = alternating_homology(X, fields=fields)
        payload = {"ranks": ah.ranks, "torsion": ah.torsion,
                   "field_ranks": ah.field_ranks, "chi_top": ah.chi_top,
                   "chi_alt": ah.chi_alt}
        out = [f"AH_{q}: rank {r}" + (f", torsion {t}" if t else "")
               for q, (r, t) in enumerate(zip(ah.ranks, ah.torsion))]
        out.append(f"chi_top = {ah.chi_top}, chi_alt = {ah.chi_alt}")
    elif args.action == "chi":
        val = chi_alt_fixed_point_formula(X)
        ah = alternating_homology(X)
        payload = {"chi_alt_fixed_point": str(val), "chi_alt_direct": ah.chi_alt,
                   "chi_top": ah.chi_top}
        out = [f"chi_alt (fixed point formula) = {val}",
               f"chi_alt (alternating complex) = {ah.chi_alt}",
               f"chi_top = {ah.chi_top}"]
        if val != ah.chi_alt:
            rc = 1
    elif args.action == "floyd":
        ok, ledger = verify_floyd(X)
        payload = {"holds": ok, "rows": ledger.rows(), "label": ledger.label}
        out = [f"Floyd inequality ({ledger.label}): {'holds' if ok else 'VIOLATED'}"]
        out += [f"  N={N}: {a} >= {b}: {'ok' if good else 'NO'}"
                for N, a, b, good in ledger.rows()]
        rc = 0 if ok else 1
    elif args.action == "smith":
        if args.i is not None:
            rep = smith_special_ranks(X, args.i)
            payload = {
                "p": rep.p, "i": rep.i,
                "dim_alt": rep.dim_alt, "dim_rho": rep.dim_rho,
                "dim_rho_bar": rep.dim_rho_bar, "dim_fixed": rep.dim_fixed,
                "rank_additivity": rep.additivity, "ah": rep.ah,
                "ah_fixed": rep.ah_fixed, "a": rep.a, "a_bar": rep.a_bar,
            }
            out = [f"special complexes for rho = (1-g)^{rep.i}, p = {rep.p}"]
            for q in rep.degrees:
                out.append(
                    f"  q={q}: dim CAlt={rep.dim_alt[q]} = rho:{rep.dim_rho[q]} "
                    f"+ rhobar:{rep.dim_rho_bar[q]} + fixed:{rep.dim_fixed[q]} "
                    f"{'exact' if rep.additivity[q] else 'NOT EXACT'}")
            rc = 0 if rep.ses_exact else 1
        else:
            ok, ledgers = verify_equivariant_smith(X)
            payload = {"holds": ok,
                       "ledgers": [{"label": l.label, "rows": l.rows()} for l in ledgers]}
            out = [f"equivariant Smith inequality: {'holds' if ok else 'VIOLATED'}"]
            for l in ledgers:
                out += [f"  {l.label} N={N}: {a} >= {b}: {'ok' if good else 'NO'}"
                        for N, a, b, good in l.rows()]
            rc = 0 if ok else 1
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(out))
    return rc


class _ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors exit EX_USAGE: its own status 2 means INCONCLUSIVE here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="germlab",
                         description="exact invariants of corank-one map germs")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="invariant table and verdict for a germ file")
    pa.add_argument("file")
    pa.add_argument("--json", action="store_true")
    pa.add_argument("--rules-only", action="store_true")
    pa.add_argument("--max-k", type=integer, default=None)
    pa.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    pa.set_defaults(fn=cmd_analyze)

    pt = sub.add_parser("table", help="recompute the classification tables and diff")
    pt.add_argument("which", choices=("simple", "nonsimple", "all"))
    pt.add_argument("--row", action="append", default=[],
                    metavar="LABEL", help="restrict to rows, e.g. A3, Q2, S1,2, VII")
    pt.add_argument("--json", action="store_true")
    pt.add_argument("--max-k", type=integer, default=None)
    pt.set_defaults(fn=cmd_table)

    pw = sub.add_parser("witness", help="verify a real perturbation witness")
    pw.add_argument("germ")
    pw.add_argument("perturbation", nargs="?", default=None)
    pw.add_argument("--json", action="store_true")
    pw.add_argument("--max-k", type=integer, default=None)
    pw.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    pw.set_defaults(fn=cmd_witness)

    ps = sub.add_parser("simplicial", help="equivariant homology of a JSON complex")
    ps.add_argument("file")
    ps.add_argument("action", choices=("homology", "alt", "chi", "floyd", "smith"))
    ps.add_argument("--coeff", default=None, help="z, q or f<p> (homology)")
    ps.add_argument("--i", type=integer, default=None, help="special complex index (smith)")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(fn=cmd_simplicial)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return rc
    except BrokenPipeError:
        # The reader is gone: what is still buffered goes to devnull, so the
        # interpreter's own flush at exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EX_PIPE
    except (UsageError, ParseError, GermFileError, PolyError, GermError,
            CatalogError, ActionError, WitnessPreconditionError, NotAFiniteError,
            NonIcisError, NonIsolatedError, OSError) as exc:
        if isinstance(exc, (NotAFiniteError, NonIcisError, NonIsolatedError)):
            print(f"germlab: analysis error: {exc}", file=sys.stderr)
            return EX_ERROR
        print(f"germlab: error: {exc}", file=sys.stderr)
        return EX_USAGE
    except Exception as exc:
        print(f"germlab: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EX_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
