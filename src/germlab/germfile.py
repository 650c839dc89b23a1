"""Line-oriented germ definition files.

    germ Q2 {
      n=3 p=4;
      vars x y z;
      params s=0;
      components: x*z + y*z^2, z^3 + y^2*z;
      perturbation: x*z + y*z^2, z^3 + y^2*z - s*z;
    }

Clauses end with ';', '#' starts a comment, expressions follow the shared
polynomial grammar.  `components` lists only the p-n+1 nonlinear entries of
(x_1, .., x_{n-1}, g_1, .., g_{p-n+1}); `params` carries default rational
values; `perturbation` is optional and may use the parameters.  `vars` and
`params` are followed by whitespace.  Each clause and each parameter name
appears at most once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .germs import GermCorank1
from .parse import parse_polynomial, to_string
from .poly import PolyRing


class GermFileError(ValueError):
    pass


@dataclass
class GermFile:
    name: str
    n: int
    p: int
    varnames: tuple[str, ...]
    params: dict[str, Fraction]
    components: tuple[str, ...]
    perturbation: tuple[str, ...] | None = None

    def ring(self) -> PolyRing:
        return PolyRing(self.varnames, tuple(self.params))

    def symbolic_germ(self, perturbed: bool = False) -> GermCorank1:
        exprs = self.perturbation if perturbed else self.components
        if exprs is None:
            raise GermFileError(f"germ {self.name!r} declares no perturbation")
        ring = self.ring()
        comps = tuple(parse_polynomial(e, ring) for e in exprs)
        return GermCorank1(self.n, self.p, ring, comps, self.name)

    def base_germ(self, overrides: dict[str, Fraction] | None = None) -> GermCorank1:
        values = dict(self.params)
        if overrides:
            unknown = set(overrides) - set(values)
            if unknown:
                raise GermFileError(f"unknown parameters {sorted(unknown)}")
            values.update(overrides)
        return self.symbolic_germ().at_params(values)


_HEADER = re.compile(r"^\s*germ\s+([A-Za-z_][\w.^-]*)\s*\{(.*)\}\s*$", re.S)
_NP = re.compile(r"^n\s*=\s*(\d+)\s+p\s*=\s*(\d+)$")
_RATIONAL = r"-?\d+(?:/\d+)?"
_RAT = re.compile(rf"^([A-Za-z_]\w*)\s*=\s*({_RATIONAL})$")
_KEYWORD = re.compile(r"(?:vars|params)(?=\s)|components:|perturbation:")


def parse_rational(text: str) -> Fraction:
    """A rational from outside the program, in the germ-file grammar -?N or -?N/D.

    Anything else raises ValueError: float syntax, a zero denominator, or an
    integer longer than Python converts from a string.
    """
    if not re.fullmatch(_RATIONAL, text):
        raise ValueError(f"not a rational number: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def parse_germ_file(text: str) -> GermFile:
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    m = _HEADER.match(body)
    if not m:
        raise GermFileError("expected: germ <name> { ... }")
    name, inner = m.group(1), m.group(2)
    clauses = [c.strip() for c in inner.split(";") if c.strip()]
    found: dict[str, str] = {}  # clause kind -> the text after its keyword
    for clause in clauses:
        keyword = _KEYWORD.match(clause)
        kind = "n= p=" if _NP.match(clause) else keyword and keyword.group()
        if not kind:
            raise GermFileError(f"unrecognized clause {clause!r}")
        if kind in found:
            raise GermFileError(f"clause {kind!r} given more than once")
        found[kind] = clause if kind == "n= p=" else clause[len(kind):]
    if not {"n= p=", "vars", "components:"} <= found.keys():
        raise GermFileError("germ file needs 'n=.. p=..', 'vars' and 'components'")
    n, p = map(int, _NP.match(found["n= p="]).groups())
    varnames = tuple(found["vars"].split())
    params: dict[str, Fraction] = {}
    for item in found.get("params", "").split():
        g = _RAT.match(item)
        if not g:
            raise GermFileError(f"bad parameter declaration {item!r}")
        if g.group(1) in params:
            raise GermFileError(f"parameter {g.group(1)!r} given more than once")
        try:
            params[g.group(1)] = parse_rational(g.group(2))
        except ValueError as exc:
            raise GermFileError(f"parameter {g.group(1)!r}: {exc}") from None
    components, perturbation = (
        tuple(e.strip() for e in found[k].split(",") if e.strip()) if k in found else None
        for k in ("components:", "perturbation:"))
    gf = GermFile(name, n, p, varnames, params, components, perturbation)
    gf.symbolic_germ()  # validate now: dimensions, vanishing, grammar
    if perturbation is not None:
        gf.symbolic_germ(perturbed=True)
    return gf


def load_germ_file(path: str) -> GermFile:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GermFileError(f"{path}: not a text file: {exc}") from None
    return parse_germ_file(text)


def format_germ_file(gf: GermFile) -> str:
    ring = gf.ring()
    out = [f"germ {gf.name} {{", f"  n={gf.n} p={gf.p};", "  vars " + " ".join(gf.varnames) + ";"]
    if gf.params:
        out.append("  params " + " ".join(f"{k}={v}" for k, v in gf.params.items()) + ";")
    comps = ", ".join(to_string(parse_polynomial(e, ring)) for e in gf.components)
    out.append(f"  components: {comps};")
    if gf.perturbation is not None:
        pert = ", ".join(to_string(parse_polynomial(e, ring)) for e in gf.perturbation)
        out.append(f"  perturbation: {pert};")
    out.append("}")
    return "\n".join(out) + "\n"
