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
`params` are followed by whitespace, and every variable and parameter name
is an identifier of that grammar.  Each clause and each parameter name
appears at most once.  Germ files are read, never written, like complexes:
a `GermFile` keeps the parsed germs, each expression parsed once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .germs import GermCorank1
from .parse import IDENTIFIER, parse_polynomial
from .poly import PolyRing


class GermFileError(ValueError):
    pass


@dataclass
class GermFile:
    """The germ and optional perturbation, over the declared vars and params."""

    name: str
    params: dict[str, Fraction]
    germ: GermCorank1
    perturbation: GermCorank1 | None = None

    def symbolic_germ(self, perturbed: bool = False) -> GermCorank1:
        if not perturbed:
            return self.germ
        if self.perturbation is None:
            raise GermFileError(f"germ {self.name!r} declares no perturbation")
        return self.perturbation

    def base_germ(self, overrides: dict[str, Fraction] | None = None) -> GermCorank1:
        values = dict(self.params)
        if overrides:
            unknown = set(overrides) - set(values)
            if unknown:
                raise GermFileError(f"unknown parameters {sorted(unknown)}")
            values.update(overrides)
        return self.germ.at_params(values)


_HEADER = re.compile(r"^\s*germ\s+([A-Za-z_][\w.^-]*)\s*\{(.*)\}\s*$", re.S)
_NP = re.compile(r"^n\s*=\s*([0-9]+)\s+p\s*=\s*([0-9]+)$")
_RATIONAL = r"-?[0-9]+(?:/[0-9]+)?"
_RAT = re.compile(rf"^({IDENTIFIER})\s*=\s*({_RATIONAL})$")
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
    varnames = tuple(found["vars"].split())
    for v in varnames:
        if not re.fullmatch(IDENTIFIER, v):
            raise GermFileError(f"bad variable name {v!r}")
    ring = PolyRing(varnames, tuple(params))
    # building each germ is its validation: grammar, dimensions, vanishing
    germ, perturbation = (
        GermCorank1(n, p, ring, tuple(parse_polynomial(e.strip(), ring)
                                      for e in found[k].split(",") if e.strip()), name)
        if k in found else None
        for k in ("components:", "perturbation:"))
    return GermFile(name, params, germ, perturbation)


def load_germ_file(path: str) -> GermFile:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GermFileError(f"{path}: not a text file: {exc}") from None
    return parse_germ_file(text)

