"""Polynomial expression grammar shared by the CLI and germ files.

expr   := term (('+' | '-') term)*
term   := factor ('*' factor)*
factor := '-'* atom ('^' nat)?
atom   := rational | identifier | '(' expr ')'

Rationals are integer literals (ASCII digits) optionally followed by '/'
and an integer.  Exponents are nonnegative integer literals.  Identifiers
must be declared symbols of the target ring.  Parentheses nest at most
MAX_DEPTH deep, whatever the caller's stack.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Polynomial, PolyRing


class ParseError(ValueError):
    def __init__(self, message: str, pos: int, text: str):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.pos = pos
        self.text = text


MAX_DEPTH = 100

IDENTIFIER = r"[A-Za-z_][A-Za-z_0-9]*"  # the only names an expression can spell

_TOKEN = re.compile(rf"\s*(?:(?P<int>[0-9]+)|(?P<name>{IDENTIFIER})|(?P<op>[-+*^()/]))")


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError("unexpected character", pos, text)
            break
        if m.group("int") is not None:
            out.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("name") is not None:
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _Parser:
    def __init__(self, text: str, ring: PolyRing):
        self.text = text
        self.ring = ring
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0  # open parentheses around the current position

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg):
        raise ParseError(msg, self.peek()[2], self.text)

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.peek()[0] != "end":
            self.fail("trailing input")
        return p

    def expr(self) -> Polynomial:
        kind, val, _ = self.peek()
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Polynomial:
        sign = 1
        while self.peek()[0] == "op" and self.peek()[1] == "-":
            self.take()
            sign = -sign
        p = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, n, _ = self.peek()
            if kind != "int":
                self.fail("exponent must be a nonnegative integer")
            self.take()
            p = p ** n
        return p * sign

    def atom(self) -> Polynomial:
        kind, val, pos = self.take()
        if kind == "int":
            num = val
            k, v, _ = self.peek()
            if k == "op" and v == "/":
                self.take()
                k, d, _ = self.peek()
                if k != "int" or d == 0:
                    self.fail("denominator must be a nonzero integer")
                self.take()
                return self.ring.const(Fraction(num, d))
            return self.ring.const(num)
        if kind == "name":
            if val not in self.ring.syms:
                raise ParseError(f"unknown identifier {val!r}", pos, self.text)
            return self.ring.sym(val)
        if kind == "op" and val == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_DEPTH}", pos, self.text)
            self.depth += 1
            p = self.expr()
            self.depth -= 1
            k, v, _ = self.peek()
            if k != "op" or v != ")":
                self.fail("expected ')'")
            self.take()
            return p
        raise ParseError("expected a number, identifier or '('", pos, self.text)


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    return _Parser(text, ring).parse()


def _fmt_coeff(c: Fraction) -> str:
    return str(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def to_string(p: Polynomial) -> str:
    """Canonical rendering; parse(to_string(p)) == p."""
    if p.is_zero():
        return "0"
    syms = p.ring.syms

    def key(item):
        e, _ = item
        return (sum(e), e)

    parts = []
    for e, c in sorted(p.coefficients().items(), key=key, reverse=True):
        factors = []
        for name, k in zip(syms, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        mag = abs(c)
        if not factors:
            body = _fmt_coeff(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_fmt_coeff(mag)] + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    first = parts[0]
    out = ("-" + first[2:]) if first.startswith("- ") else first[2:]
    for part in parts[1:]:
        out += " " + part
    return out
