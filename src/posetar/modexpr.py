"""Parser for module expressions used by the CLI.

Grammar:  P(x) | I(x) | S(x) | K(a..b) | rad(E) | soc(E) | quot(E,F) | sum(E,F)
"""

from __future__ import annotations

import re

from .errors import ParseError
from .linalg import Field, QQ
from .poset import Poset
from .rep import (
    Representation,
    cone_label,
    constant_on,
    direct_sum,
    hom,
    injective,
    projective,
    radical,
    simple,
    socle,
)

_TOKEN = re.compile(r"\s*([A-Za-z_0-9]+|\(|\)|,|\.\.)")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad module expression near {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, P: Poset, field: Field, tokens: list[str]):
        self.P = P
        self.field = field
        self.toks = tokens
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of module expression")
        tok = self.toks[self.i]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}")
        self.i += 1
        return tok

    def element(self) -> int:
        return self.P.id_of(self.take())

    def expr(self) -> Representation:
        head = self.take()
        if head in ("P", "I", "S"):
            self.take("(")
            x = self.element()
            self.take(")")
            if head == "P":
                return projective(self.P, x, self.field)
            if head == "I":
                return injective(self.P, x, self.field)
            return simple(self.P, x, self.field)
        if head == "K":
            self.take("(")
            a = self.element()
            self.take("..")
            b = self.element()
            self.take(")")
            return constant_on(self.P, self.P.closed_interval(a, b), self.field)
        if head == "rad":
            self.take("(")
            M = self.expr()
            self.take(")")
            return radical(M)[0]
        if head == "soc":
            self.take("(")
            M = self.expr()
            self.take(")")
            return socle(M)[0]
        if head == "sum":
            self.take("(")
            A = self.expr()
            self.take(",")
            B = self.expr()
            self.take(")")
            return direct_sum([A, B])
        if head == "quot":
            self.take("(")
            A = self.expr()
            self.take(",")
            B = self.expr()
            self.take(")")
            return _quotient(A, B)
        raise ParseError(f"unknown module constructor {head!r}")


def _quotient(A: Representation, B: Representation) -> Representation:
    maps = hom(B, A)
    for f in maps:
        if f.is_injective():
            Q, _ = f.cokernel()
            return Q
    raise ParseError("quot(E,F) needs F to embed into E along a hom basis vector")


def parse_module(P: Poset, text: str, field: Field = QQ) -> Representation:
    parser = _Parser(P, field, _tokenize(text))
    try:
        M = parser.expr()
    except RecursionError:
        raise ParseError("module expression is nested too deeply") from None
    if parser.peek() is not None:
        raise ParseError(f"trailing tokens in module expression: {parser.toks[parser.i:]}")
    return M


def describe_module(P: Poset, M: Representation) -> str:
    """Readable rendering: named thin constants, else the dimension vector."""
    if M.is_zero():
        return "0"
    sup = M.support()
    if M.is_thin_constant():
        for kind, sym in (("proj", "P"), ("inj", "I")):
            x = cone_label(P, kind, sup)
            if x is not None:
                return f"{sym}({P.names[x]})"
        if len(sup) == 1:
            return f"S({P.names[next(iter(sup))]})"
        body = ",".join(P.names[x] for x in P.sorted_ids(sup))
        return "k{" + body + "}"
    dims = " ".join(
        f"{P.names[x]}:{M.dims[x]}" for x in P.linear_extension() if M.dims[x]
    )
    return f"[{dims}]"
