"""Parser for module expressions used by the CLI.

Grammar:  P(x) | I(x) | S(x) | K(a..b) | rad(E) | soc(E) | quot(E,F) | sum(E,F)

An element name x, a or b is any run of characters without whitespace,
parentheses, commas or `..`.
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

# every character but whitespace starts a token, so findall skips only whitespace
_TOKEN = re.compile(r"\s*((?:[^\s(),.]|\.(?!\.))+|\(|\)|,|\.\.)")
_POINTS = {"P": projective, "I": injective, "S": simple}
_SUBMODULES = {"rad": radical, "soc": socle}


def _quotient(A: Representation, B: Representation) -> Representation:
    maps = hom(B, A)
    for f in maps:
        if f.is_injective():
            Q, _ = f.cokernel()
            return Q
    raise ParseError("quot(E,F) needs F to embed into E along a hom basis vector")


def parse_module(P: Poset, text: str, field: Field = QQ) -> Representation:
    toks = _TOKEN.findall(text)
    pos = 0

    def take(expected: str | None = None) -> str:
        nonlocal pos
        if pos >= len(toks):
            raise ParseError("unexpected end of module expression")
        tok = toks[pos]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def element() -> int:
        tok = take()
        if tok in ("(", ")", ",", ".."):
            raise ParseError(f"expected an element name, found {tok!r}")
        return P.id_of(tok)

    def expr() -> Representation:
        head = take()
        if head in _POINTS:
            take("(")
            x = element()
            take(")")
            return _POINTS[head](P, x, field)
        if head in _SUBMODULES:
            take("(")
            M = expr()
            take(")")
            return _SUBMODULES[head](M)[0]
        if head == "K":
            take("(")
            a = element()
            take("..")
            b = element()
            take(")")
            return constant_on(P, P.closed_interval(a, b), field)
        if head in ("sum", "quot"):
            take("(")
            A = expr()
            take(",")
            B = expr()
            take(")")
            return direct_sum([A, B]) if head == "sum" else _quotient(A, B)
        raise ParseError(f"unknown module constructor {head!r}")

    try:
        M = expr()
    except RecursionError:
        raise ParseError("module expression is nested too deeply") from None
    if pos < len(toks):
        raise ParseError(f"trailing tokens in module expression: {toks[pos:]}")
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
