"""Decomposition of modules into indecomposable summands.

Strategy: compute End(M), find its radical via the trace bilinear form (valid
in characteristic 0), and conclude indecomposability when End/rad is one
dimensional.  Otherwise obtain a nontrivial idempotent, either from a rational
root of the minimal polynomial of a suitable endomorphism (Chinese remainder
inside k[f]) or from a Fitting decomposition of a non-invertible one, and
recurse on the two image summands.  Over a prime field the trace form is not
trusted and the search alone decides, with SplitFailure as the honest out.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import SplitFailure
from .linalg import Mat
from .rep import (
    Morphism,
    Representation,
    hom,
    hom_dim,
    is_isomorphic,
    linear_combination,
    projective,
    simple,
)


def end_basis(M: Representation) -> list[Morphism]:
    return hom(M, M)


def _express(B: Mat, f: Morphism):
    col = Mat.from_columns(f.source.field, [f.flat()], B.r)
    sol = B.solve(col)
    if sol is None:
        raise SplitFailure("endomorphism fell outside the computed basis")
    return tuple(sol.column(0))


def _identity_endo(M: Representation) -> Morphism:
    return Morphism(M, M, [Mat.identity(M.field, d) for d in M.dims])


def end_radical_basis(M: Representation, basis: list[Morphism]) -> list[tuple]:
    """Coordinates of a basis of rad End(M) in the given basis of End(M).

    In characteristic 0 the radical is the null space of the trace form
    (f, g) -> tr(f g), so this is the null space of its Gram matrix.
    """
    field = M.field
    if not field.is_rationals:
        raise SplitFailure("trace-form radical needs characteristic 0")
    n = len(basis)
    gram = [[basis[i].compose(basis[j]).trace() for j in range(n)] for i in range(n)]
    return Mat(field, gram, n, n).nullspace()


def is_indecomposable(M: Representation, rng: random.Random | None = None) -> bool:
    if M.is_zero():
        return False
    basis = end_basis(M)
    if len(basis) == 1:
        return True
    if M.field.is_rationals:
        return len(basis) - len(end_radical_basis(M, basis)) == 1
    return split_once(M, rng or random.Random(0)) is None


def _min_poly_coeffs(B: Mat, f: Morphism, basis: list[Morphism]):
    """Minimal polynomial of f inside End(M), low degree first."""
    field = f.source.field
    powers = [_express(B, _identity_endo(f.source))]
    cur = _identity_endo(f.source)
    while True:
        cur = f.compose(cur)
        vec = _express(B, cur)
        cols = Mat.from_columns(field, powers + [vec], B.c)
        null = cols.nullspace()
        if null:
            dep = null[0]
            # normalize so the top coefficient is 1
            top = dep[-1]
            inv = field.inv(top)
            return [field.mul(inv, c) for c in dep]
        powers.append(vec)


def _endo_poly(f: Morphism, coeffs) -> Morphism:
    """Evaluate a polynomial (low-first Fraction coefficients) at f."""
    M = f.source
    acc = _identity_endo(M).scale(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = f.compose(acc).add(_identity_endo(M).scale(c))
    return acc


# -- exact polynomials over Q: Fraction coefficients, lowest degree first ----


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _psub(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pdivmod(a, b):
    """Quotient and remainder of a by the nonzero b; [] is the zero polynomial."""
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b):
        c = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
        _trim(r)
    return q, r


def _inverse_mod(g, h):
    """s with s*g = 1 mod h, for coprime g and h (extended Euclid)."""
    r0, s0, r1, s1 = g, [Fraction(1)], h, []
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, s0, r1, s1 = r1, s1, r, _psub(s0, _pmul(q, s1))
    return [c / r0[0] for c in s0]


def _rational_roots(p):
    """The distinct rational roots of the monic p.

    With D the lcm of the denominators, q(u) = D^n p(u/D) is monic over Z, so
    its rational roots are integers dividing its lowest nonzero coefficient;
    they are searched up to the Fujiwara bound 2 max_k |q_(n-k)|^(1/k).
    """
    n = len(p) - 1
    den = math.lcm(*(c.denominator for c in p))
    q = [int(c * den ** (n - i)) for i, c in enumerate(p)]
    low = next(c for c in q if c)
    bound = 2 * max(2 ** -(-abs(c).bit_length() // (n - i)) for i, c in enumerate(q[:-1]))
    roots = [Fraction(0)] if q[0] == 0 else []
    for u in range(1, bound + 1):
        if low % u == 0:
            for z in (u, -u):
                acc = 0
                for c in reversed(q):
                    acc = acc * z + c
                if acc == 0:
                    roots.append(Fraction(z, den))
    return roots


def _crt_idempotent_poly(p):
    """The CRT idempotent e of Q[t]/(p) that kills the first linear factor of p.

    g = (t - n/d)^m is the first factor of p when irreducible factors are
    ordered by degree, then multiplicity, then primitive integer coefficients
    ascending: among linear factors, lowest m first, then [d, -n].  That is
    the order of the factoring library this routine replaces, so the splits
    are unchanged.  e is the polynomial of degree < deg p with e = 0 mod g and
    e = 1 mod p/g.

    Returns None when p is a power of one linear factor, and when p has no
    rational root.  A rootless p with two or more irreducible factors does
    split k[f], but finding those factors needs a factoring algorithm, so the
    caller tries the Fitting route and further candidates instead, and raises
    SplitFailure if none of them splits.
    """
    mult = {}
    for r in _rational_roots(p):
        rest, m = p, 0
        while True:
            quo, rem = _pdivmod(rest, [-r, Fraction(1)])
            if rem:
                break
            rest, m = quo, m + 1
        mult[r] = m
    if not mult:
        return None
    r = min(mult, key=lambda r: (mult[r], r.denominator, -r.numerator))
    g = [Fraction(1)]
    for _ in range(mult[r]):
        g = _pmul(g, [-r, Fraction(1)])
    if len(g) == len(p):
        return None
    h = _pdivmod(p, g)[0]
    return _pdivmod(_pmul(_inverse_mod(g, h), g), p)[1]


def _idempotent_from_roots(f: Morphism, min_poly) -> Morphism | None:
    """Nontrivial idempotent of k[f] from a rational root of its minimal polynomial."""
    coeffs = _crt_idempotent_poly(min_poly)
    if not coeffs:
        return None
    e = _endo_poly(f, coeffs)
    if e.is_zero() or e.compose(e).flat() != e.flat():
        return None
    if e.flat() == _identity_endo(f.source).flat():
        return None
    return e


def _fitting_split(f: Morphism) -> Morphism | None:
    """Stable-power idempotent-substitute: split along ker(f^N) + im(f^N)."""
    M = f.source
    n = M.total_dim()
    g = f
    for _ in range(n.bit_length() + 1):
        g = g.compose(g)
    ranks = [b.rank() for b in g.blocks]
    if all(r == d for r, d in zip(ranks, M.dims)) or all(r == 0 for r in ranks):
        return None
    return g


def split_once(M: Representation, rng: random.Random):
    """One nontrivial direct decomposition, or None when indecomposable."""
    basis = end_basis(M)
    if len(basis) <= 1:
        return None
    field = M.field
    if field.is_rationals and len(basis) - len(end_radical_basis(M, basis)) == 1:
        return None
    B = Mat.from_columns(field, [f.flat() for f in basis], len(basis[0].flat()))

    def candidates():
        yield from basis
        for _ in range(40):
            yield linear_combination(basis, [field.of_int(rng.randint(-4, 4)) for _ in basis])

    for f in candidates():
        if f.is_zero():
            continue
        if field.is_rationals:
            coeffs = _min_poly_coeffs(B, f, basis)
            if len(coeffs) >= 3:
                e = _idempotent_from_roots(f, coeffs)
                if e is not None:
                    A, _ = e.image()
                    Kc, _ = e.kernel()
                    if not A.is_zero() and not Kc.is_zero():
                        return A, Kc
        g = _fitting_split(f)
        if g is not None:
            A, _ = g.image()
            Kc, _ = g.kernel()
            if not A.is_zero() and not Kc.is_zero() and A.total_dim() + Kc.total_dim() == M.total_dim():
                return A, Kc
    raise SplitFailure(f"could not split module with End of dimension {len(basis)}")


def split_indecomposables(M: Representation, rng: random.Random | None = None):
    """Complete decomposition as a list of (summand, multiplicity).

    Summands are returned in a canonical order: lexicographic dimension
    vector along the linear extension, then a hom fingerprint.
    """
    rng = rng or random.Random(0)
    if M.is_zero():
        return []
    pieces: list[Representation] = []
    stack = [M]
    while stack:
        cur = stack.pop()
        res = split_once(cur, rng)
        if res is None:
            pieces.append(cur)
        else:
            stack.extend(res)
    # group by isomorphism
    grouped: list[list[Representation]] = []
    for piece in pieces:
        for group in grouped:
            if piece.dims == group[0].dims and is_isomorphic(piece, group[0]):
                group.append(piece)
                break
        else:
            grouped.append([piece])

    P = M.poset
    order = P.linear_extension()

    def key(group):
        rep = group[0]
        dimvec = tuple(rep.dims[x] for x in order)
        finger = tuple(
            (hom_dim(rep, proj_cache[x]), hom_dim(simple_cache[x], rep)) for x in order
        )
        return (dimvec, finger)

    proj_cache = {x: projective(P, x, M.field) for x in order}
    simple_cache = {x: simple(P, x, M.field) for x in order}
    return [(g[0], len(g)) for g in sorted(grouped, key=key)]
