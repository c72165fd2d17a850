"""Decomposition of modules into indecomposable summands.

Strategy: compute End(M) and its radical via the trace bilinear form (valid in
characteristic 0); M is indecomposable when End/rad is one dimensional.
Otherwise search End(M) for an f and a rational root r of its minimal
polynomial with f - r neither invertible nor nilpotent.  By Fitting's lemma M
is then im (f - r)^N + ker (f - r)^N for N >= dim M(x), and the summands are
split in turn.  Over a prime field the trace form is not trusted, only r = 0
is tried and the search alone decides.  When no candidate splits, as when
End/rad is a field larger than Q, SplitFailure is the honest out.
"""

from __future__ import annotations

import math
import random
from collections import Counter
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


def _identity_endo(M: Representation) -> Morphism:
    return Morphism(M, M, [Mat.identity(M.field, d) for d in M.dims])


def end_radical_basis(M: Representation, basis: list[Morphism]) -> list[tuple]:
    """Coordinates of a basis of rad End(M) in the given basis of End(M).

    In characteristic 0 the radical is the null space of the trace form
    (f, g) -> tr(f g), so this is the null space of its Gram matrix.  As
    tr(f g) = sum over x, a, b of f_x[a][b] g_x[b][a], the Gram matrix is the
    flattened blocks times the flattened transposed blocks.
    """
    field = M.field
    if not field.is_rationals:
        raise SplitFailure("trace-form radical needs characteristic 0")
    flats = [f.flat() for f in basis]
    transposed = [tuple(v for b in f.blocks for col in zip(*b.rows) for v in col) for f in basis]
    n, length = len(flats), len(flats[0])
    return Mat(field, flats, n, length).mul(Mat.from_columns(field, transposed, length)).nullspace()


def is_indecomposable(M: Representation, rng: random.Random | None = None) -> bool:
    """M is nonzero and split_once finds it indecomposable (SplitFailure when
    its search ends without a verdict)."""
    return not M.is_zero() and split_once(M, rng or random.Random(0)) is None


def _min_poly_coeffs(f: Morphism):
    """Minimal polynomial of f, low degree first and monic: the first linear
    dependency among the flattened powers 1, f, f^2, ... of f."""
    field = f.source.field
    cur = _identity_endo(f.source)
    powers = [cur.flat()]
    while True:
        cur = f.compose(cur)
        powers.append(cur.flat())
        null = Mat.from_columns(field, powers, len(powers[0])).nullspace()
        if null:
            dep = null[0]  # one dimensional, as the lower powers are independent
            inv = field.inv(dep[-1])
            return [field.mul(inv, c) for c in dep]


def _rational_roots(p):
    """The distinct rational roots of the monic p (Fraction coefficients,
    lowest degree first): 0 when it is a root, then the others by absolute
    value, positive before negative.

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


def _fitting_split(f: Morphism):
    """The pair (im f^N, ker f^N) for N >= dim M(x) at every x, or None
    when f is invertible or nilpotent.

    By Fitting's lemma, applied at each x, M = im f^N + ker f^N, and both
    summands are nonzero exactly when f is neither invertible nor nilpotent.
    """
    M = f.source
    g = f
    for _ in range(max(M.dims).bit_length()):
        g = g.compose(g)
    ranks = tuple(b.rank() for b in g.blocks)
    if ranks == M.dims or not any(ranks):
        return None
    return g.image()[0], g.kernel()[0]


def split_once(M: Representation, rng: random.Random):
    """One nontrivial direct decomposition, or None when indecomposable.

    Candidates f are the basis of End(M), then 40 random combinations of it;
    each is split at f - r for every rational root r of its minimal
    polynomial (over a prime field at r = 0 only), by _fitting_split.
    """
    basis = end_basis(M)
    if len(basis) <= 1:
        return None
    field = M.field
    if field.is_rationals and len(basis) - len(end_radical_basis(M, basis)) == 1:
        return None

    def candidates():
        yield from basis
        for _ in range(40):
            yield linear_combination(basis, [field.of_int(rng.randint(-4, 4)) for _ in basis])

    for f in candidates():
        if f.is_zero():
            continue
        roots = [0]
        if field.is_rationals:
            roots = _rational_roots([Fraction(c) for c in _min_poly_coeffs(f)])
        for r in roots:
            parts = _fitting_split(f if r == 0 else f.add(_identity_endo(M).scale(-r)))
            if parts is not None:
                return parts
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
    return _canonical_order(group_isomorphic([(piece, 1) for piece in pieces]), M.poset, M.field)


def group_isomorphic(pairs) -> list[tuple[Representation, int]]:
    """Merge (module, multiplicity) pairs whose modules are isomorphic.

    Each class keeps its first module, and classes stay in first-seen order.
    """
    groups: list[tuple[Representation, int]] = []
    for rep, mult in pairs:
        for i, (first, m) in enumerate(groups):
            if rep.dims == first.dims and is_isomorphic(rep, first):
                groups[i] = (first, m + mult)
                break
        else:
            groups.append((rep, mult))
    return groups


def _canonical_order(groups: list[tuple[Representation, int]], P, field) -> list[tuple[Representation, int]]:
    """(module, multiplicity) groups by dimension vector along the linear
    extension, then by the hom fingerprint (hom_dim(M, P(x)), hom_dim(S(x), M))
    along it.

    The fingerprint only orders groups whose dimension vectors tie, so only
    those get one; a stable sort on (dimension vector, fingerprint or ())
    never compares a fingerprint with () and gives the order of the full key.
    """
    order = P.linear_extension()
    dimvecs = [tuple(g[0].dims[x] for x in order) for g in groups]
    tied = {dv for dv, c in Counter(dimvecs).items() if c > 1}
    projs = [projective(P, x, field) for x in order] if tied else []
    simples = [simple(P, x, field) for x in order] if tied else []

    def finger(rep):
        return tuple((hom_dim(rep, p), hom_dim(s, rep)) for p, s in zip(projs, simples))

    keys = [(dv, finger(g[0]) if dv in tied else ()) for g, dv in zip(groups, dimvecs)]
    return [groups[i] for i in sorted(range(len(groups)), key=keys.__getitem__)]
