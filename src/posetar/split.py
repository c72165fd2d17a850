"""Decomposition of modules into indecomposable summands.

Strategy: compute End(M) and its radical via the trace bilinear form (valid in
characteristic 0); M is indecomposable when End/rad is one dimensional.
Otherwise each f of the basis of End(M) is tried at the first root r of its
minimal polynomial in the field: when f - r is neither invertible nor
nilpotent, Fitting's lemma gives M = im (f - r)^N + ker (f - r)^N for
N >= dim M(x), and the summands are split in turn.  Over a prime field the
trace form is not trusted and the search alone decides.  Nothing is random.
When no basis element splits, SplitFailure is the honest out (split_once).
Endomorphisms are composed, ranked and split on the rows of their blocks.

Two answers are known without that work.

Thin modules, over every field.  If every dimension of M is at most 1 and
the covers with a nonzero scalar connect its support, then End M = k: an
endomorphism f is a scalar f_x at each x of the support, and a cover x -> y
with scalar m != 0 gives m f_x = f_y m, so f_x = f_y along it.  split_once
returns None for such an M with no End basis, and ar_sequence_end computes
no End basis of such a tau M.

The End/rad count, in characteristic 0 only.  split_indecomposables keeps
t = dim End(M)/rad End(M), which the first split_once(M) computes, and stops
splitting once the summands found and those still to split number t.  For
a decomposition M = X_1 + ... + X_n with idempotents e_i, e_i End(M) e_i is
End X_i and rad(e_i End(M) e_i) = e_i rad End(M) e_i, so the dimensions of
End X_i / rad End X_i add up to at most t; n = t forces each of them to be
1, so each X_i is local, hence indecomposable.  The summands still to split
are taken in the order the loop would pop them, so the pieces, their bases
and their order are those of splitting to the end.  Over GF(p) no radical
is computed and every summand is split until split_once returns None.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .errors import SplitFailure
from .linalg import Mat, _canon, _cols, _dots, _null_from_echelon, _null_rows, _rref_rows, _unit_rows
from .rep import (
    Morphism,
    Representation,
    _image_rep,
    _kernel_rep,
    _thin_forest,
    hom,
    hom_dim,
    is_isomorphic,
    projective,
    simple,
)


def end_basis(M: Representation) -> list[Morphism]:
    return hom(M, M)


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


def is_indecomposable(M: Representation) -> bool:
    """M is nonzero and split_once finds it indecomposable (SplitFailure when
    its search ends without a verdict)."""
    return not M.is_zero() and split_once(M) is None


def _thin_indecomposable(M: Representation) -> bool:
    """Whether M is thin (every dimension at most 1) and the covers with a
    nonzero scalar connect its nonempty support.

    Then End M = k over every field: an endomorphism f is a scalar f_x at
    each x of the support, and a cover x -> y with scalar m != 0 gives
    m f_x = f_y m, so f_x = f_y along every such cover."""
    forest = _thin_forest(M)
    return forest is not None and forest[2] == 1


def _compose(field, f, g) -> list[tuple]:
    """The blocks, as rows, of f after g, for endomorphisms given by the rows
    of their blocks."""
    out = []
    for a, b in zip(f, g):
        cols = _cols(b, len(b))
        out.append(tuple([_dots(row, cols, field) for row in a]))
    return out


def _min_poly_coeffs(field, f, dims):
    """Minimal polynomial of the endomorphism with block rows f, low degree
    first and monic: the first linear dependency among the flattened powers
    1, f, f^2, ... of f."""
    cur = [_unit_rows(d) for d in dims]
    powers = [tuple([v for b in cur for row in b for v in row])]
    while True:
        cur = _compose(field, f, cur)
        powers.append(tuple([v for b in cur for row in b for v in row]))
        null = _null_rows(field.p, tuple(zip(*powers)), len(powers))
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


def _fitting_split(M: Representation, f):
    """The pair (im f^N, ker f^N) for N >= dim M(x) at every x, or None
    when the endomorphism with block rows f is invertible or nilpotent.

    By Fitting's lemma, applied at each x, M = im f^N + ker f^N, and both
    summands are nonzero exactly when f is neither invertible nor nilpotent.
    One reduced echelon form of g = f^N at each x gives both: the image
    through rep._image_rep, and the kernel through rep._kernel_rep, with the
    nullspace read off that echelon form.
    """
    field, p, dims = M.field, M.field.p, M.dims
    g = f
    for _ in range(max(dims).bit_length()):
        g = _compose(field, g, g)
    echelons = [_rref_rows(p, b, d) for b, d in zip(g, dims)]
    ranks = tuple(len(piv) for _, piv in echelons)
    if ranks == dims or not any(ranks):
        return None
    null = [_null_from_echelon(p, R, piv, d) for (R, piv), d in zip(echelons, dims)]
    kernel = _kernel_rep(M.poset, field, null, lambda x, y, v: M.maps[(x, y)].apply(v))
    return _image_rep(M, echelons), kernel


def _poly_mod(a: list, m: list, p: int) -> list:
    """The remainder of a by the nonzero m over GF(p), polynomials as
    coefficient lists, lowest degree first; the remainder has no trailing zeros."""
    a, n, inv = [v % p for v in a], len(m) - 1, pow(m[-1], p - 2, p)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] * inv % p
        if c:
            for j, v in enumerate(m):
                a[i - n + j] = (a[i - n + j] - c * v) % p
    a = a[:n]
    while a and not a[-1]:
        a.pop()
    return a


def _poly_mulmod(a: list, b: list, m: list, p: int) -> list:
    """a * b mod m over GF(p)."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] += u * v
    return _poly_mod(prod, m, p)


def _has_root(m: list, p: int) -> bool:
    """Whether the monic m (lowest degree first) has a root in GF(p).

    The roots of x^p - x are the elements of GF(p), so m has one exactly when
    gcd(m, x^p - x) has positive degree; x^p is taken mod m by repeated
    squaring.
    """
    xp, sq, e = [1], [0, 1], p
    while e:
        if e & 1:
            xp = _poly_mulmod(xp, sq, m, p)
        sq = _poly_mulmod(sq, sq, m, p)
        e >>= 1
    g, h = m, _poly_mod([c - (i == 1) for i, c in enumerate(xp + [0, 0])], m, p)
    while h:
        g, h = h, _poly_mod(g, h, p)
    return len(g) > 1


def _first_root(field, f, dims):
    """The first root in the field of the minimal polynomial of the
    endomorphism with block rows f, or None: 0 when it is one, else one of
    least absolute value, positive first.  Over GF(p) a residue counts as its
    representative in (-p/2, p/2), the scan stops at the first root, and it
    runs only when _has_root finds that there is one."""
    coeffs = _min_poly_coeffs(field, f, dims)
    if field.is_rationals:
        return next(iter(_rational_roots([Fraction(c) for c in coeffs])), None)
    p = field.p
    if not _has_root(coeffs, p):
        return None
    tries = (r % p for u in range(p // 2 + 1) for r in (u, -u))
    return next((r for r in tries if not sum(c * pow(r, i, p) for i, c in enumerate(coeffs)) % p), None)


class Split(tuple):
    """The pair (im, ker) that split_once returns, with top = dim End(M)/rad End(M)
    for the module M it split, or None over GF(p), where no radical is computed."""

    def __new__(cls, parts, top):
        pair = super().__new__(cls, parts)
        pair.top = top
        return pair


def _minus_scalar(field, f, r) -> list[tuple]:
    """The block rows of f - r."""
    p = field.p

    def less(v):
        return (v - r) % p if p else _canon(v - r)

    return [tuple([tuple([less(v) if i == k else v for k, v in enumerate(row)]) for i, row in enumerate(b)])
            for b in f]


def split_once(M: Representation):
    """One nontrivial direct decomposition as a Split, or None when M is
    indecomposable.

    A thin M whose nonzero cover maps connect its support has End M = k
    (_thin_indecomposable), so no End basis is computed for it.  Otherwise
    each f of the End(M) basis is split at f - r for its first root r
    (_first_root), by _fitting_split.  One root is enough: at a root r,
    f - r is singular, and it is nilpotent only when r is f's one
    eigenvalue, and then f has no other root to try.

    This splits every M with End/rad = k^m, m >= 2: some f has a non-scalar
    image (a_1, ..., a_m) there, say a_i != a_j, so f has the eigenvalue a_i
    in k, and f - r is not nilpotent for any r in k.  SplitFailure remains
    for a local End of dimension >= 2 over GF(p), where no radical is
    computed, and, when no basis element splits, for a matrix-ring factor of
    End/rad (a summand of multiplicity >= 2) or a factor larger than k, as
    End(M_J) = Q(i) for the four-subspace module of the tests.
    """
    if _thin_indecomposable(M):
        return None
    basis = end_basis(M)
    if len(basis) <= 1:
        return None
    field, top = M.field, None
    if field.is_rationals:
        top = len(basis) - len(end_radical_basis(M, basis))
        if top == 1:
            return None
    for f in basis:
        blocks = [b.rows for b in f.blocks]
        r = _first_root(field, blocks, M.dims)
        parts = None if r is None else _fitting_split(M, blocks if r == 0 else _minus_scalar(field, blocks, r))
        if parts is not None:
            return Split(parts, top)
    raise SplitFailure(f"could not split module with End of dimension {len(basis)}")


def split_indecomposables(M: Representation):
    """Complete decomposition as a list of (summand, multiplicity).

    The summands are split off one at a time, last split first, and over Q
    the splitting stops at the End/rad count of M (see the module
    docstring).

    Summands are returned in a canonical order: lexicographic dimension
    vector along the linear extension, then a hom fingerprint.
    """
    if M.is_zero():
        return []
    pieces: list[Representation] = []
    stack = [M]
    top = None
    while stack:
        if len(pieces) + len(stack) == top:
            pieces += reversed(stack)
            break
        cur = stack.pop()
        res = split_once(cur)
        if res is None:
            pieces.append(cur)
        else:
            if cur is M:
                top = res.top
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
