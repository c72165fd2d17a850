"""Labeled complexes, minimal resolutions, Ext, the Nakayama functor, and tau.

A labeled complex records each term of a resolution as a multiset of element
ids: the term is the direct sum of the indecomposable projectives (or
injectives) at those elements.  Differentials are stored as scalar matrices
with respect to the canonical one-dimensional hom spaces between labeled
summands, which is exactly what makes the Nakayama functor a relabeling:
replace each projective label by the injective one and keep the scalars.

Rows in, objects out: the helpers take a module as its dimensions and the
rows of its cover maps, the dual D M as those rows transposed over the
opposite poset, and pass rows between them.  Only a public function builds a
Mat, Morphism or Representation, for what it returns.

A minimal projective resolution repeats one step, which covers a submodule
given by a basis at each element: the generators at y are the basis vectors
that are pivots of one echelon form of [radical | basis] at y.  The
projective cover is the step on the module itself, with the unit vectors as
its basis; each later step covers the syzygy, a nullspace of the last
block, in the labeled coordinates of the last term: the summands nonzero at
w, in label order, whose structure maps are 0/1 re-indexings.  No syzygy
module is built.  Injective resolutions are projective resolutions of D M.

Every translate is read off a minimal presentation P(L1) -> P(L0) with
scalar rows d by one of two labeled helpers, whose blocks at w are d read
at the summands nonzero at w.  A kernel out of a sum of injectives has the
nullspace of the block at w as its basis there: tau is the kernel of the
Nakayama image I(L1) -> I(L0), and coinduce is one too.  A cokernel into a
sum of projectives realizes no sum: q_y after a 0/1 structure map is q_y
read at the summands of x.  induce is one, and so is the transpose Tr M,
P(L0) -> P(L1) with d transposed over the opposite poset.  tau_inverse is
Tr D and transpose_dual_tau is D Tr.
"""

from __future__ import annotations

from .clamped import is_clamped
from .errors import NotIndecomposable, PosetarError
from .linalg import Mat, _cols, _dots, _mat, _null_rows, _rref_rows
from .poset import Poset
from .rep import (
    Morphism,
    Representation,
    _quotient_rep,
    _quotient_rows,
    _rep,
    dualize,
    is_isomorphic,
    restrict,
)
from .split import is_indecomposable


class LabeledComplex:
    """Bounded complex of labeled projectives or injectives.

    labels[i] lists the summand labels of the i-th term, nearest the module
    first (P_0 or I^0).  For kind 'proj', mats[i] is the scalar matrix of the
    map term(i+1) -> term(i); for kind 'inj' it is term(i) -> term(i+1).
    """

    __slots__ = ("poset", "field", "kind", "labels", "mats")

    def __init__(
        self,
        poset: Poset,
        field,
        kind: str,  # 'proj' | 'inj'
        labels: tuple[tuple[int, ...], ...],
        mats: tuple[Mat, ...],
    ) -> None:
        self.poset = poset
        self.field = field
        self.kind = kind
        self.labels = labels
        self.mats = mats

    def length(self) -> int:
        return len(self.labels) - 1

    def term(self, i: int) -> Representation:
        return realize_labels(self.poset, self.field, self.kind, self.labels[i])

    def describe(self) -> str:
        P = self.poset
        sym = "P" if self.kind == "proj" else "I"
        parts = []
        for lab in self.labels:
            if not lab:
                parts.append("0")
            else:
                counts: dict[int, int] = {}
                for x in lab:
                    counts[x] = counts.get(x, 0) + 1
                parts.append(" + ".join(
                    f"{sym}({P.names[x]})" + (f"^{m}" if m > 1 else "")
                    for x, m in sorted(counts.items())
                ))
        arrow = " <- " if self.kind == "proj" else " -> "
        return arrow.join(parts)


def _layout(P: Poset, kind: str, labels) -> list[list[int]]:
    """For each element w, the summands of the labeled sum nonzero at w.

    Summand j is P(labels[j]) for 'proj' and I(labels[j]) for 'inj'; each is
    one-dimensional on its support, and the basis of the sum at w lists the
    summands nonzero there in label order.  Summand j is nonzero exactly on
    the up-set (for 'proj') or down-set (for 'inj') of labels[j], so each
    label's bitmask is walked once.
    """
    cones = P.up if kind == "proj" else P.down
    lay: list[list[int]] = [[] for _ in P.elements()]
    for j, x in enumerate(labels):
        m = cones[x]
        while m:
            low = m & -m
            lay[low.bit_length() - 1].append(j)
            m ^= low
    return lay


def realize_labels(P: Poset, field, kind: str, labels) -> Representation:
    """The labeled sum as a representation."""
    return _realize_layout(P, field, _layout(P, kind, labels))


def _realize_layout(P: Poset, field, lay) -> Representation:
    """The labeled sum with layout lay, read off it: on a cover x -> y summand j
    at x goes to summand j at y, or to 0 when it vanishes there."""
    z, o = field.zero, field.one
    maps = {}
    for (x, y) in P.covers:
        rows = tuple([tuple([o if j == i else z for j in lay[x]]) for i in lay[y]])
        maps[(x, y)] = _mat(field, rows, len(lay[y]), len(lay[x]))
    return _rep(P, field, [len(js) for js in lay], maps)


def realize_scalar_map(P: Poset, field, kind: str, src_labels, dst_labels, scalar: Mat) -> Morphism:
    """Morphism between labeled sums given scalars on canonical generators.

    scalar[k][j] multiplies the canonical map from src summand j to dst
    summand k; it must vanish unless dst label <= src label.
    """
    slay, dlay = _layout(P, kind, src_labels), _layout(P, kind, dst_labels)
    blocks = _scalar_blocks(P, src_labels, dst_labels, slay, dlay, scalar.rows)
    blocks = [_mat(field, b, len(dk), len(sj)) for b, dk, sj in zip(blocks, dlay, slay)]
    return Morphism(_realize_layout(P, field, slay), _realize_layout(P, field, dlay), blocks)


def _scalar_blocks(P: Poset, src_labels, dst_labels, slay, dlay, d) -> list[tuple]:
    """The blocks at each w, as rows, of the scalar rows d between the labeled sums
    with layouts slay and dlay; every nonzero scalar must lie on a canonical map."""
    for y, row in zip(dst_labels, d):
        for x, v in zip(src_labels, row):
            if v and not P.up[y] >> x & 1:
                raise PosetarError("scalar entry on a non-existent canonical map")
    return [tuple([tuple([d[k][j] for j in sj]) for k in dk]) for dk, sj in zip(dlay, slay)]


def _cokernel_into_projectives(P: Poset, field, src, dst, d) -> Representation:
    """Cokernel of the scalar rows d from the labeled sum of P(src) to that of P(dst).

    On a cover x -> y the sum sends summand j at x to summand j at y, so the
    echelon projection q_y after it is q_y read at the summands of x.
    """
    slay, lay = _layout(P, "proj", src), _layout(P, "proj", dst)
    blocks = _scalar_blocks(P, src, dst, slay, lay, d)
    quots = [_quotient_rows(field.p, b, len(sj), len(js)) for b, sj, js in zip(blocks, slay, lay)]

    def along(x, y, q_y):
        at = [lay[y].index(j) for j in lay[x]]
        return tuple([tuple([row[k] for k in at]) for row in q_y])

    return _quotient_rep(P, field, quots, along)


def _kernel_out_of_injectives(P: Poset, field, src, dst, d) -> Representation:
    """Kernel of the scalar rows d from the labeled sum of I(src) to that of I(dst).

    Its basis at w is the nullspace of the block there, so a kernel vector's
    coordinates are its entries at the free columns.  The sum drops the
    summands that vanish along a cover x -> y, so the map there reads each
    basis vector at x at the summands of the free columns at y.
    """
    lay = _layout(P, "inj", src)
    blocks = _scalar_blocks(P, src, dst, lay, _layout(P, "inj", dst), d)
    null = [_null_rows(field.p, b, len(js)) for b, js in zip(blocks, lay)]
    free = [[lay[w][max(i for i, a in enumerate(v) if a)] for v in vs] for w, vs in enumerate(null)]
    maps = {}
    for (x, y) in P.covers:
        at = [lay[x].index(j) for j in free[y]]
        rows = tuple([tuple([v[k] for v in null[x]]) for k in at])
        maps[(x, y)] = _mat(field, rows, len(at), len(null[x]))
    return _rep(P, field, [len(vs) for vs in null], maps)


def _rows(M: Representation) -> dict:
    """The rows of M's structure map on each cover."""
    return {c: m.rows for c, m in M.maps.items()}


def _dual_rows(M: Representation) -> dict:
    """The rows of D M's structure maps, on the covers of the opposite poset."""
    return {(y, x): _cols(m.rows, m.c) for (x, y), m in M.maps.items()}


def min_projective_resolution(M: Representation, max_length: int | None = None):
    """Minimal projective resolution as a labeled complex plus augmentation.

    With max_length set, the complex is truncated after that many syzygy
    steps (enough for presentations); otherwise it runs to exactness with a
    global-dimension safety bound of |P| + 1.
    """
    C, cover = _resolution(M, max_length)
    return C, Morphism(C.term(0), M, [Mat.from_columns(M.field, c, d) for c, d in zip(cover, M.dims)])


def _resolution(M: Representation, max_length: int | None = None):
    """The complex of min_projective_resolution and the columns of its cover's blocks."""
    labels, mats, cover = _resolve(M.poset, M.field, M.dims, _rows(M), max_length)
    mats = tuple(_mat(M.field, d, len(d), len(L)) for d, L in zip(mats, labels[1:]))
    return LabeledComplex(M.poset, M.field, "proj", labels, mats), cover


def _resolve(P: Poset, field, dims, maps, max_length: int | None = None):
    """The labels of the minimal projective resolution of the module with
    dimensions dims and cover map rows maps, the rows of its scalar matrices,
    and the columns of its cover's block at each element.

    Nothing is realized.  Each step covers a submodule given by a basis at
    every element, and _generators picks its generators.  The first step
    covers the module, with the unit vectors as its basis and the cover maps
    into y spanning its radical at y; _blocks_from_generators walks the
    generators up the covers.  Every later step covers the syzygy in the
    labeled coordinates of the previous term T, whose basis at w lists the
    summands nonzero there in label order.  With d(w) the block at w of the
    last scalar matrix, the syzygy basis at w is nullspace(d(w)), carried by
    re-indexing since the structure maps of a labeled sum are 0/1, and the
    next scalar matrix has generator j's vector at its label in column j.
    This is the complex that covering the realized syzygy K would give:
    K(y) -> T(y) is injective, so the pivots of [rad | I] in K-coordinates
    are those of [rad | basis] in T-coordinates, and an injective map on the
    left leaves the next block's rref, hence its nullspace, unchanged.

    A truncated resolution stops at its last scalar matrix.
    """
    p, z, o = field.p, field.zero, field.one
    units = [[(z,) * i + (o,) + (z,) * (d - i - 1) for i in range(d)] for d in dims]

    def top(y):  # [the cover maps into y | I], read by rows
        ins = [maps[(x, y)] for x in P.covers_below(y)]
        return tuple([sum(t, ()) for t in zip(*ins, units[y])]), sum([len(m[0]) for m in ins])

    gens = _generators(P, p, units, top)
    cover = _blocks_from_generators(P, field, gens, maps)
    blocks = [(_cols(c, d), len(c)) for c, d in zip(cover, dims)]
    labels = tuple(x for x, _ in gens)
    labels_list, mats, step = [labels], [], 0
    lay = _layout(P, "proj", labels)
    while step != max_length:
        syz = [_null_rows(p, b, c) for b, c in blocks]
        if not any(syz):
            break
        if step == P.n + 1:
            raise PosetarError("resolution exceeded the global-dimension safety bound")
        pos = [{j: k for k, j in enumerate(js)} if s else None for js, s in zip(lay, syz)]

        def radical(y):
            rad = [tuple([v[pos[x][j]] if j in pos[x] else z for j in lay[y]])
                   for x in P.covers_below(y) for v in syz[x]]
            return tuple(zip(*rad, *syz[y])), len(rad)

        gens = _generators(P, p, syz, radical)
        d = tuple([tuple([v[pos[x][k]] if k in pos[x] else z for x, v in gens]) for k in range(len(labels))])
        mats.append(d)
        labels = tuple(x for x, _ in gens)
        labels_list.append(labels)
        step += 1
        if step == max_length:
            break
        new = _layout(P, "proj", labels)
        blocks = list(zip(_scalar_blocks(P, labels, labels_list[-2], new, lay, d), map(len, new)))
        lay = new
    _assert_min_resolution(labels_list, mats)
    return tuple(labels_list), mats, cover


def _generators(P: Poset, p: int, basis, radical) -> list[tuple[int, tuple]]:
    """Generators (y, vector) of the submodule with the independent vectors
    basis[y] at each y, in linear-extension order.

    radical(y) gives the rows of [radical | basis[y]] and the number n of
    radical columns, which span the bases at the covers below y carried up
    to y.  The basis columns that are pivots of its rref lift a basis of the
    top at y: each generates one summand P(y) of the cover.
    """
    gens: list[tuple[int, tuple]] = []
    for y in P.linear_extension():
        if not basis[y]:
            continue
        rows, n = radical(y)
        pivots = _rref_rows(p, rows, n + len(basis[y]))[1] if n else range(len(basis[y]))
        gens += [(y, basis[y][q - n]) for q in pivots if q >= n]
    return gens


def _blocks_from_generators(P: Poset, field, gens, maps) -> list[list[tuple]]:
    """The columns at each w of the map sending summand j of the labeled sum
    of P(x_j) to generator j = (x_j, v_j) of the module with cover map rows
    maps: the generators with x_j <= w in order, the labeled basis there.

    Each value is walked up the covers once: it reaches w from the first
    cover y below w that holds it, times the map on y -> w.
    """
    at: list[dict[int, tuple]] = [{} for _ in P.elements()]  # at[w][j]: generator j at w
    for j, (x, v) in enumerate(gens):
        at[x][j] = v
    for w in P.linear_extension():
        col = at[w]
        for y in P.covers_below(w):
            for j, u in at[y].items():
                if j not in col:
                    col[j] = _dots(u, maps[(y, w)], field)
    return [[col[j] for j in sorted(col)] for col in at]


def _assert_min_resolution(labels, mats) -> None:
    """Radical differentials of a projective complex: no unit scalar between equal labels."""
    for i, d in enumerate(mats):
        for y, row in zip(labels[i], d):
            for x, v in zip(labels[i + 1], row):
                if x == y and v:
                    raise PosetarError("resolution is not minimal")


def min_injective_resolution(N: Representation, max_length: int | None = None):
    """Minimal injective resolution via duality, plus the coaugmentation (the dual cover of D(N))."""
    P, field = N.poset, N.field
    labels, mats, cover = _resolve(P.opposite(), field, N.dims, _dual_rows(N), max_length)
    mats = tuple(_mat(field, _cols(d, len(L)), len(L), len(d)) for d, L in zip(mats, labels[1:]))
    C = LabeledComplex(P, field, "inj", labels, mats)
    return C, Morphism(N, C.term(0), [_mat(field, tuple(c), len(c), d) for c, d in zip(cover, N.dims)])


def _presentation(P: Poset, field, dims, maps):
    """Labels (L1, L0) and scalar rows of the minimal presentation."""
    labels, mats, _ = _resolve(P, field, dims, maps, max_length=1)
    if not mats:
        return None, labels[0], None
    return labels[1], labels[0], mats[0]


def projective_presentation(M: Representation):
    """Labels (L1, L0) and scalar matrix of the minimal presentation."""
    L1, L0, d = _presentation(M.poset, M.field, M.dims, _rows(M))
    return L1, L0, None if d is None else _mat(M.field, d, len(L0), len(L1))


def is_projective(M: Representation) -> bool:
    """The projective cover is onto, so M is projective iff it has M's dimension."""
    _, _, cover = _resolve(M.poset, M.field, M.dims, _rows(M), max_length=0)
    return sum(map(len, cover)) == M.total_dim()


def tau(M: Representation) -> Representation | None:
    """AR translate: kernel of the Nakayama image of a minimal presentation."""
    L1, L0, d = _presentation(M.poset, M.field, M.dims, _rows(M))
    if L1 is None:
        return None
    return _kernel_out_of_injectives(M.poset, M.field, L1, L0, d)


def _transpose(P: Poset, field, dims, maps) -> Representation | None:
    """Tr over the opposite poset: the cokernel of P(L0) -> P(L1) with the
    transposed scalars of a minimal presentation P(L1) -> P(L0)."""
    L1, L0, d = _presentation(P, field, dims, maps)
    if L1 is None:
        return None
    return _cokernel_into_projectives(P.opposite(), field, L0, L1, _cols(d, len(L1)))


def tau_inverse(M: Representation) -> Representation | None:
    """Inverse translate Tr D: the transpose of the dual, read off M's maps."""
    return _transpose(M.poset.opposite(), M.field, M.dims, _dual_rows(M))


def transpose_dual_tau(M: Representation) -> Representation | None:
    """Independent route to tau: D Tr, the dual of the transpose."""
    TrM = _transpose(M.poset, M.field, M.dims, _rows(M))
    return None if TrM is None else dualize(TrM)[0]


def tau_commutes_with_restriction_check(P: Poset, a: int, b: int, M: Representation) -> bool:
    """For clamped [a,b] and M supported on [a,b): compare the translate of M
    restricted to the interval with the interval algebra's own translate."""
    if not is_clamped(P, a, b).clamped:
        raise PosetarError("interval is not clamped")
    members = P.closed_interval(a, b)
    if not M.support() <= (members - {b}):
        raise PosetarError("module must be supported on the half-open interval")
    if not is_indecomposable(M):
        raise NotIndecomposable("restriction commutation is stated for indecomposables")
    Msub, sub, ids = restrict(M, members)
    t_full = tau(M)
    t_sub = tau(Msub)
    if t_full is None or t_sub is None:
        raise PosetarError("module must be non-projective over both algebras")
    restricted, _, _ = restrict(t_full, members)
    return is_isomorphic(restricted, t_sub)


def ext(M: Representation, N: Representation, i: int) -> int:
    """dim Ext^i(M, N) from the labeled projective resolution of M."""
    if i < 0:
        raise ValueError("ext degree must be nonnegative")
    C, _ = _resolution(M, max_length=i + 1)
    return _ext_from_resolution(C, N, i)


def ext_all(M: Representation, N: Representation) -> list[int]:
    C, _ = _resolution(M)
    return [_ext_from_resolution(C, N, i) for i in range(C.length() + 1)]


def _hom_space_dim(N: Representation, labels) -> int:
    return sum(N.dims[x] for x in labels)


def _hom_complex_map(C: LabeledComplex, N: Representation, i: int) -> Mat:
    """Map hom(term(i), N) -> hom(term(i+1), N) induced by mats[i]."""
    field = N.field
    src_labels = C.labels[i]
    dst_labels = C.labels[i + 1]
    scalar = C.mats[i]  # dst_labels -> src_labels direction for proj complexes
    rows_dim = _hom_space_dim(N, dst_labels)
    cols_dim = _hom_space_dim(N, src_labels)
    data = [[field.zero] * cols_dim for _ in range(rows_dim)]
    roff = 0
    for j, x in enumerate(dst_labels):
        coff = 0
        for k, y in enumerate(src_labels):
            c = scalar.rows[k][j]
            if c:
                # block (j, k) is c * path_map(y, x), y <= x by scalar legality;
                # no other pair of labels writes there
                for a, row in enumerate(N.path_map(y, x).scale(c).rows):
                    data[roff + a][coff: coff + N.dims[y]] = row
            coff += N.dims[y]
        roff += N.dims[x]
    return Mat(field, data, rows_dim, cols_dim)


def _ext_from_resolution(C: LabeledComplex, N: Representation, i: int) -> int:
    if i > C.length():
        return 0
    dim_i = _hom_space_dim(N, C.labels[i])
    if dim_i == 0:
        return 0
    if i < C.length():
        out = _hom_complex_map(C, N, i)
        ker_dim = dim_i - out.rank()
    else:
        ker_dim = dim_i
    in_rank = 0
    if i > 0:
        in_rank = _hom_complex_map(C, N, i - 1).rank()
    return ker_dim - in_rank


# -- induction / coinduction ------------------------------------------------


def induce(U: Representation, P: Poset, ids: list[int]) -> Representation:
    """Left adjoint of restriction: H0 of the termwise-induced presentation."""
    L1, L0, d = _presentation(U.poset, U.field, U.dims, _rows(U))
    amb0 = tuple(ids[x] for x in L0)
    if L1 is None:
        return realize_labels(P, U.field, "proj", amb0)
    return _cokernel_into_projectives(P, U.field, tuple(ids[x] for x in L1), amb0, d)


def coinduce(U: Representation, P: Poset, ids: list[int]) -> Representation:
    """Right adjoint of restriction: the kernel of the coinduced dual of D(U)'s presentation."""
    L1, L0, d = _presentation(U.poset.opposite(), U.field, U.dims, _dual_rows(U))
    amb0 = tuple(ids[x] for x in L0)
    if L1 is None:
        return realize_labels(P, U.field, "inj", amb0)
    return _kernel_out_of_injectives(P, U.field, amb0, tuple(ids[x] for x in L1), _cols(d, len(L1)))
