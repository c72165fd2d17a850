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

A minimal projective resolution starts with one walk up the linear
extension.  At each element w it covers the module (_cover_step): the
generators found so far are carried to w, and one echelon form of [their
values | I] there gives both the new generators, the unit vectors at its
pivots past the values, and the kernel of the cover at w.  In the same walk
it picks the first syzygy's generators at w (_generator_step), which need
only the kernel at w and at the covers below w, all known by then.  Each
later walk takes the next syzygy, a nullspace of the last block, in the
labeled coordinates of the last term: the summands nonzero at w, in label
order, whose structure maps are 0/1 re-indexings; its generators at y are
the basis vectors that are pivots of one echelon form of [radical | basis]
at y, by the same _generator_step.  No syzygy module is built.  Each new
label is added to the layouts by walking its up-set's bitmask.  Injective
resolutions are projective resolutions of D M.

Each call resolves afresh: a Representation keeps no resolution, so the
only reuse across calls is the linalg memo of small eliminations.

Zero spaces cost nothing: the cover walk skips the covers from elements
where the module is 0 (a generator that reaches w only through a zero
space is 0 there, as all paths compose to the same map), and where the
module is 0 the kernel of the cover is all of it, with no elimination; the
cokernel into a sum of projectives skips the elements where the sum is 0,
and Hom(C, N) skips the summands where N is 0.

Every translate is read off a minimal presentation P(L1) -> P(L0) with
scalar rows d by one of two labeled helpers, whose blocks at w are d read
at the summands nonzero at w.  Both realize no sum: they hand the shared
constructions of `rep` a 0/1 structure map as a re-indexing.  A kernel out
of a sum of injectives is rep._kernel_rep on the nullspace of the block at
each w, a vector at x going to its entries at the summands of y: tau is the
kernel of the Nakayama image I(L1) -> I(L0), and coinduce is one too.  A
cokernel into a sum of projectives is rep._quotient_rep, q_y after the
structure map being q_y read at the summands of x.  induce is one, and so
is the transpose Tr M, P(L0) -> P(L1) with d transposed over the opposite
poset.  tau_inverse is Tr D and transpose_dual_tau is D Tr.
"""

from __future__ import annotations

from .errors import PosetarError
from .linalg import Mat, _at, _cols, _dots, _mat, _null_from_echelon, _null_rows, _quotient_rows, _rref_rows, _unit_rows
from .poset import Poset
from .rep import Morphism, Representation, _kernel_rep, _quotient_rep, _rep, dualize


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


def _extend_layout(lay, mask: int, ids) -> None:
    """Append ids to lay[u] for every element u of the bitmask, walking its bits."""
    while mask:
        low = mask & -mask
        lay[low.bit_length() - 1].extend(ids)
        mask ^= low


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
    echelon projection q_y after it is q_y read at the positions in lay[y]
    of the summands of x (rep._quotient_rep).
    """
    slay, lay = _layout(P, "proj", src), _layout(P, "proj", dst)
    blocks = _scalar_blocks(P, src, dst, slay, lay, d)
    quots = [_quotient_rows(field.p, b, len(sj), len(js)) for b, sj, js in zip(blocks, slay, lay)]
    return _quotient_rep(P, field, quots, lambda x, y, q_y: _at(q_y, [lay[y].index(j) for j in lay[x]]))


def _kernel_out_of_injectives(P: Poset, field, src, dst, d) -> Representation:
    """Kernel of the scalar rows d from the labeled sum of I(src) to that of I(dst).

    Its basis at w is the nullspace of the block there (rep._kernel_rep).
    The sum drops the summands that vanish along a cover x -> y, so a vector
    at x goes to its entries at the summands of y.
    """
    lay = _layout(P, "inj", src)
    blocks = _scalar_blocks(P, src, dst, lay, _layout(P, "inj", dst), d)
    null = [_null_rows(field.p, b, len(js)) for b, js in zip(blocks, lay)]
    pos = [{j: k for k, j in enumerate(js)} for js in lay]
    return _kernel_rep(P, field, null, lambda x, y, v: tuple([v[pos[x][j]] for j in lay[y]]))


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
    and the columns of its cover's block at each element.  A truncated
    resolution stops at its max_length-th scalar matrix.

    Nothing is realized.  One walk up the linear extension covers the module
    and picks the generators of its first syzygy (_cover_step and
    _generator_step at each w), so it gives the first scalar matrix unless
    the module is projective; with max_length 0 it only covers the module.
    Where the module is 0 the kernel is all of the cover, with no
    elimination.  The generators at w need only the syzygy at w and at the
    covers below w, and the walk has computed those by then.  Every later
    walk (_syzygy_generators) covers the next syzygy, a submodule given by
    a basis at every element, with the same _generator_step in the labeled
    coordinates of the previous term T, whose basis at w lists the summands
    nonzero there in label order.  With d(w) the block at w of the last
    scalar matrix, the syzygy basis at w is nullspace(d(w)), carried by
    re-indexing since the structure maps of a labeled sum are 0/1, and the
    next scalar matrix has generator j's vector at its label in column j.
    This is the complex that covering the realized syzygy K would give:
    K(y) -> T(y) is injective, so the pivots of [rad | I] in K-coordinates
    are those of [rad | basis] in T-coordinates, and an injective map on
    the left leaves the next block's rref, hence its nullspace, unchanged.
    """
    p = field.p
    at: list[dict[int, tuple]] = [{} for _ in dims]  # at[w][j]: generator j at w
    gens0: list[tuple[int, tuple]] = []
    gens: list[tuple[int, tuple]] = []
    lay: list[list[int]] = [[] for _ in dims]
    nlay: list[list[int]] = [[] for _ in dims]
    cover, syz = [None] * len(dims), [None] * len(dims)
    for w in P.linear_extension():
        if dims[w]:
            cover[w], syz[w] = _cover_step(P, field, dims, maps, at, gens0, lay, w)
        else:  # the kernel is all of the cover
            cover[w], syz[w] = [()] * len(lay[w]), _unit_rows(len(lay[w]))
        if syz[w] and max_length != 0:
            _generator_step(P, p, syz, lay, w, gens, nlay)
    labels, mats = [tuple([x for x, _ in gens0])], []
    while gens and len(mats) != max_length:
        if len(mats) == P.n + 1:
            raise PosetarError("resolution exceeded the global-dimension safety bound")
        mats.append(_scalar_rows(gens, lay, len(labels[-1]), field.zero))
        labels.append(tuple([x for x, _ in gens]))
        if len(mats) == max_length:
            break
        gens, new = _syzygy_generators(P, p, labels[-1], labels[-2], mats[-1], nlay, lay)
        lay, nlay = nlay, new
    _assert_min_resolution(labels, mats)
    return tuple(labels), tuple(mats), cover


def _syzygy_generators(P: Poset, p: int, src, dst, d, slay, dlay):
    """The generators of the kernel of the scalar rows d from the labeled sum
    of P(src) to that of P(dst), with layouts slay and dlay, in the labeled
    coordinates of the source, and the layout of their labels: one walk up
    the linear extension, the kernel at w being the nullspace of the block
    of d there."""
    blocks = _scalar_blocks(P, src, dst, slay, dlay, d)
    syz = [_null_rows(p, b, len(js)) for b, js in zip(blocks, slay)]
    gens: list[tuple[int, tuple]] = []
    nlay: list[list[int]] = [[] for _ in slay]
    for w in P.linear_extension():
        if syz[w]:
            _generator_step(P, p, syz, slay, w, gens, nlay)
    return gens, nlay


def _cover_step(P: Poset, field, dims, maps, at, gens, lay, w):
    """The projective cover of the module with dimensions dims and cover map
    rows maps at an element w where it is nonzero, and its kernel there, for
    the walk up the linear extension: it appends the generators (w, v) found
    at w to gens and their ids to the layout lay of the cover, and returns
    the columns of the cover's block at w (generator j's value there, for
    the j in lay[w]) and a basis of the nullspace of that block.

    The generators found below w reach w through the covers between nonzero
    spaces (_carry); their values C span the radical of the module at w.  The
    unit vectors at the pivots of [C | I] past C lift a basis of the top at w
    and are its generators.  The reduced echelon form R of the block [C |
    those unit vectors] is that of [C | I] read at its columns, which hold
    every pivot, so the kernel needs no second elimination: its free columns
    all lie in C, where R is read as it is, and the pivots past C are the
    block's columns c, c + 1, ....
    """
    p = field.p
    d, js = dims[w], lay[w]
    col = _carry(P, field, dims, maps, at, w)
    units = _unit_rows(d)
    zero = (0,) * d
    C = [col.get(j) or zero for j in js]
    c = len(C)
    R, pivots = _rref_rows(p, tuple([r + e for r, e in zip(_cols(C, d), units)]), c + d) if c else (units, range(d))
    new = [q - c for q in pivots if q >= c]
    if new:
        ids = range(len(gens), len(gens) + len(new))
        for j, q in zip(ids, new):
            gens.append((w, units[q]))
            col[j] = units[q]
        _extend_layout(lay, P.up[w], ids)
    # the block's pivots: those of [C | I] in C, then its columns c, c + 1, ...
    k = len(pivots) - len(new)
    return C + [units[q] for q in new], _null_from_echelon(p, R, [*pivots[:k], *range(c, c + len(new))], c + len(new))


def _carry(P: Poset, field, dims, maps, at, w) -> dict:
    """at[w] with the generators in at[y], for every cover y -> w between
    nonzero spaces, carried to w.

    Each value reaches w from the first such cover y below w that holds it,
    times the map on y -> w.  A generator that reaches w only through a zero
    space is 0 there, as every path from its label to w composes to the
    same map."""
    col = at[w]
    for y in P.covers_below(w):
        if dims[y]:
            m = maps[(y, w)]
            for j, u in at[y].items():
                if j not in col:
                    col[j] = _dots(u, m, field)
    return col


def _generator_step(P: Poset, p: int, syz, lay, w, gens, nlay) -> None:
    """The generators at w of the syzygy with the independent vectors syz[y]
    at each y, nonzero at w, in the labeled coordinates of the term with
    layout lay, for the walk up the linear extension: they are appended to
    gens as (w, vector), and their ids to the layout nlay of the next term.

    The syzygy bases at the covers below w, carried up to w by re-indexing
    (lay[x] is part of lay[w] on a cover x -> w), span its radical there.
    The basis vectors that are pivots of the rref of [radical | syz[w]] lift
    a basis of the top at w: each generates one summand P(w) of the cover.
    """
    basis, js, rad = syz[w], lay[w], []
    for x in P.covers_below(w):
        if not syz[x]:
            continue
        at = [js.index(j) for j in lay[x]]
        for v in syz[x]:
            row = [0] * len(js)
            for k, a in zip(at, v):
                row[k] = a
            rad.append(row)
    n = len(rad)
    pivots = _rref_rows(p, tuple(zip(*rad, *basis)), n + len(basis))[1] if n else range(len(basis))
    new = [basis[q - n] for q in pivots if q >= n]
    if new:
        _extend_layout(nlay, P.up[w], range(len(gens), len(gens) + len(new)))
        gens += [(w, v) for v in new]


def _scalar_rows(gens, lay, n: int, z) -> tuple:
    """The rows of the scalar matrix with generator j = (x, v) in column j:
    v at the summands lay[x] of the n-summand term, z elsewhere."""
    cols = []
    for x, v in gens:
        col = [z] * n
        for j, a in zip(lay[x], v):
            col[j] = a
        cols.append(col)
    return tuple(zip(*cols))


def _blocks_from_generators(P: Poset, field, gens, maps, dims, lay) -> list[list[tuple]]:
    """The columns at each w of the map sending summand j of the labeled sum
    of P(x_j) to generator j = (x_j, v_j) of the module with dimensions dims
    and cover map rows maps: the generators in lay[w], the layout of the sum,
    carried up the covers between nonzero spaces (_carry)."""
    at: list[dict[int, tuple]] = [{} for _ in dims]
    for j, (x, v) in enumerate(gens):
        at[x][j] = v
    for w in P.linear_extension():
        if dims[w]:
            _carry(P, field, dims, maps, at, w)
    return [[col.get(j) or (0,) * d for j in js] for col, js, d in zip(at, lay, dims)]


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


def ext(M: Representation, N: Representation, i: int) -> int:
    """dim Ext^i(M, N) from the labeled projective resolution of M."""
    if i < 0:
        raise ValueError("ext degree must be nonnegative")
    C, _ = _resolution(M, max_length=i + 1)
    return _ext_dims(C, N)[i] if i <= C.length() else 0


def ext_all(M: Representation, N: Representation) -> list[int]:
    C, _ = _resolution(M)
    return _ext_dims(C, N)


def _ext_dims(C: LabeledComplex, N: Representation) -> list[int]:
    """dim Ext^i(M, N) for i = 0, ..., C.length(), from the projective
    resolution C of M, with each map of Hom(C, N) ranked once: Ext^i is the
    dimension of Hom(term(i), N) less the ranks of the maps out of and into
    it.  Ext^0 is Hom(M, N), as Hom(-, N) is left exact."""
    dims = [_hom_space_dim(N, lab) for lab in C.labels]
    ranks = [_hom_complex_map(C, N, i).rank() for i in range(C.length())] + [0]
    return [d - ranks[i] - (ranks[i - 1] if i else 0) for i, d in enumerate(dims)]


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
            if c and N.dims[x] and N.dims[y]:
                # block (j, k) is c * path_map(y, x), y <= x by scalar legality;
                # no other pair of labels writes there
                for a, row in enumerate(N.path_map(y, x).scale(c).rows):
                    data[roff + a][coff: coff + N.dims[y]] = row
            coff += N.dims[y]
        roff += N.dims[x]
    return _mat(field, tuple(map(tuple, data)), rows_dim, cols_dim)


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
