"""Labeled complexes, minimal resolutions, Ext, the Nakayama functor, and tau.

A labeled complex records each term of a resolution as a multiset of element
ids: the term is the direct sum of the indecomposable projectives (or
injectives) at those elements.  Differentials are stored as scalar matrices
with respect to the canonical one-dimensional hom spaces between labeled
summands, which is exactly what makes the Nakayama functor a relabeling:
replace each projective label by the injective one and keep the scalars.

A minimal projective resolution repeats one step.  A step covers a
submodule given by a basis at each element: the generators at y are the
basis vectors that are pivots of one echelon form of [radical | basis] at y,
and each generator's value is walked up the covers once to give the blocks
of the cover.  The projective cover is the step on the module itself, with
the unit vectors as its basis and its structure maps carrying them.  Every
later step covers the syzygy in labeled coordinates: the basis of a labeled
sum at w is its summands nonzero at w, in label order, and its structure maps
are 0/1 re-indexings.  The syzygy basis is a nullspace of the last block,
and the generators' vectors are the next scalar matrix.  No syzygy module is
built.  Injective resolutions are projective resolutions over the opposite
poset.

Every translate is read off a minimal presentation P(L1) -> P(L0) with
scalar matrix d by one of two labeled helpers, whose blocks at w are d read
at the summands nonzero at w.  A kernel out of a sum of injectives has the
nullspace of the block at w as its basis there: tau is the kernel of the
Nakayama image I(L1) -> I(L0), and coinduce is one too.  A cokernel into a
sum of projectives realizes no sum: q_y after a 0/1 structure map is q_y
read at the summands of x.  induce is one, and so is the transpose Tr M,
P(L0) -> P(L1) with the transpose of d over the opposite poset.  tau_inverse
is Tr D and transpose_dual_tau is D Tr.
"""

from __future__ import annotations

from .clamped import is_clamped
from .errors import NotIndecomposable, PosetarError
from .linalg import Mat, _mat
from .poset import Poset
from .rep import (
    Morphism,
    Representation,
    _quotient_projection,
    _quotient_rep,
    _subrep_from_bases,
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
    return Representation(P, field, [len(js) for js in lay], maps, check=False)


def realize_scalar_map(P: Poset, field, kind: str, src_labels, dst_labels, scalar: Mat) -> Morphism:
    """Morphism between labeled sums given scalars on canonical generators.

    scalar[k][j] multiplies the canonical map from src summand j to dst
    summand k; it must vanish unless dst label <= src label.
    """
    slay, dlay = _layout(P, kind, src_labels), _layout(P, kind, dst_labels)
    blocks = _scalar_blocks(P, src_labels, dst_labels, slay, dlay, scalar)
    return Morphism(_realize_layout(P, field, slay), _realize_layout(P, field, dlay), blocks)


def _scalar_blocks(P: Poset, src_labels, dst_labels, slay, dlay, scalar: Mat) -> list[Mat]:
    """The per-element blocks of a scalar map between the labeled sums with
    layouts slay and dlay: its rows and columns nonzero there."""
    z = scalar.field.zero
    rows = scalar.rows
    for k, y in enumerate(dst_labels):
        for j, x in enumerate(src_labels):
            if rows[k][j] != z and not P.leq(y, x):
                raise PosetarError("scalar entry on a non-existent canonical map")
    return [
        _mat(scalar.field, tuple([tuple([rows[k][j] for j in slay[w]]) for k in dlay[w]]), len(dlay[w]), len(slay[w]))
        for w in P.elements()
    ]


def _cokernel_into_projectives(P: Poset, field, src, dst, scalar: Mat) -> Representation:
    """Cokernel of the scalar map from the labeled sum of P(src) to that of P(dst).

    On a cover x -> y the sum sends summand j at x to summand j at y, so the
    echelon projection q_y after it is q_y read at the summands of x.  This
    is Morphism.cokernel without realizing the sum, which runs in every
    tau_inverse: on 230 knit vertices of four corpus posets the realized
    route took 0.231 s against 0.188 s (in-process medians, 2-core Xeon).
    """
    lay = _layout(P, "proj", dst)
    blocks = _scalar_blocks(P, src, dst, _layout(P, "proj", src), lay, scalar)
    pos = [{j: k for k, j in enumerate(js)} for js in lay]
    quots = [_quotient_projection(field, blocks[x], len(lay[x])) for x in P.elements()]

    def along(x, y, q_y):
        at = [pos[y][j] for j in lay[x]]
        return _mat(field, tuple([tuple([row[k] for k in at]) for row in q_y.rows]), q_y.r, len(at))

    return _quotient_rep(P, field, quots, along)


def _kernel_out_of_injectives(P: Poset, field, src, dst, scalar: Mat) -> Representation:
    """Kernel of the scalar map from the labeled sum of I(src) to that of I(dst)."""
    lay = _layout(P, "inj", src)
    blocks = _scalar_blocks(P, src, dst, lay, _layout(P, "inj", dst), scalar)
    S = _realize_layout(P, field, lay)
    K, _ = _subrep_from_bases(S, [Mat.from_columns(field, b.nullspace(), b.c) for b in blocks])
    return K


def min_projective_resolution(M: Representation, max_length: int | None = None):
    """Minimal projective resolution as a labeled complex plus augmentation.

    With max_length set, the complex is truncated after that many syzygy
    steps (enough for presentations); otherwise it runs to exactness with a
    global-dimension safety bound of |P| + 1.
    """
    C, blocks = _resolution(M, max_length)
    return C, Morphism(C.term(0), M, blocks)


def _resolution(M: Representation, max_length: int | None = None):
    """The complex of min_projective_resolution and the blocks of its cover.

    Nothing is realized.  Each step covers a submodule given by a basis at
    every element, in an ambient space whose vectors are carried along each
    cover x -> y by a function carry(x, y, v): _generators picks the
    generators and _blocks_from_generators writes the blocks of the cover.
    The first step covers M itself, with the unit vectors of M as its basis,
    carried by M's structure maps.  Every later step covers the syzygy in the
    labeled coordinates of the previous term T, whose basis at w lists the
    summands nonzero there in label order.  With d(w): T(w) -> (previous
    space)(w) the block of the last map:

    - the syzygy basis at w is nullspace(d(w));
    - it is carried by re-indexing, since the structure maps of a labeled
      sum are 0/1;
    - the next scalar matrix has generator j's vector at its label in
      column j.

    This gives the complex that covering the realized syzygy K would give:

    - the kernel's basis at y is exactly the nullspace columns;
    - K(y) -> T(y) is injective, so the pivots of [rad | I] in K-coordinates
      are those of [rad | basis] in T-coordinates;
    - an injective map on the left leaves the row space of the next block
      unchanged, so its rref, and hence the next nullspace, is unchanged;
    - the scalar of generator j read off at its label is the basis vector
      it lifts, written in T-coordinates.

    The last step of a truncated resolution stops at its scalar matrix: the
    blocks and layout of its term would feed only a syzygy nobody reads.
    """
    P, field = M.poset, M.field

    def along_M(x, y, v):
        return M.maps[(x, y)].apply(v)

    z, o = field.zero, field.one
    units = [[(z,) * i + (o,) + (z,) * (d - i - 1) for i in range(d)] for d in M.dims]
    gens = _generators(P, field, M.dims, units, along_M)
    cover = blocks = _blocks_from_generators(P, field, M.dims, gens, along_M)
    labels = tuple(x for x, _ in gens)
    labels_list = [labels]
    mats: list[Mat] = []
    step = 0
    while step != max_length:
        syz = [b.nullspace() for b in blocks]
        if not any(syz):
            break
        if step == P.n + 1:
            raise PosetarError("resolution exceeded the global-dimension safety bound")
        lay = _layout(P, "proj", labels)
        pos = [{j: k for k, j in enumerate(js)} for js in lay]
        dims = [len(js) for js in lay]

        def push(x, y, v):
            return _push(v, lay[x], pos[y], z)

        gens = _generators(P, field, dims, syz, push)
        rows = [[z] * len(gens) for _ in labels]
        for j, (x, vec) in enumerate(gens):
            for k, v in zip(lay[x], vec):
                rows[k][j] = v
        mats.append(Mat(field, rows, len(labels), len(gens)))
        labels = tuple(x for x, _ in gens)
        labels_list.append(labels)
        step += 1
        if step == max_length:
            break
        blocks = _blocks_from_generators(P, field, dims, gens, push)
    C = LabeledComplex(P, field, "proj", tuple(labels_list), tuple(mats))
    _assert_min_resolution(C)
    return C, cover


def _generators(P: Poset, field, dims, basis, carry) -> list[tuple[int, tuple]]:
    """Generators (y, vector) of the submodule with the given bases, in
    linear-extension order.

    basis[y] lists independent vectors of a space of dimension dims[y], and
    carry(x, y, v) sends v along the cover x -> y.  The radical at y is
    spanned by the bases at the covers below y carried up to y.  The basis
    columns that are pivots of rref([radical | basis[y]]) lie outside the
    span of the radical and of the columns before them, so they lift a basis
    of the top at y: each generates one summand P(y) of the cover.
    """
    gens: list[tuple[int, tuple]] = []
    for y in P.linear_extension():
        if not basis[y]:
            continue
        rad = [carry(x, y, v) for x in P.covers_below(y) for v in basis[x]]
        _, pivots = Mat.from_columns(field, rad + basis[y], dims[y]).rref()
        gens += [(y, basis[y][p - len(rad)]) for p in pivots if p >= len(rad)]
    return gens


def _blocks_from_generators(P: Poset, field, dims, gens, carry) -> list[Mat]:
    """Blocks of the map sending summand j of the labeled sum of P(x_j) to
    the value v_j of generator j = (x_j, v_j).

    Each value is walked up the covers once: it reaches w from the first
    cover y below w that holds it, as carry(y, w, its value at y).  The
    columns at w are the generators with x_j <= w in order, the labeled
    basis there.
    """
    at: list[dict[int, tuple]] = [{} for _ in P.elements()]  # at[w][j]: generator j at w
    for j, (x, v) in enumerate(gens):
        at[x][j] = v
    for w in P.linear_extension():
        col = at[w]
        for y in P.covers_below(w):
            for j, u in at[y].items():
                if j not in col:
                    col[j] = carry(y, w, u)
    return [Mat.from_columns(field, [col[j] for j in sorted(col)], dims[w]) for w, col in enumerate(at)]


def _push(vec, src: list[int], dst: dict[int, int], zero) -> tuple:
    """A vector on the summands src, carried to where summand j is coordinate dst[j]."""
    out = [zero] * len(dst)
    for j, v in zip(src, vec):
        out[dst[j]] = v
    return tuple(out)


def _assert_min_resolution(C: LabeledComplex) -> None:
    """Radical differentials of a projective complex: no unit scalar between equal labels."""
    for i, m in enumerate(C.mats):
        for k, y in enumerate(C.labels[i]):
            for j, x in enumerate(C.labels[i + 1]):
                if x == y and m.rows[k][j] != C.field.zero:
                    raise PosetarError("resolution is not minimal")


def min_injective_resolution(N: Representation, max_length: int | None = None):
    """Minimal injective resolution via duality, plus the coaugmentation (the dual cover of D(N))."""
    C, cover = _resolution(dualize(N)[0], max_length)
    C = LabeledComplex(N.poset, N.field, "inj", C.labels, tuple(m.transpose() for m in C.mats))
    return C, Morphism(N, C.term(0), [b.transpose() for b in cover])


def projective_presentation(M: Representation):
    """Labels (L1, L0) and scalar matrix of the minimal presentation."""
    C, _ = _resolution(M, max_length=1)
    if C.length() == 0:
        return None, C.labels[0], None
    return C.labels[1], C.labels[0], C.mats[0]


def is_projective(M: Representation) -> bool:
    """The projective cover is onto, so M is projective iff it has M's dimension."""
    _, blocks = _resolution(M, max_length=0)
    return sum(b.c for b in blocks) == M.total_dim()


def tau(M: Representation) -> Representation | None:
    """AR translate: kernel of the Nakayama image of a minimal presentation."""
    L1, L0, d = projective_presentation(M)
    if L1 is None:
        return None
    return _kernel_out_of_injectives(M.poset, M.field, L1, L0, d)


def _transpose(M: Representation) -> Representation | None:
    """Tr M over the opposite poset: the cokernel of P(L0) -> P(L1) with the
    transposed scalars of a minimal presentation P(L1) -> P(L0) of M."""
    L1, L0, d = projective_presentation(M)
    if L1 is None:
        return None
    return _cokernel_into_projectives(M.poset.opposite(), M.field, L0, L1, d.transpose())


def tau_inverse(M: Representation) -> Representation | None:
    """Inverse translate Tr D: the transpose of the dual, over the poset of M."""
    return _transpose(dualize(M)[0])


def transpose_dual_tau(M: Representation) -> Representation | None:
    """Independent route to tau: D Tr, the dual of the transpose."""
    TrM = _transpose(M)
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
    L1, L0, d = projective_presentation(U)
    amb0 = tuple(ids[x] for x in L0)
    if L1 is None:
        return realize_labels(P, U.field, "proj", amb0)
    amb1 = tuple(ids[x] for x in L1)
    return _cokernel_into_projectives(P, U.field, amb1, amb0, d)


def coinduce(U: Representation, P: Poset, ids: list[int]) -> Representation:
    """Right adjoint of restriction: the kernel of the coinduced dual of D(U)'s presentation."""
    L1, L0, d = projective_presentation(dualize(U)[0])
    amb0 = tuple(ids[x] for x in L0)
    if L1 is None:
        return realize_labels(P, U.field, "inj", amb0)
    amb1 = tuple(ids[x] for x in L1)
    return _kernel_out_of_injectives(P, U.field, amb0, amb1, d.transpose())
