"""Labeled complexes, minimal resolutions, Ext, the Nakayama functor, and tau.

A labeled complex records each term of a resolution as a multiset of element
ids: the term is the direct sum of the indecomposable projectives (or
injectives) at those elements.  Differentials are stored as scalar matrices
with respect to the canonical one-dimensional hom spaces between labeled
summands, which is exactly what makes the Nakayama functor a relabeling:
replace each projective label by the injective one and keep the scalars.

A minimal projective resolution realizes one morphism, the projective cover
of the module.  Every later step stays in labeled coordinates: the basis of
a labeled sum at w is its summands nonzero at w, in label order, and its
structure maps are 0/1 re-indexings.  A step takes the syzygy basis at each
element as a nullspace of the last block, reads the generators of the next
term off one echelon form of [radical | syzygy basis] per element, and
writes their vectors as the next scalar matrix and, pushed upward, as the
next block.  No syzygy module is built.  Injective resolutions, and so the
inverse translate, are projective resolutions over the opposite poset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PosetarError, UnlabeledComplex
from .linalg import Mat
from .poset import Poset
from .rep import Morphism, Representation, dualize, zero_rep


@dataclass(frozen=True)
class LabeledComplex:
    """Bounded complex of labeled projectives or injectives.

    labels[i] lists the summand labels of the i-th term, nearest the module
    first (P_0 or I^0).  For kind 'proj', mats[i] is the scalar matrix of the
    map term(i+1) -> term(i); for kind 'inj' it is term(i) -> term(i+1).
    """

    poset: Poset
    field: object
    kind: str  # 'proj' | 'inj'
    labels: tuple[tuple[int, ...], ...]
    mats: tuple[Mat, ...]
    shift: int = 0

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
    summands nonzero there in label order.
    """
    if kind == "proj":
        return [[j for j, x in enumerate(labels) if P.leq(x, w)] for w in P.elements()]
    return [[j for j, x in enumerate(labels) if P.leq(w, x)] for w in P.elements()]


def realize_labels(P: Poset, field, kind: str, labels) -> Representation:
    """The labeled sum as a representation.

    The cover map x -> y has entry (i, j) one exactly when row i at y and
    column j at x are the same summand.
    """
    if not labels:
        return zero_rep(P, field)
    lay = _layout(P, kind, labels)
    z, o = field.zero, field.one
    maps = {
        (x, y): Mat(field, [[o if i == j else z for j in lay[x]] for i in lay[y]], len(lay[y]), len(lay[x]))
        for (x, y) in P.covers
    }
    return Representation(P, field, [len(js) for js in lay], maps, check=False)


def realize_scalar_map(P: Poset, field, kind: str, src_labels, dst_labels, scalar: Mat) -> Morphism:
    """Morphism between labeled sums given scalars on canonical generators.

    scalar[k][j] multiplies the canonical map from src summand j to dst
    summand k; it must vanish unless dst label <= src label.
    """
    z = field.zero
    for k, y in enumerate(dst_labels):
        for j, x in enumerate(src_labels):
            if scalar.rows[k][j] != z and not P.leq(y, x):
                raise PosetarError("scalar entry on a non-existent canonical map")
    src = realize_labels(P, field, kind, src_labels)
    dst = realize_labels(P, field, kind, dst_labels)
    slay = _layout(P, kind, src_labels)
    dlay = _layout(P, kind, dst_labels)
    blocks = [
        Mat(field, [[scalar.rows[k][j] for j in slay[w]] for k in dlay[w]], len(dlay[w]), len(slay[w]))
        for w in P.elements()
    ]
    return Morphism(src, dst, blocks)


def _cover_by_projectives(M: Representation):
    """Minimal projective cover: labels plus the covering morphism.

    The radical of M at x is spanned by the images of the covers into x.
    Row reducing [those images | I] makes a pivot of each unit vector outside
    the span of the radical and of the unit vectors before it, so the pivot
    unit vectors span a complement of the radical: they lift a basis of the
    top at x.  Each one generates a summand P(x) of the cover and is walked
    up the covers once, so its image at w is path_map(x, w) applied to it.
    """
    P, field = M.poset, M.field
    z, o = field.zero, field.one
    gens: list[tuple[int, int]] = []
    for x in P.linear_extension():
        d = M.dims[x]
        below = [M.maps[(y, x)].rows for y in P.covers_below(x)]
        nrad = sum(M.dims[y] for y in P.covers_below(x))
        rows = [[v for m in below for v in m[r]] + [o if c == r else z for c in range(d)] for r in range(d)]
        _, pivots = Mat(field, rows, d, nrad + d).rref()
        gens += [(x, p - nrad) for p in pivots if p >= nrad]
    labels = [x for x, _ in gens]
    at: list[dict[int, tuple]] = [{} for _ in P.elements()]  # at[w][g]: generator g at w
    for w in P.linear_extension():
        for g, (x, i) in enumerate(gens):
            if x == w:
                at[w][g] = tuple(o if c == i else z for c in range(M.dims[x]))
            elif P.leq(x, w):
                y = next(y for y in P.covers_below(w) if P.leq(x, y))
                at[w][g] = M.maps[(y, w)].apply(at[y][g])
    blocks = [Mat.from_columns(field, list(at[w].values()), M.dims[w]) for w in P.elements()]
    return labels, Morphism(realize_labels(P, field, "proj", labels), M, blocks)


def min_projective_resolution(M: Representation, max_length: int | None = None):
    """Minimal projective resolution as a labeled complex plus augmentation.

    With max_length set, the complex is truncated after that many syzygy
    steps (enough for presentations); otherwise it runs to exactness with a
    global-dimension safety bound of |P| + 1.

    Only step 0 realizes anything: the cover of M, which is the augmentation.
    Every later step works in the labeled coordinates of the previous term
    T, whose basis at w lists the summands nonzero there in label order.
    With d(w): T(w) -> (previous space)(w) the block of the last map:

    - the syzygy basis at w is nullspace(d(w));
    - the radical at y is the syzygy basis at each cover z of y pushed up to
      y by re-indexing, since the structure maps of a labeled sum are 0/1;
    - the generators at y are the syzygy columns that are pivots of
      rref([radical | syzygy basis]);
    - the next scalar matrix has generator j's vector at its label in
      column j, and the next block at w has every generator pushed up to w.

    This gives the complex that covering the realized syzygy K would give:

    - the kernel's basis at y is exactly the nullspace columns, because
      span_basis keeps them and the images from below already lie in K;
    - K(y) -> T(y) is injective, so the pivots of [rad | I] in K-coordinates
      are those of [rad | basis] in T-coordinates;
    - an injective map on the left leaves the row space of the next block
      unchanged, so its rref, and hence the next nullspace, is unchanged;
    - the scalar of generator j read off at its label is the basis vector
      it lifts, written in T-coordinates.
    """
    P, field = M.poset, M.field
    labels, aug = _cover_by_projectives(M)
    labels_list = [tuple(labels)]
    mats: list[Mat] = []
    blocks = aug.blocks
    lay = _layout(P, "proj", labels)
    step = 0
    while step != max_length:  # at max_length the next syzygy would go unread
        syz = [b.nullspace() for b in blocks]
        if not any(syz):
            break
        if step == P.n + 1:
            raise PosetarError("resolution exceeded the global-dimension safety bound")
        pos = [{j: k for k, j in enumerate(js)} for js in lay]
        gens: list[tuple[int, tuple]] = []
        for y in P.linear_extension():
            if not syz[y]:
                continue
            rad = [_push(v, lay[x], pos[y], field.zero) for x in P.covers_below(y) for v in syz[x]]
            _, pivots = Mat.from_columns(field, rad + syz[y], len(lay[y])).rref()
            gens += [(y, syz[y][p - len(rad)]) for p in pivots if p >= len(rad)]
        rows = [[field.zero] * len(gens) for _ in labels]
        for j, (x, vec) in enumerate(gens):
            for k, v in zip(lay[x], vec):
                rows[k][j] = v
        mats.append(Mat(field, rows, len(labels), len(gens)))
        blocks = [
            Mat.from_columns(
                field, [_push(v, lay[x], pos[w], field.zero) for x, v in gens if P.leq(x, w)], len(lay[w])
            )
            for w in P.elements()
        ]
        labels = tuple(x for x, _ in gens)
        labels_list.append(labels)
        lay = _layout(P, "proj", labels)
        step += 1
    C = LabeledComplex(P, field, "proj", tuple(labels_list), tuple(mats))
    _assert_min_resolution(C)
    return C, aug


def _push(vec, src: list[int], dst: dict[int, int], zero) -> tuple:
    """A vector on the summands src, carried to where summand j is coordinate dst[j]."""
    out = [zero] * len(dst)
    for j, v in zip(src, vec):
        out[dst[j]] = v
    return tuple(out)


def _assert_min_resolution(C: LabeledComplex) -> None:
    """Radical differentials: no unit scalar between equal labels' generators."""
    for i, m in enumerate(C.mats):
        src = C.labels[i + 1] if C.kind == "proj" else C.labels[i]
        dst = C.labels[i] if C.kind == "proj" else C.labels[i + 1]
        for k, y in enumerate(dst):
            for j, x in enumerate(src):
                if x == y and m.rows[k][j] != C.field.zero:
                    raise PosetarError("resolution is not minimal")


def _injective_complex(N: Representation, max_length: int | None = None):
    """Minimal injective resolution via duality, plus the dual augmentation."""
    D, _ = dualize(N)
    C, aug = min_projective_resolution(D, max_length=max_length)
    mats = tuple(m.transpose() for m in C.mats)
    return LabeledComplex(N.poset, N.field, "inj", C.labels, mats), aug


def min_injective_resolution(N: Representation, max_length: int | None = None):
    """Minimal injective resolution via duality, plus the coaugmentation."""
    C, aug = _injective_complex(N, max_length)
    # coaugmentation: dual of aug, transported back to P
    coaug = Morphism(N, C.term(0), [b.transpose() for b in aug.blocks])
    return C, coaug


def projective_presentation(M: Representation):
    """Labels (L1, L0) and scalar matrix of the minimal presentation."""
    C, aug = min_projective_resolution(M, max_length=1)
    if C.length() == 0:
        return None, C.labels[0], None
    return C.labels[1], C.labels[0], C.mats[0]


def is_projective(M: Representation) -> bool:
    """The projective cover is onto, so M is projective iff it has M's dimension."""
    _, cover = _cover_by_projectives(M)
    return cover.source.total_dim() == M.total_dim()


def is_injective_module(M: Representation) -> bool:
    D, _ = dualize(M)
    return is_projective(D)


def nakayama(C: LabeledComplex) -> LabeledComplex:
    """Replace each projective label by the injective one, keep scalars."""
    if C.kind != "proj":
        raise UnlabeledComplex("nakayama acts on projective-labeled complexes")
    return LabeledComplex(C.poset, C.field, "inj", C.labels, C.mats, C.shift)


def tau(M: Representation) -> Representation | None:
    """AR translate: kernel of the Nakayama image of a minimal presentation."""
    L1, L0, d = projective_presentation(M)
    if L1 is None:
        return None
    nu_d = realize_scalar_map(M.poset, M.field, "inj", L1, L0, d)
    K, _ = nu_d.kernel()
    return K


def tau_inverse(M: Representation) -> Representation | None:
    """Inverse translate via the minimal injective copresentation."""
    C, _ = _injective_complex(M, max_length=1)
    if C.length() == 0:
        return None
    nu_inv = realize_scalar_map(M.poset, M.field, "proj", C.labels[0], C.labels[1], C.mats[0])
    Q, _ = nu_inv.cokernel()
    return Q


def transpose_dual_tau(M: Representation) -> Representation | None:
    """Independent route to tau: dual of the transpose over the opposite poset."""
    L1, L0, d = projective_presentation(M)
    if L1 is None:
        return None
    Pop = M.poset.opposite()
    tr_map = realize_scalar_map(Pop, M.field, "proj", L0, L1, d.transpose())
    TrM, _ = tr_map.cokernel()
    DTr, _ = dualize(TrM)  # over Pop.opposite(), which is M.poset
    return DTr


def tau_commutes_with_restriction_check(P: Poset, a: int, b: int, M: Representation) -> bool:
    """For clamped [a,b] and M supported on [a,b): compare the translate of M
    restricted to the interval with the interval algebra's own translate."""
    from .clamped import is_clamped
    from .errors import NotIndecomposable
    from .rep import is_isomorphic, restrict
    from .split import is_indecomposable

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
    C, _ = min_projective_resolution(M, max_length=i + 1)
    return _ext_from_resolution(C, N, i)


def ext_all(M: Representation, N: Representation) -> list[int]:
    C, _ = min_projective_resolution(M)
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
    p = field.p
    data = [[field.zero] * cols_dim for _ in range(rows_dim)]
    roff = 0
    for j, x in enumerate(dst_labels):
        coff = 0
        for k, y in enumerate(src_labels):
            c = scalar.rows[k][j]
            if c:
                pm = N.path_map(y, x)  # y <= x guaranteed by scalar legality
                # block (j, k) is c * pm; no other pair of labels writes there
                for a, pm_row in enumerate(pm.rows):
                    block = [c * v for v in pm_row]
                    data[roff + a][coff: coff + N.dims[y]] = [v % p for v in block] if p else block
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
    f = realize_scalar_map(P, U.field, "proj", amb1, amb0, d)
    Q, _ = f.cokernel()
    return Q


def coinduce(U: Representation, P: Poset, ids: list[int]) -> Representation:
    """Right adjoint of restriction, via the injective copresentation."""
    C, _ = _injective_complex(U, max_length=1)
    amb0 = tuple(ids[x] for x in C.labels[0])
    if C.length() == 0:
        return realize_labels(P, U.field, "inj", amb0)
    amb1 = tuple(ids[x] for x in C.labels[1])
    f = realize_scalar_map(P, U.field, "inj", amb0, amb1, C.mats[0])
    K, _ = f.kernel()
    return K
