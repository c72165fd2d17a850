"""Labeled complexes, minimal resolutions, Ext, the Nakayama functor, and tau.

A labeled complex records each term of a resolution as a multiset of element
ids: the term is the direct sum of the indecomposable projectives (or
injectives) at those elements.  Differentials are stored as scalar matrices
with respect to the canonical one-dimensional hom spaces between labeled
summands, which is exactly what makes the Nakayama functor a relabeling:
replace each projective label by the injective one and keep the scalars.
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
    top at x.  Each one generates a summand P(x) of the cover and is carried
    along path_map to every element above x.
    """
    P, field = M.poset, M.field
    gens: list[tuple[int, int]] = []
    for x in P.linear_extension():
        rad = [c for z in P.covers_below(x) for c in M.maps[(z, x)].columns()]
        cols = rad + Mat.identity(field, M.dims[x]).columns()
        _, pivots = Mat.from_columns(field, cols, M.dims[x]).rref()
        gens += [(x, p - len(rad)) for p in pivots if p >= len(rad)]
    labels = [x for x, _ in gens]
    blocks = []
    for w in P.elements():
        cols = [M.path_map(x, w).column(i) for x, i in gens if P.leq(x, w)]
        blocks.append(Mat.from_columns(field, cols, M.dims[w]))
    return labels, Morphism(realize_labels(P, field, "proj", labels), M, blocks)


def min_projective_resolution(M: Representation, max_length: int | None = None):
    """Minimal projective resolution as a labeled complex plus augmentation.

    With max_length set, the complex is truncated after that many syzygy
    steps (enough for presentations); otherwise it runs to exactness with a
    global-dimension safety bound of |P| + 1.
    """
    P = M.poset
    labels_list = []
    mats = []
    cur = M
    incl_to_prev: Morphism | None = None
    aug: Morphism | None = None
    step = 0
    while True:
        labels, cover = _cover_by_projectives(cur)
        labels_list.append(tuple(labels))
        if step == 0:
            aug = cover
        else:
            # scalar matrix of realize(labels) -> cur -> prev term
            comp = incl_to_prev.compose(cover)
            mats.append(_scalars_from_morphism(P, labels, labels_list[-2], comp))
        if step == max_length:
            break  # truncated: the next syzygy would go unread
        K, incl = cover.kernel()
        if K.is_zero():
            break
        if step == P.n + 1:
            raise PosetarError("resolution exceeded the global-dimension safety bound")
        cur = K
        incl_to_prev = incl
        step += 1
    C = LabeledComplex(P, M.field, "proj", tuple(labels_list), tuple(mats))
    _assert_min_resolution(C)
    return C, aug


def _scalars_from_morphism(P: Poset, src_labels, dst_labels, f: Morphism) -> Mat:
    """Recover the scalar matrix of a morphism between labeled sums of projectives.

    Summand j's canonical generator sits at its own label x; its image there
    holds the scalars of every dst summand nonzero at x.
    """
    field = f.source.field
    slay = _layout(P, "proj", src_labels)
    dlay = _layout(P, "proj", dst_labels)
    rows = [[field.zero] * len(src_labels) for _ in dst_labels]
    for j, x in enumerate(src_labels):
        vec = f.block(x).column(slay[x].index(j))
        for k, v in zip(dlay[x], vec):
            rows[k][j] = v
    return Mat(field, rows, len(dst_labels), len(src_labels))


def _assert_min_resolution(C: LabeledComplex) -> None:
    """Radical differentials: no unit scalar between equal labels' generators."""
    for i, m in enumerate(C.mats):
        src = C.labels[i + 1] if C.kind == "proj" else C.labels[i]
        dst = C.labels[i] if C.kind == "proj" else C.labels[i + 1]
        for k, y in enumerate(dst):
            for j, x in enumerate(src):
                if x == y and m.rows[k][j] != C.field.zero:
                    raise PosetarError("resolution is not minimal")


def min_injective_resolution(N: Representation, max_length: int | None = None):
    """Minimal injective resolution via duality, plus the coaugmentation."""
    D, Pop = dualize(N)
    C, aug = min_projective_resolution(D, max_length=max_length)
    P = N.poset
    mats = tuple(m.transpose() for m in C.mats)
    out = LabeledComplex(P, N.field, "inj", C.labels, mats)
    # coaugmentation: dual of aug, transported back to P
    coaug_blocks = [aug.block(x).transpose() for x in range(P.n)]
    I0 = realize_labels(P, N.field, "inj", C.labels[0])
    coaug = Morphism(N, I0, coaug_blocks)
    return out, coaug


def projective_presentation(M: Representation):
    """Labels (L1, L0) and scalar matrix of the minimal presentation."""
    C, aug = min_projective_resolution(M, max_length=1)
    if C.length() == 0:
        return None, C.labels[0], None
    return C.labels[1], C.labels[0], C.mats[0]


def is_projective(M: Representation) -> bool:
    if M.is_zero():
        return True
    _, cover = _cover_by_projectives(M)
    K, _ = cover.kernel()
    return K.is_zero()


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
    C, _ = min_injective_resolution(M, max_length=1)
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
    DTr, _ = dualize(TrM)
    # transport back onto the original poset object
    return Representation(M.poset, M.field, DTr.dims, DTr.maps, check=False)


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
    C, _ = min_injective_resolution(U, max_length=1)
    amb0 = tuple(ids[x] for x in C.labels[0])
    if C.length() == 0:
        return realize_labels(P, U.field, "inj", amb0)
    amb1 = tuple(ids[x] for x in C.labels[1])
    f = realize_scalar_map(P, U.field, "inj", amb0, amb1, C.mats[0])
    K, _ = f.kernel()
    return K
