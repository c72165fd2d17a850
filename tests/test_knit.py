import functools
import hashlib
import json
import random

import pytest
from conftest import glue_meshes_check

from posetar.corpus import corpus_ids, corpus_poset, star_poset
from posetar.errors import IsProjective, MeshMismatch, NotEmbeddable, NotIndecomposable, PosetarError, SplitFailure
from posetar.homalg import min_projective_resolution, tau
from posetar.ictree import TreeShape, build_tree, ic_decompose
from posetar.knit import (
    ARComponent,
    ARSequence,
    ar_sequence_end,
    embed_in_ZT,
    knit,
    wing_window,
)
from posetar import linalg
from posetar.linalg import QQ, Field, Mat
from posetar.poset import Poset, chain
from posetar.rep import (
    Morphism,
    Representation,
    _quotient_projection,
    direct_sum,
    hom,
    is_isomorphic,
    linear_combination,
    projective,
    radical,
    simple,
    socle,
)
from posetar.split import end_basis, end_radical_basis, is_indecomposable, split_indecomposables


def tree_of(P):
    return build_tree(ic_decompose(P), P)


def test_ar_sequence_chain2():
    P = chain(2)
    seq = ar_sequence_end(simple(P, 0))
    assert is_isomorphic(seq.tau_end, simple(P, 1))
    assert seq.middle_count() == 1
    assert is_isomorphic(seq.middles[0][0], projective(P, 0))


def test_ar_sequence_rejects_projective():
    P = chain(2)
    with pytest.raises(IsProjective):
        ar_sequence_end(projective(P, 0))


def test_ar_sequence_end_checks_projectivity_before_indecomposability():
    P = chain(3)
    with pytest.raises(IsProjective):
        ar_sequence_end(direct_sum([projective(P, 0), projective(P, 1)]))
    with pytest.raises(NotIndecomposable):
        ar_sequence_end(direct_sum([simple(P, 0), simple(P, 1)]))
    seq = ar_sequence_end(direct_sum([simple(P, 0), simple(P, 1)]), check_indecomposable=False)
    assert seq.tau_end.dims == (0, 1, 1)


def test_diamond_three_middle_mesh():
    P = corpus_poset("ex33-poset1")
    a, b = P.id_of("a"), P.id_of("b")
    Pa = projective(P, a)
    # P_a / P_b: quotient by the socle
    S, incl = socle(Pa)
    M, _ = incl.cokernel()
    seq = ar_sequence_end(M)
    assert seq.middle_count() == 3
    got = sorted(tuple(rep.dims) for rep, _ in seq.middles for _ in range(1))
    want = sorted([
        tuple(projective(P, a).dims),
        tuple(simple(P, P.id_of("1")).dims),
        tuple(simple(P, P.id_of("2")).dims),
    ])
    assert got == want
    R, _ = radical(Pa)
    assert is_isomorphic(seq.tau_end, R)


def test_knit_chain4_complete():
    P = chain(4)
    comp = knit(P)
    assert comp.status == "complete"
    assert len(comp.vertices) == 10  # one interval module per pair i <= j
    assert len(comp.projective_vertices()) == 4
    assert len(comp.injective_vertices()) == 4
    # every vertex is an interval module
    for v in comp.vertices:
        assert v.rep.is_thin_constant()


def test_component_notes_default_to_a_fresh_list():
    P = chain(1)
    a, b = (ARComponent(P, QQ, [], {}, {}, "complete") for _ in range(2))
    a.notes.append("note")
    assert b.notes == [] and a.meshes == 0


def test_knit_mesh_additivity():
    P = corpus_poset("ex33-poset1")
    comp = knit(P)
    assert comp.status == "complete"
    tau_inv = comp.tau_inv_map()
    for v, u in comp.tau_map.items():
        middles = comp.in_arrows(v)
        for x in P.elements():
            s = sum(comp.vertex(m).rep.dims[x] for m in middles)
            assert s == comp.vertex(v).rep.dims[x] + comp.vertex(u).rep.dims[x]
        # f_omega additivity is the omega coordinate of the same identity
        assert sum(comp.vertex(m).fomega for m in middles) == (
            comp.vertex(v).fomega + comp.vertex(u).fomega
        )


def test_knit_oracle_middles_match():
    P = star_poset(1, 2)
    comp = knit(P)
    assert comp.status == "complete"
    rng = random.Random(0)
    for v, u in comp.tau_map.items():
        M = comp.vertex(v).rep
        seq = ar_sequence_end(M, rng, check_indecomposable=False)
        got = sorted(
            tuple(comp.vertex(m).rep.dims) for m in comp.in_arrows(v)
        )
        want = sorted(
            tuple(rep.dims) for rep, mult in seq.middles for _ in range(mult)
        )
        assert got == want


def test_embed_chain4():
    P = chain(4)
    comp = knit(P)
    emb = embed_in_ZT(comp, tree_of(P))
    assert len(emb.coords) == len(comp.vertices)
    # four orbits, omega-side ones longest
    lengths = sorted(len(vids) for vids in emb.orbits.values())
    assert sum(lengths) == 10
    assert lengths == [1, 2, 3, 4]


def test_embed_p12():
    P = star_poset(1, 2)
    comp = knit(P)
    assert comp.status == "complete"
    emb = embed_in_ZT(comp, tree_of(P))
    assert len(emb.coords) == len(comp.vertices)


def test_embedding_rejects_two_tree_vertices_on_one_orbit():
    # on the chain 1 < 2, tau S(1) = S(2): one orbit holds the modules of both vertices
    P = chain(2)
    T = TreeShape(2, ((0, 1),), 0, supports={0: frozenset({1}), 1: frozenset({0})}, arrows=((0, 1),))
    with pytest.raises(NotEmbeddable, match="tree vertices 0 and 1 lie on one tau-orbit"):
        embed_in_ZT(knit(P), T)


def test_wing_exists_and_boundaries():
    P = star_poset(1, 2)
    comp = knit(P)
    T = tree_of(P)
    emb = embed_in_ZT(comp, T)
    window = wing_window(T)
    placed = {coord: vid for vid, coord in emb.coords.items()}
    for orbit, (lo, hi) in window.items():
        for lvl in range(lo, hi + 1):
            vid = placed.get((orbit, lvl))
            assert vid is not None, (orbit, lvl)
            v = comp.vertex(vid)
            if v.proj is not None:
                assert lvl == lo
            if v.inj is not None:
                assert lvl == hi


def test_glue_meshes_chain4():
    P = chain(4)
    report = glue_meshes_check(P)
    assert report.ok, report.details
    # criterion data: middle summands of the top mesh are (1,1,1,1) and (0,1,1,0)
    from posetar.knit import ar_sequence_end as arse
    from posetar.rep import radical as _rad, socle as _soc

    Pa = projective(P, 0)
    S, incl = _soc(Pa)
    PaSoc, _ = incl.cokernel()
    seq = arse(PaSoc)
    dims = sorted(tuple(rep.dims) for rep, _ in seq.middles)
    assert dims == [(0, 1, 1, 0), (1, 1, 1, 1)]
    R, _ = _rad(Pa)
    assert is_isomorphic(seq.tau_end, R)


def test_glue_meshes_sec4_nine():
    P = corpus_poset("sec4-nine")
    report = glue_meshes_check(P)
    assert report.ok, report.details


def test_glue_meshes_chain2_degenerate():
    P = chain(2)
    report = glue_meshes_check(P)
    assert report.top_mesh_ok


def test_knit_ex58_poset1():
    P = corpus_poset("ex58-poset1")
    comp = knit(P)
    assert comp.status == "complete"
    assert len(comp.projective_vertices()) == P.n
    assert len(comp.injective_vertices()) == P.n
    for v in comp.vertices:
        if v.proj is not None:
            assert v.fomega == 1
    emb = embed_in_ZT(comp, tree_of(P))
    lengths = {o: len(vids) for o, vids in emb.orbits.items()}
    assert sum(lengths.values()) == len(comp.vertices)


def test_single_point_component():
    from posetar.poset import chain as _chain

    P = _chain(1)
    comp = knit(P)
    assert comp.status == "complete"
    assert len(comp.vertices) == 1
    v = comp.vertex(0)
    assert v.proj is not None and v.inj is not None
    emb = embed_in_ZT(comp, tree_of(P))
    assert emb.coords[0] == (0, 0)


@pytest.mark.parametrize("source", ["star-2-2", "ex57", "ex33-poset3"])
def test_knit_over_gf5_matches_rationals(source):
    P = corpus_poset(source)
    assert knit(P, Field(5)).to_json() == knit(P).to_json()


# sha256 of the default knit's JSON plus every vertex module's JSON, cover maps
# included.  These pin the bases, not just the dimensions: re-record them only
# in a change that means to change the bases the algebra layers pick.
KNIT_DIGESTS = {
    "star-2-2": "a2d053071dec8f7e2f915b9177ceea7a7363af7025bdcea02d0f23f4ac2c10e6",
    "ex57": "508e1681b194744f5374372f2605084a1b7239ced2130295ce20ab60234a5ce8",
    "ex33-poset3": "1d9284d412bafc10de8a9745f151b6b7075e40668a24d55c98a3042a99b99474",
    "ex58-poset1": "fdf485a67980da9a694e413321cdcf25adf594d5c7c66482a5a7173a52ea99d8",
    "sec2-right": "abe868b4a26ed5c5efa67d865c3f3b026ae58c76f1ca54eaa8e64e6b5697c841",
}


@pytest.mark.parametrize("source", sorted(KNIT_DIGESTS))
def test_knit_bases_are_pinned(source):
    comp = knit(corpus_poset(source))
    blob = json.dumps(
        {"knit": comp.to_json(), "reps": [v.rep.to_json() for v in comp.vertices]},
        sort_keys=True,
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == KNIT_DIGESTS[source]


def _knit_blob(source: str, field: Field) -> str:
    """The JSON that KNIT_DIGESTS hashes, over the given field."""
    comp = knit(corpus_poset(source), field)
    return json.dumps(
        {"knit": comp.to_json(), "reps": [v.rep.to_json() for v in comp.vertices]},
        sort_keys=True,
    )


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
def test_knit_does_not_depend_on_the_memo_state(field):
    """The exact kernels' memos only replay results: a knit from empty memos,
    one after other posets and the other field have filled them, and one
    right after itself give the same JSON, bases included."""
    linalg._rref_memo.cache_clear()
    linalg._null_basis_memo.cache_clear()
    linalg._quotient_memo.cache_clear()
    cold = _knit_blob("ex57", field)
    if field == QQ:
        assert hashlib.sha256(cold.encode()).hexdigest() == KNIT_DIGESTS["ex57"]
    other = Field(5) if field == QQ else QQ
    for source, f in (("star-2-2", field), ("ex33-poset3", field), ("sec2-right", field), ("ex57", other)):
        _knit_blob(source, f)
    assert _knit_blob("ex57", field) == cold
    assert _knit_blob("ex57", field) == cold


# sha256 over the translate and the middle terms, with their multiplicities,
# of ar_sequence_end at every non-projective vertex of total dimension <= 14
# of these knits: 26 sequences, bases included.
AR_SEQUENCE_DIGEST = "a6e455de74876f29443dc1f0bb294f8aaa5d506b596fc13898788567360b76a7"


def test_ar_sequences_are_pinned():
    blob = []
    for source in ("star-2-2", "ex33-poset1"):
        for v in knit(corpus_poset(source)).vertices:
            if v.proj is None and v.rep.total_dim() <= 14:
                seq = ar_sequence_end(v.rep, random.Random(0))
                blob.append({
                    "tau": seq.tau_end.to_json(),
                    "middles": [[m.to_json(), mult] for m, mult in seq.middles],
                })
    assert len(blob) == 26
    assert hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest() == AR_SEQUENCE_DIGEST


# The budgets README gives for the corpus ids whose knits do not stop soon at
# the default budget.
README_BUDGETS = {"ex33-boxes4": 200, "ex58-poset2": 200, "sec2-left": 40, "sec4-nine": 40}


@functools.cache
def readme_knit(cid):
    return knit(corpus_poset(cid), max_meshes=README_BUDGETS.get(cid, 2000))


@pytest.mark.parametrize("cid", corpus_ids())
def test_in_arrows_match_the_arrow_scan(cid):
    """Every arrow runs from an older vertex to a newer one, and the meshes are
    knitted in the order their starting vertices were made: the premise and
    the result of processing the vertices in creation order."""
    comp = readme_knit(cid)
    for v in comp.vertices:
        got = comp.in_arrows(v.vid)
        assert got == [a for a, b in comp.arrows if b == v.vid]
        got.append(-1)  # a copy: the component is not changed through it
        assert comp.in_arrows(v.vid) == got[:-1]
    assert all(s < t for s, t in comp.arrows)
    starts = list(comp.tau_map.values())
    assert all(a < b for a, b in zip(starts, starts[1:]))


@pytest.mark.parametrize("cid", corpus_ids())
def test_knit_labels_and_attachments_match_the_thin_support(cid):
    """The labels are the cone points of each vertex's thin support, and P(x)
    hangs off the first emitted vertex that is k on the support of rad P(x)."""
    comp = readme_knit(cid)
    P = comp.poset
    omega = P.unique_min_max()[1]
    for v in comp.vertices:
        sup = v.rep.support() if v.rep.is_thin_constant() else None
        assert v.proj == next((x for x in sup or () if P.up_set(x) == sup), None)
        assert v.inj == next((x for x in sup or () if P.down_set(x) == sup), None)
    emitted_at = comp.tau_inv_map()  # vid -> vid of its inverse translate, in emission order
    attached_from = {}
    for v in comp.vertices:
        if v.proj is not None and v.proj != omega:
            (u,) = comp.in_srcs[v.vid]
            U = comp.vertex(u).rep
            assert U.is_thin_constant() and U.support() == P.strict_up(v.proj)
            attached_from[v.proj] = u
    for u in emitted_at:
        U = comp.vertex(u).rep
        if U.is_thin_constant():
            for x in P.elements():
                if x != omega and P.strict_up(x) == U.support():
                    assert emitted_at[attached_from[x]] <= emitted_at[u]


# The route ar_sequence_end took before it worked on the Ext complex: the
# syzygy K as a kernel of the cover, bases of Hom(K, tau M) and Hom(P0, tau M),
# and each radical endomorphism of M lifted through the cover and restricted
# to K.  It picks another element of the socle of Ext^1(M, tau M), so its
# middle terms are isomorphic to the new ones, in other bases.


def _almost_split(M: Representation, cover: Morphism, tM: Representation) -> ARSequence:
    """The almost split sequence ending at the non-projective indecomposable M,
    from its projective cover and its translate tM."""
    if tM.is_zero():
        raise PosetarError("translate vanished for a non-projective module")
    field = M.field
    P0rep = cover.source
    K, incl = cover.kernel()

    ext_basis = hom(K, tM)
    if not ext_basis:
        raise PosetarError("no extensions found for a non-projective module")
    flat_dim = len(ext_basis[0].flat())
    B = Mat.from_columns(field, [f.flat() for f in ext_basis], flat_dim)
    lifted = hom(P0rep, tM)
    image_cols = []
    for h in lifted:
        coords = B.solve(Mat.from_columns(field, [h.compose(incl).flat()], flat_dim))
        if coords is None:
            raise PosetarError("restriction left the extension space")
        image_cols.append(coords.column(0))
    Qproj, _ = _quotient_projection(field, Mat.from_columns(field, image_cols, len(ext_basis)), len(ext_basis))
    if Qproj.r == 0:
        raise PosetarError("Ext^1(M, tau M) vanished unexpectedly")

    # socle of the End(M) action on the extension space
    constraints: list[Mat] = []
    ends = end_basis(M)
    if len(ends) > 1:
        for rv in end_radical_basis(M, ends):
            r = linear_combination(ends, rv)
            omega_r = _restrict_endo(cover, incl, r)
            cols = []
            for e in ext_basis:
                comp = e.compose(omega_r)
                coords = B.solve(Mat.from_columns(field, [comp.flat()], flat_dim))
                if coords is None:
                    raise PosetarError("End action left the extension space")
                cols.append(coords.column(0))
            A = Mat.from_columns(field, cols, len(ext_basis))
            constraints.append(Qproj.mul(A))
    if constraints:
        stacked = constraints[0]
        for c in constraints[1:]:
            stacked = stacked.vstack(c)
        sol = stacked.nullspace()
    else:
        sol = [tuple(field.one if i == j else field.zero for i in range(len(ext_basis)))
               for j in range(len(ext_basis))]
    chosen = None
    for v in sol:
        if not Qproj.mul(Mat.from_columns(field, [v], len(ext_basis))).is_zero():
            chosen = v
            break
    if chosen is None:
        raise PosetarError("socle of the extension space is trivial")
    psi = linear_combination(ext_basis, chosen)

    # pushout along psi: E = (tM + P0) / {(psi w, -w)}.  The basis of the sum
    # at x lists tM(x) before P0(x), so its cover maps are block diagonal and
    # g: K -> tM + P0 has the blocks [psi_x ; -incl_x].
    z = field.zero
    maps = {}
    for (x, y) in M.poset.covers:
        a, b = tM.maps[(x, y)], P0rep.maps[(x, y)]
        rows = [r + (z,) * b.c for r in a.rows] + [(z,) * a.c + r for r in b.rows]
        maps[(x, y)] = Mat(field, rows, a.r + b.r, a.c + b.c)
    S = Representation(M.poset, field, [s + t for s, t in zip(tM.dims, P0rep.dims)], maps)
    neg = field.of_int(-1)
    g = Morphism(K, S, [psi.block(x).vstack(incl.block(x).scale(neg)) for x in M.poset.elements()])
    E, _ = g.cokernel()
    middles = split_indecomposables(E)
    seq = ARSequence(tM, middles, M)
    if seq.middle_dims() != tuple(
        tM.dims[x] + M.dims[x] for x in M.poset.elements()
    ):
        raise MeshMismatch("middle of the almost split sequence has wrong dimensions")
    return seq


def _restrict_endo(cover: Morphism, incl: Morphism, r: Morphism) -> Morphism:
    """Lift r through the projective cover, then restrict to the syzygy."""
    P0rep = cover.source
    lift_space = hom(P0rep, P0rep)
    field = P0rep.field
    target = r.compose(cover)
    flat_dim = len(target.flat())
    cols = [cover.compose(h).flat() for h in lift_space]
    A = Mat.from_columns(field, cols, flat_dim)
    sol = A.solve(Mat.from_columns(field, [target.flat()], flat_dim))
    if sol is None:
        raise PosetarError("projective lifting failed")
    f0 = linear_combination(lift_space, sol.column(0))
    K = incl.source
    blocks = []
    for x in P0rep.poset.elements():
        rhs = f0.block(x).mul(incl.block(x))
        b = incl.block(x).solve(rhs)
        if b is None:
            raise PosetarError("endomorphism does not preserve the syzygy")
        blocks.append(b)
    return Morphism(K, K, blocks)


def _reference_ar_sequence_end(M):
    """ar_sequence_end by the syzygy route, with the projective cover and
    tau M computed apart, one presentation each."""
    _, cover = min_projective_resolution(M, max_length=0)
    K, _ = cover.kernel()
    if K.is_zero():
        raise IsProjective("no almost split sequence ends at a projective")
    assert is_indecomposable(M)
    return _almost_split(M, cover, tau(M))


def _assert_same_module(got, want):
    assert got.dims == want.dims
    assert got.maps == want.maps


def _assert_same_sequence(got, want):
    # tau M comes from the same presentation on both routes; the middles are
    # cokernels of different representatives of the socle, so only their
    # isomorphism classes agree
    _assert_same_module(got.tau_end, want.tau_end)
    assert [m for _, m in got.middles] == [m for _, m in want.middles]
    assert [a.dims for a, _ in got.middles] == [b.dims for b, _ in want.middles]
    for (a, _), (b, _) in zip(got.middles, want.middles):
        assert is_isomorphic(a, b)


@pytest.mark.parametrize("source", ["star-2-2", "ex57", "ex33-poset3", "ex58-poset1", "sec2-right"])
@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
def test_ar_sequence_end_matches_separate_cover_and_tau(source, field):
    comp = knit(corpus_poset(source), field)
    for v in comp.vertices:
        if v.proj is not None:
            with pytest.raises(IsProjective):
                ar_sequence_end(v.rep)
            continue
        got = ar_sequence_end(v.rep, random.Random(0))
        want = _reference_ar_sequence_end(v.rep)
        _assert_same_sequence(got, want)


FOUR_SUBSPACE = Poset(["a", "b", "c", "d", "m"], [(0, 4), (1, 4), (2, 4), (3, 4)])


def _four_subspace_tube(n, field=QQ, twisted=False):
    """Quasi-length n in the homogeneous tube at 2 of the four-subspace poset.

    Four minimal elements lie below one maximum, where the module is
    V = k^2 (x) k[t]/t^n.  Below it sit e1, e2, e1 + e2 and the graph of
    2I + N, with N the nilpotent shift; End is k[t]/t^n.  Twisted, each
    minimal element has the basis of the lower unitriangular all-ones
    matrix instead, which gives an isomorphic module.
    """
    zero, eye = Mat.zero(field, n, n), Mat.identity(field, n)
    shift = Mat(field, [[field.one if j == i + 1 else field.zero for j in range(n)] for i in range(n)], n, n)
    graphs = [(eye, zero), (zero, eye), (eye, eye), (eye, eye.scale(field.of_int(2)).add(shift))]
    base = Mat(field, [[field.one if j <= i else field.zero for j in range(n)] for i in range(n)], n, n)
    maps = {(x, 4): top.vstack(bottom).mul(base if twisted else eye) for x, (top, bottom) in enumerate(graphs)}
    return Representation(FOUR_SUBSPACE, field, [n, n, n, n, 2 * n], maps)


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ar_sequence_in_a_homogeneous_tube(n, twisted):
    # tau fixes the tube, and the middle of the sequence ending at
    # quasi-length n has quasi-lengths n - 1 and n + 1.  From n = 2 on, End of
    # tau M is not one-dimensional and its radical picks the socle: in the
    # twisted basis the first extension outside the coboundaries is a
    # generator of Ext^1, whose middle would be quasi-length 2n alone
    M = _four_subspace_tube(n, twisted=twisted)
    seq = ar_sequence_end(M, random.Random(0))
    assert is_isomorphic(seq.tau_end, M)
    lengths = [k for k in (n - 1, n + 1) if k]
    assert [(rep.dims, m) for rep, m in seq.middles] == [((k,) * 4 + (2 * k,), 1) for k in lengths]
    for (rep, _), k in zip(seq.middles, lengths):
        assert is_isomorphic(rep, _four_subspace_tube(k))
    _assert_same_sequence(seq, _reference_ar_sequence_end(M))


@pytest.mark.parametrize("n", [2, 3])
def test_ar_sequence_in_a_homogeneous_tube_needs_characteristic_zero(n):
    # the trace-form radical of End(tau M) is not trusted over GF(p)
    with pytest.raises(SplitFailure, match="characteristic 0"):
        ar_sequence_end(_four_subspace_tube(n, Field(5)), check_indecomposable=False)
