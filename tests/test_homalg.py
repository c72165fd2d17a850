import random

import pytest
from conftest import (
    assert_natural,
    is_surjective,
    random_ic_family,
    tau_commutes_with_restriction_check,
    two_walk_presentation,
)

from posetar.corpus import corpus_poset, star_poset
from posetar.clamped import enumerate_clamped
from posetar.homalg import (
    LabeledComplex,
    _assert_min_resolution,
    _dual_rows,
    _layout,
    _resolve,
    _rows,
    _scalar_blocks,
    coinduce,
    ext,
    ext_all,
    induce,
    is_projective,
    min_injective_resolution,
    min_projective_resolution,
    projective_presentation,
    realize_labels,
    realize_scalar_map,
    tau,
    tau_inverse,
    transpose_dual_tau,
)
from posetar.knit import knit
from posetar.corpus import corpus_ids
from posetar.errors import PosetarError
from posetar.linalg import QQ, Field, Mat
from posetar.poset import Poset, chain
from posetar.rep import (
    Morphism,
    Representation,
    _quotient_rep,
    constant_on,
    direct_sum,
    dualize,
    injective,
    is_isomorphic,
    projective,
    radical,
    restrict,
    simple,
    top,
)


# -- the step chain that min_projective_resolution replaces, as a reference --


def _scalars_from_morphism(P, src_labels, dst_labels, f):
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


def _reference_cover(M):
    """Cover from rref[radical | I] per element, blocks read off path_map."""
    P, field = M.poset, M.field
    gens = []
    for x in P.linear_extension():
        rad = [c for z in P.covers_below(x) for c in M.maps[(z, x)].columns()]
        cols = rad + Mat.identity(field, M.dims[x]).columns()
        _, pivots = Mat.from_columns(field, cols, M.dims[x]).rref()
        gens += [(x, p - len(rad)) for p in pivots if p >= len(rad)]
    labels = [x for x, _ in gens]
    blocks = [
        Mat.from_columns(field, [M.path_map(x, w).column(i) for x, i in gens if P.leq(x, w)], M.dims[w])
        for w in P.elements()
    ]
    return labels, Morphism(realize_labels(P, field, "proj", labels), M, blocks)


def _reference_resolution(M, max_length=None):
    """cover -> kernel -> cover of the syzygy -> compose -> scalars, step by step."""
    P = M.poset
    labels_list, mats = [], []
    cur, incl_to_prev, step = M, None, 0
    while True:
        labels, cover = _reference_cover(cur)
        labels_list.append(tuple(labels))
        if step == 0:
            aug = cover
        else:
            comp = incl_to_prev.compose(cover)
            mats.append(_scalars_from_morphism(P, labels, labels_list[-2], comp))
        if step == max_length:
            break
        K, incl = cover.kernel()
        if K.is_zero():
            break
        if step == P.n + 1:
            raise PosetarError("resolution exceeded the global-dimension safety bound")
        cur, incl_to_prev, step = K, incl, step + 1
    C = LabeledComplex(P, M.field, "proj", tuple(labels_list), tuple(mats))
    _assert_min_resolution(C.labels, [m.rows for m in C.mats])
    return C, aug


def _assert_resolution_matches_reference(M):
    for max_length in (None, 1):
        C, aug = min_projective_resolution(M, max_length=max_length)
        R, raug = _reference_resolution(M, max_length=max_length)
        assert C.labels == R.labels
        assert C.mats == R.mats
        assert aug.blocks == raug.blocks and aug.source.maps == raug.source.maps


def _assert_cover_blocks_are_path_maps(M):
    # generator j's column at its label x is the unit vector e_i it lifts,
    # and its column at w >= x is path_map(x, w) e_i
    P = M.poset
    C, cover = min_projective_resolution(M, max_length=0)
    labels = C.labels[0]
    lay = _layout(P, "proj", labels)
    for j, x in enumerate(labels):
        unit = cover.block(x).column(lay[x].index(j))
        assert sorted(unit) == [0] * (len(unit) - 1) + [1]
        i = unit.index(1)
        for w in P.elements():
            if P.leq(x, w):
                assert cover.block(w).column(lay[w].index(j)) == M.path_map(x, w).column(i)


FIELDS = [QQ, Field(5)]


@pytest.mark.parametrize("source", ["star-2-2", "ex57", "ex33-poset3"])
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_resolution_matches_step_chain_on_knit_vertices(source, field):
    P = corpus_poset(source)
    comp = knit(P, field)
    assert comp.status == "complete"
    for v in comp.vertices:
        _assert_resolution_matches_reference(v.rep)
        _assert_cover_blocks_are_path_maps(v.rep)


@pytest.mark.parametrize("cid", corpus_ids())
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_resolution_matches_step_chain_on_simples_projectives_injectives(cid, field):
    P = corpus_poset(cid)
    for x in P.elements():
        for make in (simple, projective, injective):
            M = make(P, x, field)
            _assert_resolution_matches_reference(M)
            _assert_cover_blocks_are_path_maps(M)


@pytest.mark.parametrize("source", ["star-2-2", "ex57", 4, 5])
def test_projective_cover_matches_top(source):
    # every indecomposable of a knitted component: one label per dimension of
    # the top, a surjective cover, and a kernel of the complementary dimension
    P = corpus_poset(source) if isinstance(source, str) else random_ic_family()[source]
    for v in knit(P).vertices:
        M = v.rep
        C, cover = min_projective_resolution(M, max_length=0)
        labels = C.labels[0]
        assert tuple(labels.count(x) for x in P.elements()) == top(M)[0].dims
        assert is_surjective(cover)
        K, _ = cover.kernel()
        assert K.total_dim() == cover.source.total_dim() - M.total_dim()


def _label_multisets(P):
    # the empty sum, every element once, plus repeats of the minimum, the maximum and a middle element
    lo, hi = P.unique_min_max()
    mid = P.linear_extension()[P.n // 2]
    return [(), (lo,), tuple(P.elements()), (mid, hi, mid, lo, mid), (hi, hi, lo, lo)]


@pytest.mark.parametrize("source", ["ex57", "star-2-2"])
@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
@pytest.mark.parametrize("kind", ["proj", "inj"])
def test_realize_labels_matches_direct_sum(source, field, kind):
    P = corpus_poset(source)
    summand = projective if kind == "proj" else injective
    for labels in _label_multisets(P):
        S = realize_labels(P, field, kind, labels)
        if labels:
            oracle = direct_sum([summand(P, x, field) for x in labels])
        else:
            oracle = Representation(P, field, [0] * P.n, {})
        assert S.dims == oracle.dims
        assert S.maps == oracle.maps


@pytest.mark.parametrize("source", ["ex57", "star-2-2"])
@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
def test_scalars_round_trip_through_realize_scalar_map(source, field):
    # legal entries get varied scalars (zero where 5 divides them over GF(5)); illegal ones stay zero
    P = corpus_poset(source)
    for src in _label_multisets(P):
        for dst in _label_multisets(P):
            rows = [
                [field.of_int(1 + k + 2 * j) if P.leq(y, x) else field.zero for j, x in enumerate(src)]
                for k, y in enumerate(dst)
            ]
            S = Mat(field, rows, len(dst), len(src))
            f = realize_scalar_map(P, field, "proj", src, dst, S)
            assert_natural(f)
            assert _scalars_from_morphism(P, src, dst, f) == S


def test_tau_inverse_cokernel_projection_is_natural_and_onto():
    P = corpus_poset("star-2-2")
    checked = 0
    for v in knit(P).vertices:
        C, _ = min_injective_resolution(v.rep, max_length=1)
        if C.length() == 0:
            continue
        nu_inv = realize_scalar_map(P, v.rep.field, "proj", C.labels[0], C.labels[1], C.mats[0])
        Q, proj = nu_inv.cokernel()
        assert_natural(proj)
        assert is_surjective(proj)
        assert Q.dims == tau_inverse(v.rep).dims
        checked += 1
    assert checked > 0


def test_resolution_of_projective_has_length_zero():
    P = corpus_poset("ex58-poset1")
    C, aug = min_projective_resolution(projective(P, 2))
    assert C.length() == 0
    assert aug.is_isomorphism()


def test_resolution_of_simple_on_chain2():
    P = chain(2)
    M = simple(P, P.id_of("1"))
    C, _ = min_projective_resolution(M)
    assert C.length() == 1
    assert [tuple(P.names[x] for x in lab) for lab in C.labels] == [("1",), ("2",)]


def test_resolution_exactness_and_support_in_clamped_interval():
    # support theorem: modules supported on [a,b) of a clamped [a,b] resolve
    # with labels inside [a,b]
    P = chain(4)
    a, b = P.id_of("2"), P.id_of("3")
    M = simple(P, a)
    C, _ = min_projective_resolution(M)
    iv = P.closed_interval(a, b)
    for lab in C.labels:
        assert all(x in iv for x in lab)
    assert [tuple(P.names[x] for x in lab) for lab in C.labels] == [("2",), ("3",)]


def test_injective_resolution_of_injective():
    P = corpus_poset("ex33-poset1")
    C, coaug = min_injective_resolution(injective(P, P.id_of("1")))
    assert C.length() == 0
    assert coaug.is_isomorphism()


def test_injective_resolution_chain2():
    P = chain(2)
    w = P.id_of("2")
    N = simple(P, w)
    C, _ = min_injective_resolution(N)
    assert C.length() == 1
    assert [tuple(P.names[x] for x in lab) for lab in C.labels] == [("2",), ("1",)]


def test_ext_projective_vanishes():
    P = corpus_poset("ex33-poset2")
    M = projective(P, P.id_of("2"))
    N = constant_on(P, P.closed_interval(P.id_of("a"), P.id_of("3")))
    assert ext(M, N, 1) == 0
    assert ext(M, N, 2) == 0


def test_ext_simple_extension_on_chain2():
    P = chain(2)
    assert ext(simple(P, 0), simple(P, 1), 1) == 1
    assert ext(simple(P, 0), simple(P, 1), 0) == 0


def test_ext_degree_zero_is_hom():
    P = corpus_poset("ex58-poset1")
    M = projective(P, P.id_of("alpha"))
    assert ext(M, M, 0) == 1


def test_tau_of_projective_absent():
    P = corpus_poset("ex57")
    assert tau(projective(P, P.id_of("gamma"))) is None


def test_tau_inverse_of_injective_absent():
    P = corpus_poset("ex57")
    assert tau_inverse(injective(P, P.id_of("gamma"))) is None


def test_tau_values_on_two_clamped_chains():
    # P(2,2): chains beta<delta and gamma<epsilon between alpha and omega;
    # tau sends the simple at the top of one chain to the projective at the
    # bottom of the other.
    P = star_poset(2, 2)
    beta, delta = P.id_of("c1_1"), P.id_of("c1_2")
    gamma, eps = P.id_of("c2_1"), P.id_of("c2_2")
    t1 = tau(simple(P, eps))
    assert t1 is not None and is_isomorphic(t1, projective(P, beta))
    t2 = tau(simple(P, delta))
    assert t2 is not None and is_isomorphic(t2, projective(P, gamma))


def test_tau_along_clamped_chain():
    # clamped chain a<b<c: tau k_a = k_b, tau k_b = k_c
    P = star_poset(3)
    a, b, c = P.id_of("c1_1"), P.id_of("c1_2"), P.id_of("c1_3")
    assert is_isomorphic(tau(simple(P, a)), simple(P, b))
    assert is_isomorphic(tau(simple(P, b)), simple(P, c))
    back = tau_inverse(simple(P, b))
    assert is_isomorphic(back, simple(P, a))


def test_tau_oracle_agreement():
    P = corpus_poset("ex58-poset1")
    a, w = P.unique_min_max()
    cases = [
        simple(P, P.id_of("gamma")),
        constant_on(P, P.closed_interval(P.id_of("beta"), P.id_of("epsilon"))),
        top(projective(P, a))[0],
    ]
    R, _ = radical(projective(P, a))
    cases.append(R)
    for M in cases:
        t1 = tau(M)
        t2 = transpose_dual_tau(M)
        if t1 is None:
            assert t2 is None or t2.is_zero()
        else:
            assert is_isomorphic(t1, t2)


@pytest.mark.parametrize("source", ["star-2-2", "ex57", "ex33-poset3"])
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_tau_duality_with_dualize(source, field):
    # dualize(tau(M)) over the opposite poset is tau_inverse(dualize(M)); tau is
    # the Nakayama kernel and tau_inverse the transpose, so the routes are independent
    P = corpus_poset("ex58-poset2")
    mods = [simple(P, P.id_of("gamma"), field)] + [v.rep for v in knit(corpus_poset(source), field).vertices]
    for M in mods:
        t = tau(M)
        ti = tau_inverse(dualize(M)[0])
        if t is None:
            assert ti is None
            continue
        Dt, _ = dualize(t)
        assert Dt.dims == ti.dims
        assert is_isomorphic(ti, Dt)


def test_tau_mesh_dimension_identity_chain4():
    # mesh ending at k_a for the chain: dim tau + dim M = dim middle
    P = chain(2)
    ka = simple(P, 0)
    t = tau(ka)
    assert t is not None
    assert is_isomorphic(t, simple(P, 1))


def test_induction_of_projective_is_projective():
    P = corpus_poset("ex57")
    iv = P.closed_interval(P.id_of("gamma"), P.id_of("eta"))
    M = constant_on(P, iv)
    R, sub, ids = restrict(M, iv)
    # P_x over the interval induces to P_x over the poset
    px = projective(sub, 0)
    up = induce(px, P, ids)
    assert is_isomorphic(up, projective(P, ids[0]))


def test_coinduction_of_injective_is_injective():
    P = corpus_poset("ex57")
    iv = P.closed_interval(P.id_of("gamma"), P.id_of("eta"))
    sub, ids = P.induced(iv)
    ix = injective(sub, len(ids) - 1)
    down = coinduce(ix, P, ids)
    assert is_isomorphic(down, injective(P, ids[-1]))


def test_clamped_induced_restrict_roundtrip():
    # on a clamped [a,b], a module supported on [a,b) is induced from [a,b]
    P = chain(4)
    a, b = P.id_of("2"), P.id_of("3")
    M = simple(P, a)
    R, sub, ids = restrict(M, P.closed_interval(a, b))
    back = induce(R, P, ids)
    assert is_isomorphic(back, M)


def test_projectivity_tests():
    P = corpus_poset("ex33-poset1")
    assert is_projective(projective(P, 0))
    assert not is_projective(simple(P, P.id_of("a")))


def test_euler_pairing_two_routes():
    # sum_i (-1)^i ext(M,N,i) equals the bilinear form induced by dimension
    # vectors through the labeled resolutions of the simples
    P = corpus_poset("ex33-poset2")
    a = P.id_of("a")
    M = top(projective(P, a))[0]
    R, _ = radical(projective(P, a))
    N = R
    lhs = 0
    for i, d in enumerate(ext_all(M, N)):
        lhs += (-1) ** i * d
    # independent route: Euler form via resolutions of simples
    euler = 0
    for x in P.elements():
        if M.dims[x] == 0:
            continue
        C, _ = min_projective_resolution(simple(P, x))
        for i, lab in enumerate(C.labels):
            for y in lab:
                euler += (-1) ** i * M.dims[x] * N.dims[y]
    assert lhs == euler


def test_tau_restriction_commutation_named_op():
    from posetar.errors import NotIndecomposable
    from posetar.rep import direct_sum

    P = chain(4)
    a, b = P.id_of("2"), P.id_of("3")
    assert tau_commutes_with_restriction_check(P, a, b, simple(P, a))

    S = direct_sum([simple(P, a), simple(P, a)])
    with pytest.raises(NotIndecomposable):
        tau_commutes_with_restriction_check(P, a, b, S)

    big = corpus_poset("sec4-nine")
    lo, hi = big.id_of("a"), big.id_of("z")
    M = constant_on(big, big.closed_interval(lo, hi) - {hi})
    assert tau_commutes_with_restriction_check(big, lo, hi, M)


def test_induce_restrict_unit_iso():
    P = corpus_poset("ex57")
    iv = P.closed_interval(P.id_of("gamma"), P.id_of("eta"))
    sub, ids = P.induced(iv)
    for U in (simple(sub, 1), projective(sub, 0), injective(sub, 2)):
        up = induce(U, P, ids)
        back, _, _ = restrict(up, iv)
        assert is_isomorphic(back, U)


def test_induce_hom_adjunction_shadow():
    from posetar.rep import hom_dim

    P = corpus_poset("sec4-nine")
    lo, hi = P.id_of("a"), P.id_of("z")
    iv = P.closed_interval(lo, hi)
    sub, ids = P.induced(iv)
    cases_u = [simple(sub, 0), projective(sub, 1)]
    cases_m = [projective(P, P.id_of("alpha")), injective(P, P.id_of("q2"))]
    for U in cases_u:
        up = induce(U, P, ids)
        for M in cases_m:
            r, _, _ = restrict(M, iv)
            assert hom_dim(up, M) == hom_dim(U, r)


def test_induce_coinduce_agree_on_open_interval_support():
    # on a clamped interval, modules supported strictly inside induce and
    # coinduce to isomorphic modules
    P = chain(4)
    lo, hi = P.id_of("1"), P.id_of("4")
    iv = P.closed_interval(lo, hi)
    sub, ids = P.induced(iv)
    inner = simple(sub, 1)  # supported on the open part
    up = induce(inner, P, ids)
    down = coinduce(inner, P, ids)
    assert is_isomorphic(up, down)

    big = corpus_poset("sec4-nine")
    a, z = big.id_of("a"), big.id_of("z")
    sub2, ids2 = big.induced(big.closed_interval(a, z))
    mid = constant_on(sub2, sub2.closed_interval(sub2.id_of("p1"), sub2.id_of("p2")))
    assert is_isomorphic(induce(mid, big, ids2), coinduce(mid, big, ids2))


def test_injective_resolution_support_in_clamped_interval():
    # modules supported on (a,b] of a clamped [a,b] coresolve inside [a,b]
    P = chain(4)
    a, b = P.id_of("2"), P.id_of("3")
    N = simple(P, b)
    C, _ = min_injective_resolution(N)
    iv = P.closed_interval(a, b)
    assert all(x in iv for lab in C.labels for x in lab)

    big = corpus_poset("sec4-nine")
    lo, hi = big.id_of("a"), big.id_of("z")
    half = big.closed_interval(lo, hi) - {lo}
    M = constant_on(big, half)
    C2, _ = min_injective_resolution(M)
    members = big.closed_interval(lo, hi)
    assert all(x in members for lab in C2.labels for x in lab)


# -- the realized chain that the labeled translates replace, as a reference --


def _reference_tau(M):
    L1, L0, d = projective_presentation(M)
    if L1 is None:
        return None
    K, _ = realize_scalar_map(M.poset, M.field, "inj", L1, L0, d).kernel()
    return K


def _reference_tau_inverse(M):
    C, _ = min_injective_resolution(M, max_length=1)
    if C.length() == 0:
        return None
    Q, _ = realize_scalar_map(M.poset, M.field, "proj", C.labels[0], C.labels[1], C.mats[0]).cokernel()
    return Q


def _reference_transpose_dual_tau(M):
    L1, L0, d = projective_presentation(M)
    if L1 is None:
        return None
    TrM, _ = realize_scalar_map(M.poset.opposite(), M.field, "proj", L0, L1, d.transpose()).cokernel()
    return dualize(TrM)[0]


def _reference_induce(U, P, ids):
    L1, L0, d = projective_presentation(U)
    amb0 = tuple(ids[x] for x in L0)
    if L1 is None:
        return realize_labels(P, U.field, "proj", amb0)
    Q, _ = realize_scalar_map(P, U.field, "proj", tuple(ids[x] for x in L1), amb0, d).cokernel()
    return Q


def _reference_coinduce(U, P, ids):
    C, _ = min_injective_resolution(U, max_length=1)
    amb0 = tuple(ids[x] for x in C.labels[0])
    if C.length() == 0:
        return realize_labels(P, U.field, "inj", amb0)
    K, _ = realize_scalar_map(P, U.field, "inj", amb0, tuple(ids[x] for x in C.labels[1]), C.mats[0]).kernel()
    return K


def _assert_same_module(got, want):
    if want is None:
        assert got is None
        return
    assert got.poset.covers == want.poset.covers
    assert got.dims == want.dims
    assert got.maps == want.maps


TRANSLATES = [
    (tau, _reference_tau),
    (tau_inverse, _reference_tau_inverse),
    (transpose_dual_tau, _reference_transpose_dual_tau),
]


def _assert_translates_match_reference(M):
    for op, ref in TRANSLATES:
        _assert_same_module(op(M), ref(M))


@pytest.mark.parametrize("source", ["star-2-2", "ex57", "ex33-poset3"])
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_translates_match_realized_chain_on_knit_vertices(source, field):
    comp = knit(corpus_poset(source), field)
    for v in comp.vertices:
        _assert_translates_match_reference(v.rep)


@pytest.mark.parametrize("cid", corpus_ids())
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_translates_match_realized_chain_on_simples_projectives_injectives(cid, field):
    P = corpus_poset(cid)
    for x in P.elements():
        for make in (simple, projective, injective):
            _assert_translates_match_reference(make(P, x, field))


@pytest.mark.parametrize("cid", corpus_ids())
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_induce_coinduce_match_realized_chain_on_clamped_intervals(cid, field):
    # every simple, projective and injective of each proper clamped interval,
    # induced and coinduced back to the whole poset
    P = corpus_poset(cid)
    for iv in enumerate_clamped(P):
        if iv.low == iv.high:
            continue
        sub, ids = P.induced(iv.members(P))
        for y in sub.elements():
            for make in (simple, projective, injective):
                U = make(sub, y, field)
                _assert_same_module(induce(U, P, ids), _reference_induce(U, P, ids))
                _assert_same_module(coinduce(U, P, ids), _reference_coinduce(U, P, ids))


def _assert_truncation_is_the_cut_resolution(M):
    full, aug = min_projective_resolution(M)
    for k in (1, 2):
        C, caug = min_projective_resolution(M, max_length=k)
        assert C.labels == full.labels[: k + 1]
        assert C.mats == full.mats[:k]
        assert caug.blocks == aug.blocks and caug.source.maps == aug.source.maps


@pytest.mark.parametrize("cid", corpus_ids())
def test_truncated_resolution_is_the_full_one_cut(cid):
    P = corpus_poset(cid)
    for field in FIELDS:
        for x in P.elements():
            for make in (simple, projective, injective):
                _assert_truncation_is_the_cut_resolution(make(P, x, field))


@pytest.mark.parametrize("source", ["star-2-2", "ex57"])
def test_truncated_resolution_is_the_full_one_cut_on_knit_vertices(source):
    for v in knit(corpus_poset(source)).vertices:
        _assert_truncation_is_the_cut_resolution(v.rep)


def test_cokernel_checks_the_factorisation():
    # on the chain 1 < 2 a "map" into P(1) hitting all of P(1) at 1 and none
    # of it at 2 has no image subrepresentation, so nothing factors; every
    # cokernel, labeled or realized, induces its maps through this one check
    P = chain(2)
    P1 = projective(P, P.id_of("1"))
    blocks = [Mat(QQ, [[1]], 1, 1), Mat(QQ, [[0]], 1, 1)]
    with pytest.raises(PosetarError, match="factor"):
        Morphism(P1, P1, blocks).cokernel()


# The labelled helpers on rows keep every check of the realized route.


def test_quotient_rep_checks_the_factorization_on_rows():
    # chain 1 < 2: q_1 projects k^2 onto its first coordinate, q_2 is the
    # identity of k; the induced map reads m at the pivot of q_1, and m must
    # vanish on the kernel of q_1 (its second column) to factor
    P = chain(2)
    quots = [(((1, 0),), (0,)), (((1,),), (0,))]
    C = _quotient_rep(P, QQ, quots, lambda x, y, q_y: ((3, 0),))
    assert C.dims == (1, 1) and C.maps[(0, 1)].rows == ((3,),)
    with pytest.raises(PosetarError, match="map does not factor through quotient"):
        _quotient_rep(P, QQ, quots, lambda x, y, q_y: ((0, 1),))


def test_scalar_blocks_check_the_canonical_maps():
    # P(2) is a summand of P(1) on the chain 1 < 2, so P(2) -> P(1) carries
    # scalars and P(1) -> P(2) does not
    P = chain(2)
    a, b = P.id_of("1"), P.id_of("2")
    lay_a, lay_b = _layout(P, "proj", (a,)), _layout(P, "proj", (b,))
    assert _scalar_blocks(P, (b,), (a,), lay_b, lay_a, ((2,),))[b] == ((2,),)
    with pytest.raises(PosetarError, match="scalar entry on a non-existent canonical map"):
        _scalar_blocks(P, (a,), (b,), lay_a, lay_b, ((1,),))


def test_min_resolution_check_rejects_a_unit_between_equal_labels():
    _assert_min_resolution(((0,), (1,)), [((1,),)])
    with pytest.raises(PosetarError, match="resolution is not minimal"):
        _assert_min_resolution(((0,), (0,)), [((1,),)])


def _layout_by_leq(P, kind, labels):
    """The layout as the comparisons it stands for: one leq per label and element."""
    if kind == "proj":
        return [[j for j, x in enumerate(labels) if P.leq(x, w)] for w in P.elements()]
    return [[j for j, x in enumerate(labels) if P.leq(w, x)] for w in P.elements()]


@pytest.mark.parametrize("cid", corpus_ids())
def test_layout_matches_the_leq_scan(cid):
    rng = random.Random(cid)
    P = corpus_poset(cid)
    for Q in (P, P.opposite()):
        multisets = [(), tuple(Q.elements()) * 2]
        multisets += [tuple(rng.randrange(Q.n) for _ in range(rng.randint(1, 2 * Q.n))) for _ in range(6)]
        for labels in multisets:
            for kind in ("proj", "inj"):
                assert _layout(Q, kind, labels) == _layout_by_leq(Q, kind, labels)


# -- the one walk: the cover and its first syzygy's generators together ----------


def _random_poset(rng, n):
    rels = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
    return Poset([f"p{i}" for i in range(n)], rels)


def _small_modules(P, field):
    """S, P, I and rad P at every element."""
    for x in P.elements():
        yield simple(P, x, field)
        yield projective(P, x, field)
        yield injective(P, x, field)
        yield radical(projective(P, x, field))[0]


def _assert_one_walk_matches_two_walks(M):
    # the module itself, and its dual over the opposite poset as tau_inverse reads it
    P, field = M.poset, M.field
    for Q, maps in ((P, _rows(M)), (P.opposite(), _dual_rows(M))):
        labels, mats, cover = _resolve(Q, field, M.dims, maps, 1)
        L0, want_cover, L1, d = two_walk_presentation(Q, field, M.dims, maps)
        assert labels[0] == L0 and cover == want_cover
        assert (labels[1:], mats) == (((L1,), (d,)) if L1 else ((), ()))


@pytest.mark.parametrize("cid", corpus_ids())
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_one_walk_presentation_matches_two_walks(cid, field):
    for M in _small_modules(corpus_poset(cid), field):
        _assert_one_walk_matches_two_walks(M)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_one_walk_presentation_matches_two_walks_on_random_posets(field):
    # S, P, I and rad P, and sums of two or three of them: a sum can have an
    # element with dependent carried values and a new generator
    rng = random.Random(2028)
    for _ in range(40):
        P = _random_poset(rng, rng.randint(1, 9))
        small = list(_small_modules(P, field))
        sums = [direct_sum(rng.sample(small, rng.randint(2, 3))) for _ in range(6)] if len(small) > 3 else []
        for M in small + sums:
            _assert_one_walk_matches_two_walks(M)


@pytest.mark.parametrize("source", ["star-2-2", "ex57", "sec2-right", 4, 5])
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_one_walk_presentation_matches_two_walks_on_knit_vertices(source, field):
    # thin modules have no element with both a carried value and a new
    # generator; knitted ones do
    P = corpus_poset(source) if isinstance(source, str) else random_ic_family()[source]
    for v in knit(P, field, max_meshes=60).vertices:
        _assert_one_walk_matches_two_walks(v.rep)
