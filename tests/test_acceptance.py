"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Expected values marked as regression constants were derived on the first
verified run and frozen; everything else comes straight from the published
worked examples.
"""

import functools
import random

from conftest import (
    admissible_marked_trees,
    canonical_marked,
    glue_meshes_check,
    path_tree,
    quick_right_terminations,
    random_ic_family,
    star_tree,
)
from posetar.clamped import enumerate_clamped, is_clamped
from posetar.corpus import corpus_poset, grid2, star_poset
from posetar.homalg import (
    min_projective_resolution,
    tau,
    transpose_dual_tau,
)
from posetar.ictree import (
    build_tree,
    classify_tree,
    finite_type_criterion,
    ic_decompose,
    ic_plus_decompose,
    tree_to_poset,
)
from posetar.knit import ar_sequence_end, embed_in_ZT, knit, wing_window
from posetar.poset import chain
from posetar.rep import (
    constant_on,
    hom,
    hom_dim,
    injective,
    is_isomorphic,
    projective,
    radical,
    restrict,
    simple,
    socle,
    transport,
)
from posetar.slices import standard_slice, verify_slice
from posetar.witness import not_fcy_witness


def criterion(n, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n:2d} FAIL  {title}")
                raise
            print(f"criterion {n:2d} pass  {title}")

        return wrapper

    return deco


@criterion(1, "clamping demonstration posets")
def test_criterion_1():
    left = corpus_poset("sec2-left")
    assert is_clamped(left, left.id_of("a"), left.id_of("b")).clamped
    right = corpus_poset("sec2-right")
    got = {(iv.low, iv.high) for iv in enumerate_clamped(right)}
    want = {(x, x) for x in right.elements()}
    want.add((right.id_of("t"), right.id_of("z")))
    assert got == want


@criterion(2, "four-chain: tree A4 and the boundary mesh")
def test_criterion_2():
    P = chain(4)
    T = build_tree(ic_decompose(P), P)
    assert str(classify_tree(T)) == "A4"
    report = glue_meshes_check(P)
    assert report.ok, report.details
    one = P.id_of("1")
    Pa = projective(P, one)
    S, incl = socle(Pa)
    PaSoc, _ = incl.cokernel()
    seq = ar_sequence_end(PaSoc)
    R, _ = radical(Pa)
    assert is_isomorphic(seq.tau_end, R)
    assert sorted(tuple(rep.dims) for rep, _ in seq.middles) == [
        (0, 1, 1, 0),
        (1, 1, 1, 1),
    ]


@criterion(3, "stacked boxes: three-middle meshes, none for four boxes")
def test_criterion_3():
    # one box: mesh ending at the big projective mod its socle
    P1 = corpus_poset("ex33-poset1")
    a = P1.id_of("a")
    Pa = projective(P1, a)
    _, incl = socle(Pa)
    M1, _ = incl.cokernel()
    seq1 = ar_sequence_end(M1)
    assert seq1.middle_count() == 3
    got = sorted(tuple(rep.dims) for rep, m in seq1.middles for _ in range(m))
    want = sorted(
        [
            tuple(projective(P1, a).dims),
            tuple(simple(P1, P1.id_of("1")).dims),
            tuple(simple(P1, P1.id_of("2")).dims),
        ]
    )
    assert got == want

    # two boxes: mesh ending at rad(P_a)/P_b
    P2 = corpus_poset("ex33-poset2")
    R, _ = radical(projective(P2, P2.id_of("a")))
    emb = hom(projective(P2, P2.id_of("b")), R)
    assert len(emb) == 1 and emb[0].is_injective()
    M2, _ = emb[0].cokernel()
    seq2 = ar_sequence_end(M2)
    assert seq2.middle_count() == 3

    # three boxes: the published dimension-vector tables, exactly
    P3 = corpus_poset("ex33-poset3")
    comp = knit(P3, max_meshes=400)
    assert comp.status == "complete"
    order = [P3.id_of(nm) for nm in ("a", "1", "2", "3", "4", "5", "6", "b")]
    target = (0, 1, 2, 2, 2, 1, 1, 0)
    vid = next(
        v.vid for v in comp.vertices if tuple(v.rep.dims[x] for x in order) == target
    )
    u = comp.tau_map[vid]
    assert tuple(comp.vertex(u).rep.dims[x] for x in order) == (0, 1, 1, 2, 2, 1, 1, 0)
    middles = sorted(
        tuple(comp.vertex(m).rep.dims[x] for x in order) for m in comp.in_arrows(vid)
    )
    assert middles == [
        (0, 0, 1, 1, 1, 0, 1, 0),
        (0, 1, 1, 1, 2, 1, 1, 0),
        (0, 1, 1, 2, 1, 1, 0, 0),
    ]

    # four boxes: no certified witness within budget
    assert not_fcy_witness(grid2(5), mesh_budget=200) is None


@criterion(4, "clamped-chain stars: tree classes and the CY table")
def test_criterion_4():
    from posetar.witness import is_fractionally_cy

    for q1 in range(1, 7):
        P = star_poset(q1)
        assert str(classify_tree(build_tree(ic_decompose(P), P))) == f"A{q1 + 2}"
        assert is_fractionally_cy(P).verdict == "yes"
    for q2 in range(1, 11):
        P = star_poset(1, q2)
        assert str(classify_tree(build_tree(ic_decompose(P), P))) == f"D{q2 + 3}"
        assert is_fractionally_cy(P).verdict == "yes"
    assert is_fractionally_cy(star_poset(2, 2)).render() == "yes (E6)"
    assert is_fractionally_cy(star_poset(2, 3)).render() == "yes (E7)"
    assert is_fractionally_cy(star_poset(2, 4)).render() == "yes (E8)"
    for qs in ((3, 3), (2, 5), (1, 1, 1)):
        assert is_fractionally_cy(star_poset(*qs)).verdict == "no"


@criterion(5, "translate values on clamped chains")
def test_criterion_5():
    P = star_poset(2, 2)
    beta, delta = P.id_of("c1_1"), P.id_of("c1_2")
    gamma, eps = P.id_of("c2_1"), P.id_of("c2_2")
    assert is_isomorphic(tau(simple(P, eps)), projective(P, beta))
    assert is_isomorphic(tau(simple(P, delta)), projective(P, gamma))
    for length in (3, 4):
        Q = star_poset(length)
        els = [Q.id_of(f"c1_{j + 1}") for j in range(length)]
        for a, b in zip(els, els[1:]):
            assert is_isomorphic(tau(simple(Q, a)), simple(Q, b))


# (orbit support, levels, left projective, right injective, f values)
# f prefixes and terminations transcribed from the published quiver figure;
# the mirror-half zeros and the total count 134 are regression constants.
EX57_EXPECT = [
    (("delta",), (-8, 7), "delta", "epsilon", [1, 1, 0, 1, 1] + [0] * 11),
    (("delta", "epsilon"), (-8, 8), "epsilon", "delta", [1, 2, 1, 1, 2, 1] + [0] * 11),
    (("zeta",), (-8, 8), "zeta", "zeta", [1] * 6 + [0] * 11),
    (
        ("gamma", "delta", "epsilon", "zeta"),
        (-9, 8),
        "eta",
        "gamma",
        [1, 2, 2, 2, 2, 2, 1] + [0] * 11,
    ),
    (
        ("gamma", "delta", "epsilon", "zeta", "eta"),
        (-9, 9),
        "theta",
        "beta",
        [1, 1, 1, 2, 2, 1, 1, 1] + [0] * 11,
    ),
    (
        ("beta", "gamma", "delta", "epsilon", "zeta", "eta"),
        (-10, 9),
        "omega",
        "alpha",
        [1, 1, 0, 1, 2, 1, 0, 1, 1] + [0] * 11,
    ),
    (
        ("beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"),
        (-9, 9),
        "iota",
        "iota",
        [1, 0, 0, 1, 1, 0, 0, 1, 1] + [0] * 10,
    ),
    (("iota",), (-1, 1), "beta", "theta", [1, 0, 0]),
    (
        ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota"),
        (-2, 1),
        "gamma",
        "eta",
        [1, 1, 0, 0],
    ),
    (
        (
            "alpha",
            "beta",
            "gamma",
            "delta",
            "epsilon",
            "zeta",
            "eta",
            "theta",
            "iota",
            "omega",
        ),
        (0, 0),
        "alpha",
        "omega",
        [1],
    ),
]


@criterion(6, "ten-element example: complete knit matching the printed values")
def test_criterion_6():
    P = corpus_poset("ex57")
    comp = knit(P, max_meshes=500)
    assert comp.status == "complete"
    assert len(comp.vertices) == 134  # regression constant
    assert len(comp.projective_vertices()) == 10
    assert len(comp.injective_vertices()) == 10
    alpha = P.unique_min_max()[0]
    for v in comp.vertices:
        if v.proj is not None:
            assert v.fomega == 1
        if v.inj is not None:
            assert v.rep.dims[alpha] == 1
    sl = standard_slice(P, ic_decompose(P))
    emb = embed_in_ZT(comp, sl.tree)
    by_support = {
        frozenset(sl.tree.supports[tv]): tv for tv in range(sl.tree.n)
    }
    for names, levels, left_p, right_i, fvals in EX57_EXPECT:
        sup = frozenset(P.id_of(nm) for nm in names)
        orbit = by_support[sup]
        vids = emb.orbits[orbit]
        assert emb.orbit_levels(orbit) == levels, names
        left, right = comp.vertex(vids[0]), comp.vertex(vids[-1])
        assert left.proj == P.id_of(left_p), names
        assert right.inj == P.id_of(right_i), names
        assert [comp.vertex(v).fomega for v in vids] == fvals, names


@criterion(7, "seven- and nine-element examples: finite vs truncated")
def test_criterion_7():
    P1 = corpus_poset("ex58-poset1")
    verdict, _ = finite_type_criterion(P1)
    assert verdict == "finite"
    comp1 = knit(P1, max_meshes=300)
    assert comp1.status == "complete"
    cls1 = classify_tree(build_tree(ic_decompose(P1), P1))
    assert cls1.family in ("~D", "~E") and str(cls1) == "~D6"

    P2 = corpus_poset("ex58-poset2")
    comp2 = knit(P2, max_meshes=40, max_total_dim=200)
    assert comp2.status == "truncated"
    sl2 = standard_slice(P2, ic_decompose(P2))
    term = quick_right_terminations(sl2, budget=8)
    finite_orbits = {v for v, s in term.items() if s is not None}
    assert sl2.tree.marked in finite_orbits
    stable = sl2.tree.without_vertices(finite_orbits | {sl2.tree.marked})
    classes = sorted(str(classify_tree(c)) for c in stable)
    assert classes == ["~E6"]


RYS_EXPECT = {
    "rys28a-p1": (star_tree(1, 1, 1, 1, marked_arm=0), []),
    "rys28b-p2": (star_tree(1, 1, 2, 2, marked_arm=0), []),
    "rys29-n0-p0": (path_tree(2, marked=0), []),
    "rys30a-n1-r1-p1": (path_tree(5, marked=6, pendants=(1, 3)), []),
    "rys30b-q1": (path_tree(5, marked=6, pendants=(1, 3)), ["zeta"]),
    "rys30c-p1": (path_tree(6, marked=7, pendants=(2, 4)), ["p"]),
    "rys30d": (path_tree(8, marked=0, pendants=(1, 5)), ["iota", "-omega"]),
    "rys30e": (
        path_tree(10, marked=10, pendants=(1, 7)),
        ["iota", "-omega", "-omega,alpha,iota"],
    ),
}


def _boxed_supports(P, specs):
    out = []
    for spec in specs:
        if spec.startswith("-"):
            removed = {P.id_of(nm) for nm in spec[1:].split(",")}
            out.append(frozenset(P.elements()) - removed)
        else:
            out.append(frozenset({P.id_of(spec)}))
    return out


@criterion(8, "finite-type family: slice trees and short orbits per row")
def test_criterion_8():
    for cid, (expected_tree, boxed_specs) in RYS_EXPECT.items():
        P = corpus_poset(cid)
        node = ic_plus_decompose(P)
        assert node is not None, cid
        T = build_tree(node, P)
        assert canonical_marked(T) == canonical_marked(expected_tree), cid
        if not boxed_specs:
            residual = [classify_tree(c) for c in T.without_vertices({T.marked})]
            assert all(c.is_dynkin for c in residual), (cid, residual)
            continue
        comp = knit(P, max_meshes=600)
        assert comp.status == "complete", cid
        sl = standard_slice(P, node)
        emb = embed_in_ZT(comp, sl.tree)
        by_support = {frozenset(sl.tree.supports[v]): v for v in range(sl.tree.n)}
        boxed = {by_support[s] for s in _boxed_supports(P, boxed_specs)}
        lengths = {o: len(vids) for o, vids in emb.orbits.items()}
        boxed_max = max(lengths[o] for o in boxed)
        others = [
            lengths[o]
            for o in lengths
            if o not in boxed and o != sl.tree.marked
        ]
        assert boxed_max < min(others), (cid, lengths)
        residual = [
            classify_tree(c) for c in sl.tree.without_vertices(boxed | {sl.tree.marked})
        ]
        assert all(c.is_dynkin for c in residual), (cid, residual)


@criterion(9, "property suite over the pinned random family")
def test_criterion_9():
    rng = random.Random(99)
    family = random_ic_family(seed=20240, count=22, max_size=12)
    assert len(family) >= 20
    completes = 0
    for P in family:
        node = ic_decompose(P)
        assert node is not None
        a, w = P.unique_min_max()
        sl = standard_slice(P, node)

        # slice checks: support condition, ext vanishing, hom matrix
        report = verify_slice(sl)
        assert report.ok, (P.name, report.describe())

        # Yoneda pair on a sample of slice modules
        verts = list(range(sl.tree.n))
        for v in verts[:: max(1, len(verts) // 3)]:
            M = constant_on(P, sl.tree.supports[v])
            M.assert_path_independent()
            for x in (a, w, P.n // 2):
                assert hom_dim(projective(P, x), M) == M.dims[x]
                assert hom_dim(M, injective(P, x)) == M.dims[x]

        comp = knit(P, max_meshes=50, max_total_dim=150)
        tau_inv = comp.tau_inv_map()

        # mesh additivity and f additivity on every knitted mesh
        for v, u in comp.tau_map.items():
            middles = comp.in_arrows(v)
            for x in P.elements():
                assert sum(comp.vertex(m).rep.dims[x] for m in middles) == (
                    comp.vertex(v).rep.dims[x] + comp.vertex(u).rep.dims[x]
                )

        # realized-mesh oracle and two-route translate on a bounded sample
        sampled = [
            v
            for v in comp.tau_map
            if comp.vertex(v).rep.total_dim() <= 18
        ][:5]
        for v in sampled:
            M = comp.vertex(v).rep
            M.assert_path_independent()
            seq = ar_sequence_end(M, rng, check_indecomposable=False)
            got = sorted(tuple(comp.vertex(m).rep.dims) for m in comp.in_arrows(v))
            want = sorted(
                tuple(rep.dims) for rep, mult in seq.middles for _ in range(mult)
            )
            assert got == want, P.name
            t1, t2 = tau(M), transpose_dual_tau(M)
            assert t1 is not None and is_isomorphic(t1, t2)

        # clamped-interval properties
        clamped = [
            iv
            for iv in enumerate_clamped(P)
            if iv.low != iv.high and len(iv.members(P)) < P.n
        ][:3]
        for iv in clamped:
            members = iv.members(P)
            sub, ids = P.induced(members)
            b_local = ids.index(iv.high)
            # resolution support: modules on [a,b) resolve inside [a,b]
            probes = []
            for x in list(members - {iv.high})[:2]:
                probes.append(simple(P, x))
            half = members - {iv.high}
            if P.is_convex(half):
                probes.append(constant_on(P, half))
            for M in probes:
                C, _ = min_projective_resolution(M)
                assert all(x in members for lab in C.labels for x in lab), P.name
            # translate commutes with restriction
            subcomp = knit(sub, max_meshes=25, max_total_dim=120)
            for v, u in list(subcomp.tau_map.items())[:3]:
                Msub = subcomp.vertex(v).rep
                if Msub.dims[b_local] != 0:
                    continue
                tau_sub = subcomp.vertex(u).rep
                Mfull = transport(Msub, P, ids)
                t_full = tau(Mfull)
                if t_full is None:
                    continue
                restricted, _, _ = restrict(t_full, members)
                assert is_isomorphic(restricted, tau_sub), P.name
                # mesh copying: same middles once the translate also lives
                # strictly inside the interval
                a_local = ids.index(iv.low)
                if tau_sub.dims[a_local] == 0:
                    seq_full = ar_sequence_end(Mfull, rng, check_indecomposable=False)
                    got = sorted(
                        tuple(transport(subcomp.vertex(m).rep, P, ids).dims)
                        for m in subcomp.in_arrows(v)
                    )
                    want = sorted(
                        tuple(rep.dims)
                        for rep, mult in seq_full.middles
                        for _ in range(mult)
                    )
                    assert got == want, P.name

        if comp.status == "complete":
            completes += 1
            emb = embed_in_ZT(comp, sl.tree)  # raises unless the orbits are disjoint
            window = wing_window(sl.tree)
            placed = {coord: vid for vid, coord in emb.coords.items()}
            for orbit, (lo, hi) in window.items():
                for lvl in range(lo, hi + 1):
                    vid = placed.get((orbit, lvl))
                    assert vid is not None, (P.name, orbit, lvl)
                    kv = comp.vertex(vid)
                    if kv.proj is not None:
                        assert lvl == lo
                    if kv.inj is not None:
                        assert lvl == hi
            # duality: the opposite component carries the same dimension data
            opp = knit(P.opposite(), max_meshes=50, max_total_dim=150)
            assert opp.status == "complete"
            assert sorted(tuple(v.rep.dims) for v in opp.vertices) == sorted(
                tuple(v.rep.dims) for v in comp.vertices
            )
            assert len(opp.projective_vertices()) == len(comp.injective_vertices())
    assert completes >= 8


@criterion(10, "lattice-from-tree round trip over all small admissible trees")
def test_criterion_10():
    checked = 0
    for marked, leaf in admissible_marked_trees(9):
        P = tree_to_poset(marked, leaf)
        node = ic_plus_decompose(P)
        assert node is not None, (marked.edges, leaf)
        back = build_tree(node, P)
        assert canonical_marked(back) == canonical_marked(marked), (marked.edges, leaf)
        checked += 1
    assert checked >= 100
