import pytest

from posetar.corpus import corpus_ids, corpus_poset, star_poset
from posetar.homalg import _ext_dims, _resolution, ext
from posetar.ictree import ic_plus_decompose
from posetar.linalg import QQ, Field
from posetar.poset import chain
from posetar.rep import constant_on, hom_dim, is_isomorphic, projective
from posetar.slices import _path_counts, check_hypothesis_41, standard_slice, verify_slice


def make_slice(P):
    node = ic_plus_decompose(P)
    assert node is not None
    return standard_slice(P, node)


def test_chain2_slice_modules():
    P = chain(2)
    sl = make_slice(P)
    mods = sorted(tuple(m.dims) for m in sl.modules.values())
    assert mods == [(1, 0), (1, 1)]
    assert is_isomorphic(sl.modules[sl.marked], projective(P, 0))


def test_slice_size_matches_poset():
    for cid in ("ex57", "ex58-poset1", "sec4-nine", "p-1-2"):
        P = corpus_poset(cid)
        sl = make_slice(P)
        assert len(sl.modules) == P.n


def test_marked_module_is_largest_projective():
    for cid in ("ex57", "p-1-2", "ex58-poset2"):
        P = corpus_poset(cid)
        a, _ = P.unique_min_max()
        sl = make_slice(P)
        assert is_isomorphic(sl.modules[sl.marked], projective(P, a))


def test_hypothesis_support_condition():
    for cid in ("ex57", "ex58-poset1", "star-2-2"):
        P = corpus_poset(cid)
        sl = make_slice(P)
        assert check_hypothesis_41(P, sl)


def test_verify_slice_p12():
    P = star_poset(1, 2)
    report = verify_slice(make_slice(P))
    assert report.ok, report.describe()


def test_verify_slice_chain4_hom_matrix():
    P = chain(4)
    sl = make_slice(P)
    report = verify_slice(sl)
    assert report.ok
    # A4 path counts: hom dims are 0/1 along the zigzag orientation
    total = sum(
        hom_dim(sl.modules[v], sl.modules[w])
        for v in range(sl.tree.n)
        for w in range(sl.tree.n)
    )
    # identity on each of 4 vertices plus one per oriented edge path
    assert total >= 4 + 3


def test_verify_slice_ex58():
    P = corpus_poset("ex58-poset1")
    report = verify_slice(make_slice(P))
    assert report.ok, report.describe()


def test_negative_control_wrong_module():
    P = star_poset(1, 2)
    sl = make_slice(P)
    # swap in a wrong module at a non-marked vertex: the report must object
    victim = next(v for v in range(sl.tree.n) if v != sl.marked)
    a, w = P.unique_min_max()
    sl.modules[victim] = constant_on(P, {w})
    report = verify_slice(sl)
    assert not report.ok


def test_ex57_slice_verification():
    P = corpus_poset("ex57")
    report = verify_slice(make_slice(P))
    assert report.ok, report.describe()


def test_slice_with_adjoin():
    from posetar.ictree import realize_shape

    P = realize_shape(("adjoin-min", ("clamp", [("point",), ("point",)])))
    sl = make_slice(P)
    report = verify_slice(sl)
    assert report.ok, report.describe()
    a, _ = P.unique_min_max()
    assert is_isomorphic(sl.modules[sl.marked], projective(P, a))


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
def test_slice_hom_dims_from_one_rank_per_map_match_hom_dim(field):
    """verify_slice reads Hom(M_v, M_w) as Ext^0 from the ranks of the Hom
    complex of M_v's resolution; on every slice pair of every corpus id with
    a decomposition that is rep.hom_dim, every Ext degree is homalg.ext, and
    the report lists the pairs whose hom_dim misses the path count."""
    checked = 0
    for cid in corpus_ids():
        P = corpus_poset(cid)
        node = ic_plus_decompose(P)
        if node is None:
            continue
        sl = standard_slice(P, node, field)
        counts = _path_counts(sl.tree)
        want = []
        for v in range(sl.tree.n):
            Mv = sl.modules[v]
            C = _resolution(Mv)[0]
            for w in range(sl.tree.n):
                Mw = sl.modules[w]
                dims = _ext_dims(C, Mw)
                assert dims[0] == hom_dim(Mv, Mw), (cid, v, w)
                assert dims == [ext(Mv, Mw, i) for i in range(len(dims))], (cid, v, w)
                if dims[0] != counts.get((v, w), 0):
                    want.append((v, w, dims[0], counts.get((v, w), 0)))
                checked += 1
        assert verify_slice(sl).hom_mismatches == tuple(want), cid
    assert checked > 500
