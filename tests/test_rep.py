import pytest
from conftest import constant_on_reference, is_surjective, subrep_from_bases

from posetar.corpus import corpus_ids, corpus_poset
from posetar.errors import NotConvex, PosetarError
from posetar.ictree import ic_plus_decompose
from posetar.knit import knit
from posetar.linalg import QQ, Field, Mat, span_basis
from posetar.poset import Poset, chain
from posetar.rep import (
    Morphism,
    Representation,
    constant_on,
    direct_sum,
    dualize,
    hom,
    hom_dim,
    injective,
    is_isomorphic,
    linear_combination,
    projective,
    radical,
    restrict,
    simple,
    socle,
    top,
    transport,
)
from posetar.modexpr import describe_module
from posetar.slices import standard_slice
from posetar.split import _fitting_split


def names(P, sup):
    return {P.names[x] for x in sup}


def test_projective_on_chain():
    P = chain(3)
    M = projective(P, P.id_of("2"))
    assert M.dims == (0, 1, 1)


def test_projective_at_max_is_simple():
    P = corpus_poset("ex57")
    _, w = P.unique_min_max()
    M = projective(P, w)
    assert M.support() == frozenset({w})


def test_injective_on_chain():
    P = chain(3)
    M = injective(P, P.id_of("2"))
    assert M.dims == (1, 1, 0)


def test_constant_requires_convex():
    P = chain(3)
    with pytest.raises(NotConvex):
        constant_on(P, {P.id_of("1"), P.id_of("3")})


def test_diamond_projective_at_min_is_constant():
    P = corpus_poset("ex33-poset1")
    M = projective(P, P.id_of("a"))
    assert M.dims == (1, 1, 1, 1)
    assert M.is_thin_constant()


def test_yoneda_dimensions():
    P = corpus_poset("ex58-poset1")
    mods = [projective(P, 1), injective(P, 3), constant_on(P, P.closed_interval(*P.unique_min_max()))]
    for M in mods:
        for x in P.elements():
            assert hom_dim(projective(P, x), M) == M.dims[x]
            assert hom_dim(M, injective(P, x)) == M.dims[x]


def test_hom_disjoint_supports():
    P = chain(2)
    assert hom_dim(simple(P, 0), simple(P, 1)) == 0


def test_radical_of_chain_projective():
    P = chain(4)
    M = projective(P, P.id_of("1"))
    R, incl = radical(M)
    assert names(P, R.support()) == {"2", "3", "4"}
    assert incl.is_injective()


def test_socle_of_largest_projective_is_simple_at_max():
    P = corpus_poset("ex57")
    a, w = P.unique_min_max()
    M = projective(P, a)
    S, _ = socle(M)
    assert S.support() == frozenset({w})


def test_top_of_projective():
    P = corpus_poset("ex58-poset1")
    for x in P.elements():
        T, proj = top(projective(P, x))
        assert T.support() == frozenset({x})
        assert is_surjective(proj)


def test_largest_projective_equals_injective_at_max():
    P = corpus_poset("ex57")
    a, w = P.unique_min_max()
    assert is_isomorphic(projective(P, a), injective(P, w))


def test_simples_not_isomorphic():
    P = chain(2)
    assert not is_isomorphic(simple(P, 0), simple(P, 1))


def test_zero_modules_are_isomorphic_and_print_as_0():
    P = chain(2)
    Z = radical(simple(P, 0))[0]
    assert Z.is_zero()
    assert is_isomorphic(Z, radical(simple(P, 1))[0])
    assert describe_module(P, Z) == "0"


def test_indecomposable_is_not_isomorphic_to_a_sum_with_its_dims():
    P = chain(2)
    S = direct_sum([simple(P, 0), simple(P, 1)])
    M = projective(P, 0)
    assert M.dims == S.dims
    assert not is_isomorphic(M, S)
    assert not is_isomorphic(S, M)


def test_an_entry_equal_to_p_is_the_zero_map():
    # over GF(5) the entry 5 is 0, so this is S(0) + S(1), not k on the chain
    P, F5 = chain(2), Field(5)
    M = Representation(P, F5, [1, 1], {(0, 1): Mat(F5, [[5]])})
    assert not M.is_thin_constant()
    assert not is_isomorphic(M, constant_on(P, {0, 1}, F5))


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
def test_rebased_indecomposable_is_isomorphic(field):
    """Conjugating every cover map by I + 2 E_{0,d-1} gives an isomorphic
    module that no thin shortcut decides: a Hom basis element must be one."""
    P = corpus_poset("ex57")
    M = next(v.rep for v in knit(P, field, max_meshes=10).vertices
             if v.rep.dims == (0, 0, 0, 0, 1, 1, 2, 2, 1, 2))
    g = {}
    for x in P.elements():
        d = M.dims[x]
        rows = [[int(i == j) for j in range(d)] for i in range(d)]
        if d:
            rows[0][d - 1] += 2
        g[x] = Mat(field, rows, d, d)
    maps = {
        (x, y): g[y].mul(m).mul(g[x].solve(Mat.identity(field, M.dims[x])))
        for (x, y), m in M.maps.items()
    }
    N = Representation(P, field, M.dims, maps)
    assert N.maps != M.maps
    assert is_isomorphic(M, N)
    assert is_isomorphic(N, M)


def test_direct_sum_and_identity_iso():
    P = corpus_poset("ex33-poset1")
    M = projective(P, P.id_of("a"))
    S = direct_sum([M, simple(P, P.id_of("1"))])
    assert S.dims == tuple(M.dims[x] + (1 if x == P.id_of("1") else 0) for x in P.elements())


def test_hom_largest_projective_to_quotient_is_one_dim():
    P = corpus_poset("ex58-poset1")
    a, w = P.unique_min_max()
    Pa = projective(P, a)
    S, incl = socle(Pa)
    Q, _ = incl.cokernel()
    assert hom_dim(Pa, Q) == 1


def test_restrict_constant():
    P = corpus_poset("ex57")
    iv = P.closed_interval(P.id_of("gamma"), P.id_of("eta"))
    M = constant_on(P, P.closed_interval(*P.unique_min_max()))
    R, sub, ids = restrict(M, iv)
    assert R.dims == (1,) * len(iv)


def test_dualize_involution_dims():
    P = corpus_poset("ex33-poset2")
    M = projective(P, P.id_of("a"))
    D, Pop = dualize(M)
    DD, _ = dualize(D)
    assert DD.dims == M.dims
    assert D.support() == M.support()


def test_dual_of_projective_is_injective_over_opposite():
    P = corpus_poset("ex58-poset1")
    x = P.id_of("gamma")
    D, Pop = dualize(projective(P, x))
    assert is_isomorphic(D, injective(Pop, x))


def test_transport_keeps_structure():
    P = corpus_poset("ex57")
    iv = P.closed_interval(P.id_of("gamma"), P.id_of("eta"))
    M = constant_on(P, iv)
    R, sub, ids = restrict(M, iv)
    back = transport(R, P, ids)
    assert is_isomorphic(back, M)


def test_path_independence_rejects_bad_rep():
    P = corpus_poset("ex33-poset1")
    a, one, two, b = (P.id_of(nm) for nm in ("a", "1", "2", "b"))
    from posetar.linalg import Mat

    maps = {
        (a, one): Mat(QQ, [[1]]),
        (a, two): Mat(QQ, [[1]]),
        (one, b): Mat(QQ, [[1]]),
        (two, b): Mat(QQ, [[2]]),
    }
    from posetar.errors import PosetarError

    with pytest.raises(PosetarError):
        Representation(P, QQ, [1, 1, 1, 1], maps)


ONE = Mat(QQ, [[1]])


@pytest.mark.parametrize("n, field, dims, maps", [
    (2, QQ, [1, 1, 5], {}),
    (2, QQ, [1], {}),
    (2, QQ, [1, -1], {}),
    (3, QQ, [1, 1, 1], {(0, 1): ONE, (1, 2): ONE, (0, 2): Mat(QQ, [[0]])}),
    (3, QQ, [1, 1, 1], {(0, 1): ONE, (1, 2): ONE, (5, 7): ONE}),
    (2, Field(5), [1, 1], {(0, 1): ONE}),
], ids=["dims-too-long", "dims-too-short", "negative-dim", "map-off-the-covers", "map-off-the-poset", "map-over-another-field"])
def test_the_constructor_rejects_malformed_modules(n, field, dims, maps):
    with pytest.raises(ValueError):
        Representation(chain(n), field, dims, maps)


def test_json_roundtrip():
    P = corpus_poset("ex33-poset2")
    M = projective(P, P.id_of("a"))
    data = M.to_json()
    back = Representation.from_json(P, data)
    assert back.dims == M.dims
    assert is_isomorphic(back, M)


def test_module_iso_to_sum_with_zero():
    P = corpus_poset("ex33-poset1")
    M = projective(P, P.id_of("a"))
    S = direct_sum([M, Representation(P, M.field, [0] * P.n, {})])
    assert is_isomorphic(S, M)


def _modules_of(source, field):
    P = corpus_poset(source)
    if source == "p-1-2":
        T = standard_slice(P, ic_plus_decompose(P), field).tree
        return [constant_on(P, T.supports[v], field) for v in range(T.n)]
    return [v.rep for v in knit(P, field).vertices]


@pytest.mark.parametrize("source", ["star-2-2", "ex57", "p-1-2"])
@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
def test_hom_dim_counts_the_hom_basis(source, field):
    # vertex modules of the knits, slice modules of p-1-2
    mods = _modules_of(source, field)
    for M in mods:
        for N in mods:
            assert hom_dim(M, N) == len(hom(M, N))


def _crown():
    # alpha < a1, a2 < b1, b2 < omega: the covers a_i < b_j form a 4-cycle
    # that bounds no commutative square
    names = ["alpha", "a1", "a2", "b1", "b2", "omega"]
    rels = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
    return Poset(names, rels, name="crown")


def _thin_on_crown_waist(field, scalars):
    P = _crown()
    covers = [(1, 3), (1, 4), (2, 3), (2, 4)]
    maps = {c: Mat(field, [[field.of_int(s)]]) for c, s in zip(covers, scalars)}
    return P, Representation(P, field, [0, 1, 1, 1, 1, 0], maps)


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
def test_thin_module_with_twisted_cycle_is_not_constant(field):
    P, M = _thin_on_crown_waist(field, [1, 1, 1, 2])
    kQ = constant_on(P, {1, 2, 3, 4}, field)
    assert hom_dim(M, kQ) == 0
    assert not M.is_thin_constant()
    assert not is_isomorphic(M, kQ)
    assert describe_module(P, M) == "[a1:1 a2:1 b1:1 b2:1]"


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
def test_thin_module_with_coboundary_scalars_is_constant(field):
    # c = (a1: 1, a2: 1/2, b1: 2, b2: 3) gives these scalars c_y / c_x, and
    # c(a2) is reached only against a cover's direction
    P, M = _thin_on_crown_waist(field, [2, 3, 4, 6])
    assert M.is_thin_constant()
    assert is_isomorphic(M, constant_on(P, {1, 2, 3, 4}, field))
    assert describe_module(P, M) == "k{a1,a2,b1,b2}"


def test_thin_module_on_a_non_convex_support_is_not_constant():
    P = chain(3)
    M = direct_sum([simple(P, 0), simple(P, 2)])
    assert not M.is_thin_constant()
    assert describe_module(P, M) == "[1:1 3:1]"


def test_kernel_and_image_reject_blocks_that_are_not_natural():
    P = chain(2)
    M = projective(P, 0)
    f = Morphism(M, M, [Mat.identity(QQ, 1), Mat.zero(QQ, 1, 1)])
    with pytest.raises(PosetarError):
        f.kernel()
    with pytest.raises(PosetarError):
        f.image()


def _module_bytes(M):
    """The dimensions and the rows of every cover map, with each entry's type."""
    return M.dims, [(c, M.maps[c].r, M.maps[c].c, repr(M.maps[c].rows)) for c in M.poset.covers]


def _subrep_bytes(pair):
    S, incl = pair
    return _module_bytes(S), [(b.r, b.c, repr(b.rows)) for b in incl.blocks]


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
@pytest.mark.parametrize("cid", corpus_ids())
def test_subrep_constructions_match_the_solve_per_cover_reference(cid, field):
    """kernel, image, radical, socle and both pieces of the Fitting split
    agree byte for byte with solving for every cover map on the same bases
    (conftest.subrep_from_bases), on A = P(x) + P(x) + I(x) + S(x) for each
    x and on the elements of its End basis and one generic combination."""
    P = corpus_poset(cid)
    split = 0
    for x in P.elements():
        A = direct_sum([projective(P, x, field), projective(P, x, field), injective(P, x, field), simple(P, x, field)])
        rad = [span_basis(field, [v for w in P.covers_below(y) for v in A.maps[(w, y)].columns()], A.dims[y])
               for y in P.elements()]
        assert _subrep_bytes(radical(A)) == _subrep_bytes(subrep_from_bases(A, rad))
        soc = []
        for y in P.elements():
            stacked = [row for z in P.covers_above(y) for row in A.maps[(y, z)].rows]
            soc.append(Mat.from_columns(field, Mat(field, stacked, len(stacked), A.dims[y]).nullspace(), A.dims[y]))
        assert _subrep_bytes(socle(A)) == _subrep_bytes(subrep_from_bases(A, soc))
        basis = hom(A, A)
        for f in basis + [linear_combination(basis, [field.of_int(i + 1) for i in range(len(basis))])]:
            ker = [Mat.from_columns(field, b.nullspace(), b.c) for b in f.blocks]
            assert _subrep_bytes(f.kernel()) == _subrep_bytes(subrep_from_bases(A, ker))
            im = [span_basis(field, b.columns(), b.r) for b in f.blocks]
            assert _subrep_bytes(f.image()) == _subrep_bytes(subrep_from_bases(A, im))
            parts = _fitting_split(A, [b.rows for b in f.blocks])
            if parts is None:
                continue
            g = f
            for _ in range(max(A.dims).bit_length()):
                g = g.compose(g)
            im = [span_basis(field, b.columns(), b.r) for b in g.blocks]
            ker = [Mat.from_columns(field, b.nullspace(), b.c) for b in g.blocks]
            assert _module_bytes(parts[0]) == _module_bytes(subrep_from_bases(A, im)[0])
            assert _module_bytes(parts[1]) == _module_bytes(subrep_from_bases(A, ker)[0])
            split += 1
    assert split


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
@pytest.mark.parametrize("cid", corpus_ids())
def test_constant_on_matches_the_per_cover_reference(cid, field):
    """constant_on, a one-summand layout for rep._realize_layout, agrees byte
    for byte with the loop it replaced (conftest.constant_on_reference) on
    every closed interval, up-set and down-set: dims, keys and map rows."""
    P = corpus_poset(cid)
    subsets = {P.closed_interval(a, b) for a in P.elements() for b in P.elements() if P.leq(a, b)}
    subsets |= {P.up_set(x) for x in P.elements()} | {P.down_set(x) for x in P.elements()}
    for Q in subsets:
        M = constant_on(P, Q, field)
        dims, maps = constant_on_reference(P, Q, field)
        assert M.maps.keys() == maps.keys() and {m.field for m in M.maps.values()} <= {field}
        assert _module_bytes(M) == (tuple(dims), [(c, maps[c].r, maps[c].c, repr(maps[c].rows)) for c in P.covers])
