import hashlib
import itertools
import random
import sys

import pytest
import sympy

from posetar.corpus import corpus_ids, corpus_poset, star_poset
from posetar.errors import BranchTooClose, NotExtreme, PosetarError
from posetar.ictree import (
    ICNode,
    TreeShape,
    build_tree,
    classify_tree,
    finite_type_criterion,
    ic_decompose,
    ic_plus_decompose,
    parse_tree,
    realize_shape,
    tree_to_poset,
)
from posetar.poset import Poset, chain


from conftest import (
    admissible_marked_trees,
    canonical_marked,
    derived_trees,
    is_lattice,
    path_tree,
    random_ic_family,
    random_ic_shape,
    random_tree,
    star_tree,
    tree_to_poset_reference,
)


def test_chain_decomposition_depth():
    P = chain(4)
    node = ic_decompose(P)
    assert node is not None
    assert node.kind == "clamp"
    assert len(node.children) == 1
    assert node.children[0].kind == "clamp"


def test_decomposition_visits_each_subset_once(monkeypatch):
    # sec2-left has no witness, and between two chains every way of peeling
    # their ends off by adjunctions reaches it again; the memo keeps the count
    # of _extrema_in calls at 532 where the bare recursion is exponential
    import posetar.ictree as ictree

    S, k = corpus_poset("sec2-left"), 12
    low, high = [(i, i + 1) for i in range(k - 1)], [(k + S.n + i, k + S.n + i + 1) for i in range(k - 1)]
    middle = [(k + x, k + y) for x, y in S.covers]
    ends = [(k - 1, k + x) for x in S.minimal_elements()] + [(k + x, k + S.n) for x in S.maximal_elements()]
    P = Poset([f"l{i}" for i in range(k)] + list(S.names) + [f"h{i}" for i in range(k)], low + middle + high + ends)
    calls = []

    def counted(*args):
        calls.append(args)
        assert len(calls) <= 1000, "a subset is decomposed more than once"
        return extrema_in(*args)

    extrema_in = ictree._extrema_in
    monkeypatch.setattr(ictree, "_extrema_in", counted)
    assert ic_plus_decompose(P) is None
    assert len(calls) <= 1000


def test_sec4_nine_in_ic():
    P = corpus_poset("sec4-nine")
    assert ic_decompose(P) is not None


def test_ex33_posets_not_ic():
    for cid in ("ex33-poset2", "ex33-poset3"):
        P = corpus_poset(cid)
        assert ic_decompose(P) is None
        assert ic_plus_decompose(P) is None


def test_ic_members_get_pure_witness():
    for cid in ("ex57", "ex58-poset1", "sec4-nine"):
        P = corpus_poset(cid)
        node = ic_plus_decompose(P)
        assert node is not None and not node.uses_adjoin()


def test_adjoin_below_diamond():
    P = realize_shape(("adjoin-min", ("clamp", [("point",), ("point",)])))
    assert ic_decompose(P) is None
    node = ic_plus_decompose(P)
    assert node is not None
    assert node.kind == "adjoin-min"
    assert node.children[0].kind == "clamp"


def test_opposite_of_ic_is_ic():
    for cid in ("ex57", "ex58-poset1", "sec4-nine"):
        P = corpus_poset(cid)
        assert (ic_decompose(P) is None) == (ic_decompose(P.opposite()) is None)


def test_build_tree_chain_is_path():
    P = chain(4)
    T = build_tree(ic_decompose(P), P)
    assert T.n == 4
    assert classify_tree(T) == classify_tree(path_tree(4))
    assert str(classify_tree(T)) == "A4"
    assert T.degree(T.marked) == 1


def test_build_tree_vertex_count_matches_poset():
    for cid in ("ex57", "ex58-poset1", "sec4-nine", "ex33-poset1"):
        P = corpus_poset(cid)
        node = ic_plus_decompose(P)
        T = build_tree(node, P)
        assert T.n == P.n


def test_diamond_tree_is_d4():
    P = corpus_poset("ex33-poset1")
    T = build_tree(ic_decompose(P), P)
    assert str(classify_tree(T)) == "D4"


def test_p12_tree_is_d5_marked_on_short_arm():
    P = star_poset(1, 2)
    T = build_tree(ic_decompose(P), P)
    assert str(classify_tree(T)) == "D5"
    expected = star_tree(1, 1, 2, marked_arm=0)
    assert canonical_marked(T) == canonical_marked(expected)


def test_ex57_tree_shape():
    P = corpus_poset("ex57")
    T = build_tree(ic_decompose(P), P)
    assert T.n == 10
    expected = path_tree(8, marked=0, pendants=(1, 5))
    assert canonical_marked(T) == canonical_marked(expected)
    assert str(classify_tree(T)) == "wild"


def test_ex58_poset1_tree_euclidean():
    P = corpus_poset("ex58-poset1")
    T = build_tree(ic_decompose(P), P)
    cls = classify_tree(T)
    assert str(cls) == "~D6"
    assert cls.family in ("~D", "~E")


def test_ex58_poset2_tree():
    P = corpus_poset("ex58-poset2")
    T = build_tree(ic_decompose(P), P)
    assert T.n == 9
    assert str(classify_tree(T)) == "wild"


def test_star_family_classes():
    cases = {
        (3,): "A5",
        (1, 2): "D5",
        (1, 5): "D8",
        (2, 2): "E6",
        (2, 3): "E7",
        (2, 4): "E8",
        (3, 3): "~E7",
        (2, 5): "~E8",
        (1, 1, 1): "~D4",
    }
    for qs, want in cases.items():
        P = star_poset(*qs)
        T = build_tree(ic_decompose(P), P)
        assert str(classify_tree(T)) == want, qs


def test_finite_type_criterion():
    P1 = corpus_poset("ex58-poset1")
    verdict, reason = finite_type_criterion(P1)
    assert verdict == "finite"
    assert "D6" in reason

    P2 = corpus_poset("ex57")
    verdict, _ = finite_type_criterion(P2)
    assert verdict == "inconclusive"

    verdict, reason = finite_type_criterion(chain(5))
    assert verdict == "finite"
    assert "A4" in reason


def spectral_class(T: TreeShape) -> str:
    """Independent oracle: adjacency spectral radius vs 2, exactly."""
    A = sympy.zeros(T.n, T.n)
    for a, b in T.edges:
        A[a, b] = 1
        A[b, a] = 1
    poly = A.charpoly()
    expr = sympy.Poly(poly.as_expr(), poly.gens[0], domain="QQ")
    above = expr.count_roots(sympy.Rational(2), sympy.oo)
    at_two = expr.eval(2) == 0
    if at_two:
        above -= 1  # count_roots includes the endpoint
    if above > 0:
        return "wild"
    return "euclidean" if at_two else "dynkin"


def test_classification_against_spectral_oracle():
    """Every tree with at most 10 vertices (up to isomorphism, so ~E8 among
    them) and some larger stars: the family against the spectral radius, and
    the index against the vertex count, n for Dynkin and n - 1 for Euclidean."""
    import networkx as nx

    trees = [TreeShape(1, (), 0)]
    for n in range(2, 11):
        trees.extend(TreeShape(n, tuple(G.edges()), 0) for G in nx.nonisomorphic_trees(n))
    for arms in itertools.product(range(1, 5), repeat=3):
        trees.append(star_tree(*arms))
    for arms in itertools.product(range(1, 4), repeat=4):
        trees.append(star_tree(*arms))
    for gap in range(1, 4):
        # two branch vertices with two pendants each, joined by a path
        edges = [(0, 2), (1, 2)]
        prev = 2
        nxt = 3
        for _ in range(gap):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.extend([(prev, nxt), (prev, nxt + 1)])
        trees.append(TreeShape(nxt + 2, tuple(edges), 0))
    for T in trees:
        got = classify_tree(T)
        want = spectral_class(T)
        if want == "dynkin":
            assert got.is_dynkin and got.index == T.n, (T.edges, str(got))
        elif want == "euclidean":
            assert got.family in ("~D", "~E") and got.index == T.n - 1, (T.edges, str(got))
        else:
            assert got.family == "wild", (T.edges, str(got))


def test_tree_to_poset_path_gives_chain():
    T = path_tree(5)
    P = tree_to_poset(T, 0)
    assert P.n == 5
    node = ic_plus_decompose(P)
    assert canonical_marked(build_tree(node, P)) == canonical_marked(T)


def test_tree_to_poset_star_gives_clamped_chains():
    # star with arms 1 (marked), q1, q2 corresponds to chains of lengths q1, q2
    T = star_tree(1, 2, 3, marked_arm=0)
    P = tree_to_poset(T, T.marked)
    node = ic_plus_decompose(P)
    assert node is not None
    assert canonical_marked(build_tree(node, P)) == canonical_marked(T)


def test_tree_to_poset_ex57_roundtrip():
    T = path_tree(8, marked=0, pendants=(1, 5))
    P = tree_to_poset(T, 0)
    assert P.n == 10
    node = ic_plus_decompose(P)
    assert canonical_marked(build_tree(node, P)) == canonical_marked(T)


# sha256 over tree_to_poset(T, leaf).to_text() for the 122 admissible marked
# trees with at most nine vertices, in admissible_marked_trees order.  It pins
# the element names, their order and the relations, not just the shape.
FROMTREE_DIGEST = "6661130e21eabf2f8c63a1e27c924f26ac9e321baaa15015f4b9e0445b7043c6"


def test_tree_to_poset_text_is_pinned():
    h = hashlib.sha256()
    count = 0
    for T, leaf in admissible_marked_trees(9):
        h.update(tree_to_poset(T, leaf).to_text().encode())
        count += 1
    assert count == 122
    assert h.hexdigest() == FROMTREE_DIGEST


def _fromtree_outcome(fn, T, leaf):
    """The poset text fn makes of (T, leaf), or the type and message of what it raises."""
    try:
        return fn(T, leaf).to_text()
    except (BranchTooClose, NotExtreme) as exc:
        return type(exc).__name__, str(exc)


def test_tree_to_poset_matches_the_subtree_recursion_on_random_trees():
    rng = random.Random(3434)
    kinds = set()
    for _ in range(2000):
        T = random_tree(rng, rng.randint(1, 16))
        want = _fromtree_outcome(tree_to_poset_reference, T, T.marked)
        assert _fromtree_outcome(tree_to_poset, T, T.marked) == want, (T.edges, T.marked)
        kinds.add(want[0] if isinstance(want, tuple) else "poset")
    assert kinds == {"poset", "BranchTooClose", "NotExtreme"}


def test_tree_to_poset_matches_the_subtree_recursion_on_derived_trees():
    trees = derived_trees()
    assert len(trees) == 22 + len(random_ic_family())
    for T in trees:
        for leaf in range(T.n):
            want = _fromtree_outcome(tree_to_poset_reference, T, leaf)
            assert _fromtree_outcome(tree_to_poset, T, leaf) == want, (T.edges, leaf)


# sha256 over tree_to_poset(T, 0).to_text() for the 800-vertex caterpillar
# below, recorded from the recursion over induced subtrees
CATERPILLAR_DIGEST = "a58745e50f1d96d463af215ab25cd7d4d74861b97a13630beb56c6c112236dbb"


def test_tree_to_poset_text_of_a_long_caterpillar_is_pinned():
    # a 600-vertex path with a leaf hung at every other vertex from 1 to 399:
    # 200 branch vertices, each nested inside the one before
    T = path_tree(600, marked=0, pendants=range(1, 400, 2))
    assert T.n == 800
    text = tree_to_poset(T, 0).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == CATERPILLAR_DIGEST


def test_realize_shape_takes_chains_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 100
    shape = ("point",)
    for kind in ("adjoin-max", "adjoin-min") * (n // 2):
        shape = (kind, shape)
    P = realize_shape(shape)
    assert P.n == n + 1 and len(P.covers) == n
    assert P.unique_min_max() == (P.id_of(f"e{n + 1}"), P.id_of(f"e{n}"))


def test_tree_to_poset_and_classify_tree_on_a_long_path():
    # neighbors and degree read adjacency built once, and the poset is built in
    # one topological pass over its relations, so both sides stay near-linear
    # in the number of vertices
    T = path_tree(3000)
    assert str(classify_tree(T)) == "A3000"
    P = tree_to_poset(T, 0)
    assert P.n == 3000 and len(P.covers) == 2999


def test_tree_to_poset_rejects_adjacent_branches():
    edges = ((0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 6))
    T = TreeShape(7, edges, 6)
    with pytest.raises(BranchTooClose):
        tree_to_poset(T, 6)


def test_tree_to_poset_rejects_internal_mark():
    T = path_tree(4)
    with pytest.raises(NotExtreme):
        tree_to_poset(T, 1)


def test_tree_shape_rejects_a_non_tree():
    with pytest.raises(PosetarError, match="edge count"):
        TreeShape(4, ((0, 1), (1, 2)), 0)
    with pytest.raises(PosetarError, match="not connected"):
        TreeShape(4, ((0, 1), (1, 2), (2, 0)), 0)


def test_tree_shape_sorts_its_edges_and_gets_fresh_labels():
    T = TreeShape(3, [(1, 0), (2, 1)], 2)
    assert T.edges == ((0, 1), (1, 2))
    assert T.labels == {} and T.labels is not TreeShape(1, (), 0).labels


def test_parse_tree_roundtrip():
    text = "vertices a b c d\nedges a-b b-c b-d\nmark d\n"
    T, idx = parse_tree(text)
    assert T.n == 4
    assert T.marked == idx["d"]
    assert classify_tree(T).family == "D"


def test_parse_tree_skips_comments_blank_lines_and_tabs():
    text = (
        "# a tree file\n"
        "\n"
        "vertices\ta b   # two of four\n"
        "  \t \n"
        "vertices c\td#e\n"
        "\t# an indented comment-only line\n"
        "edges a-b\tb-c  # trailing comment\n"
        "edges b-d\n"
        "mark\td # the leaf\n"
        "\n"
    )
    T, idx = parse_tree(text)
    assert idx == {"a": 0, "b": 1, "c": 2, "d": 3}
    assert (T.edges, T.marked, T.labels) == (((0, 1), (1, 2), (1, 3)), 3, {0: "a", 1: "b", 2: "c", 3: "d"})
    assert str(classify_tree(T)) == "D4"


def test_lattice_property_of_realized_shapes():
    P = realize_shape(("clamp", [("point",), ("clamp", [("point",)])]))
    assert is_lattice(P)
    assert ic_decompose(P) is not None


def _ic_decompose_reference(P):
    """The direct pure clamp/point recursion, the oracle for ic_decompose."""

    def go(subset):
        if len(subset) == 1:
            x = next(iter(subset))
            return ICNode("point", x, x, subset)
        mins = [x for x in subset if not any(P.lt(y, x) for y in subset)]
        maxs = [x for x in subset if not any(P.lt(x, y) for y in subset)]
        if len(mins) != 1 or len(maxs) != 1:
            return None
        lo, hi = mins[0], maxs[0]
        kids = []
        for comp in P.connected_components(subset - {lo, hi}):
            node = go(comp)
            if node is None:
                return None
            kids.append(node)
        return ICNode("clamp", lo, hi, subset, tuple(kids))

    return go(frozenset(P.elements()))


def test_witness_of_a_long_chain_compares_and_hashes_in_a_loop():
    # one clamp per nesting level: equality pairs the nodes in a loop, and the
    # hash reads the node's own kind, ends and subset, not its children
    P = chain(1000)
    node = ic_plus_decompose(P)
    again = ic_plus_decompose(P)
    assert node is not again
    assert node == again and hash(node) == hash(again)
    assert len({node, again}) == 1
    # the same chain but for 499 and 500 side by side: witnesses part 250 levels down
    rels = [(i, i + 1) for i in range(999) if i not in (498, 499, 500)]
    Q = Poset(P.names, rels + [(498, 499), (498, 500), (499, 501), (500, 501)])
    assert node != ic_plus_decompose(Q)


def _random_shape_with_adjunctions(rng, size):
    if size >= 2 and rng.random() < 0.3:
        return (rng.choice(["adjoin-min", "adjoin-max"]), _random_shape_with_adjunctions(rng, size - 1))
    if size <= 2:
        return random_ic_shape(rng, size)
    rest = size - 2
    parts = []
    while rest > 0:
        parts.append(rng.randint(1, rest))
        rest -= parts[-1]
    return ("clamp", [_random_shape_with_adjunctions(rng, k) for k in parts])


def _random_poset(rng, n):
    rels = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
    return Poset([f"p{i}" for i in range(n)], rels)


def test_ic_decompose_matches_pure_recursion():
    rng = random.Random(11)
    posets = [corpus_poset(cid) for cid in corpus_ids()] + random_ic_family()
    posets += [realize_shape(_random_shape_with_adjunctions(rng, rng.randint(1, 12))) for _ in range(300)]
    posets += [_random_poset(rng, rng.randint(1, 9)) for _ in range(300)]
    posets += [P.opposite() for P in posets]
    pure = 0
    for P in posets:
        want = _ic_decompose_reference(P)
        assert ic_decompose(P) == want
        pure += want is not None
    assert 0 < pure < len(posets)
