import random
import re

import networkx as nx
import pytest
from conftest import is_lattice

from posetar.corpus import corpus_ids, corpus_poset
from posetar.errors import CycleDetected, DuplicateElement, NotComparable, UnknownElement
from posetar.poset import Poset, chain, parse_poset


EX57_TEXT = """\
poset ex57
elements alpha beta gamma delta epsilon zeta eta theta iota omega
covers
alpha < beta
beta < gamma
gamma < delta
delta < epsilon
epsilon < eta
eta < theta
theta < omega
gamma < zeta
zeta < eta
alpha < iota
iota < omega
"""


def test_parse_two_chain():
    P = parse_poset("elements a b\ncovers\na < b")
    assert P.n == 2
    assert P.leq(P.id_of("a"), P.id_of("b"))
    assert P.covers == ((0, 1),)


def test_parse_cycle_detected():
    with pytest.raises(CycleDetected, match=r"^elements 'a' and 'b' are mutually comparable$"):
        parse_poset("covers\na < b\nb < a")
    with pytest.raises(CycleDetected) as exc:
        parse_poset("covers\nd < e\nc < d\nz < a\na < b\nb < c\nc < a")  # d, e hang off the cycle
    named = re.findall(r"'(\w+)'", str(exc.value))
    assert len(set(named)) == 2 and set(named) <= {"a", "b", "c"}


def test_parse_duplicate_and_unknown():
    with pytest.raises(DuplicateElement, match=r"^element 'a' declared twice$"):
        parse_poset("elements a a\ncovers\na < a")
    with pytest.raises(UnknownElement, match=r"^relation mentions undeclared element 'c'$"):
        parse_poset("elements a b\ncovers\na < c")


def test_parse_reduces_redundant_relations():
    P = parse_poset("elements a b c\ncovers\na < b\nb < c\na < c")
    assert P.covers == ((0, 1), (1, 2))
    P = parse_poset("covers\na < a")  # a relation x < x is ignored
    assert P.n == 1 and P.covers == ()


def test_ex57_poset_shape():
    P = parse_poset(EX57_TEXT)
    assert P.n == 10
    assert len(P.covers) == 11
    assert P.unique_min_max() == (P.id_of("alpha"), P.id_of("omega"))


def test_closed_interval_on_chain():
    P = chain(4)
    got = P.closed_interval(P.id_of("2"), P.id_of("3"))
    assert {P.names[x] for x in got} == {"2", "3"}


def test_interval_not_comparable():
    P = parse_poset(EX57_TEXT)
    with pytest.raises(NotComparable):
        P.closed_interval(P.id_of("eta"), P.id_of("epsilon"))


def test_ex57_interval_beta_eta():
    P = parse_poset(EX57_TEXT)
    got = P.closed_interval(P.id_of("beta"), P.id_of("eta"))
    assert {P.names[x] for x in got} == {"beta", "gamma", "delta", "epsilon", "zeta", "eta"}


def test_unique_min_max_absent():
    P = parse_poset("elements a b\ncovers\n")
    assert P.unique_min_max() is None


def test_connected_components_open_interval():
    P = parse_poset(EX57_TEXT)
    a, w = P.unique_min_max()
    comps = P.connected_components(P.closed_interval(a, w) - {a, w})
    assert {P.names[x] for x in comps[0]} | {P.names[x] for x in comps[1]} == {
        "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota"
    }
    sizes = sorted(len(c) for c in comps)
    assert sizes == [1, 7]


def test_opposite_involution():
    P = parse_poset(EX57_TEXT)
    Q = P.opposite().opposite()
    assert Q.covers == P.covers
    assert Q.names == P.names


def test_opposite_is_built_once_and_named():
    P = parse_poset(EX57_TEXT)
    Q = P.opposite()
    assert Q is P.opposite()
    assert Q.opposite() is P
    assert Q.name == "ex57^op"
    assert Q.covers == tuple(sorted((y, x) for x, y in P.covers))
    assert chain(3).opposite().name == ""


def test_parse_skips_comments_blank_lines_and_tabs():
    text = (
        "# a commented header\n"
        "\n"
        "poset\tspaced   # a trailing comment\n"
        "   \t\n"
        "elements\ta b\n"
        "elements c#d\n"
        "  # an indented comment-only line\n"
        "covers\t# relations follow\n"
        "a\t<\tb   # trailing\n"
        "\n"
        "b < c\n"
        "a < c\n"
    )
    P = parse_poset(text)
    assert (P.name, P.names, P.covers) == ("spaced", ("a", "b", "c"), ((0, 1), (1, 2)))


def test_roundtrip_text():
    P = parse_poset(EX57_TEXT)
    Q = parse_poset(P.to_text())
    assert Q.covers == P.covers
    assert Q.names == P.names


def test_linear_extension_is_topological():
    P = parse_poset(EX57_TEXT)
    order = P.linear_extension()
    pos = {x: i for i, x in enumerate(order)}
    for x, y in P.covers:
        assert pos[x] < pos[y]


def test_is_lattice():
    assert is_lattice(chain(3))
    P = parse_poset(EX57_TEXT)
    assert is_lattice(P)
    V = parse_poset("elements a b c\ncovers\na < b\na < c")
    assert not is_lattice(V)
    assert not is_lattice(parse_poset("elements a b\ncovers"))  # no upper bound
    bowtie = "covers\na < c\na < d\nb < c\nb < d"
    assert not is_lattice(parse_poset(bowtie))  # two minimal upper bounds
    assert not is_lattice(parse_poset(bowtie + "\n0 < a\n0 < b\nc < 1\nd < 1"))


def test_ex57_is_self_dual():
    # the explicit flip pairing the two chain ends realizes an isomorphism
    # with the opposite poset
    P = parse_poset(EX57_TEXT)
    Q = P.opposite()
    flip = {
        "alpha": "omega", "omega": "alpha",
        "beta": "theta", "theta": "beta",
        "gamma": "eta", "eta": "gamma",
        "delta": "epsilon", "epsilon": "delta",
        "zeta": "zeta", "iota": "iota",
    }
    mapped = {
        tuple(sorted((flip[P.names[x]], flip[P.names[y]])))
        for x, y in P.covers
    }
    got = {tuple(sorted((Q.names[x], Q.names[y]))) for x, y in Q.covers}
    assert mapped == got


def test_parse_closure_reduction_invariant():
    for text in (EX57_TEXT, "covers\na < b\nb < c\na < c\nc < d\na < d"):
        P = parse_poset(text)
        # transitive closure of covers equals leq off the diagonal
        reach = {x: {x} for x in P.elements()}
        changed = True
        while changed:
            changed = False
            for x, y in P.covers:
                for s in P.elements():
                    if x in reach[s] and y not in reach[s]:
                        reach[s].add(y)
                        changed = True
        for x in P.elements():
            assert reach[x] == set(P.up_set(x))
        # covers form the transitive reduction: no cover is implied by others
        for x, y in P.covers:
            between = [z for z in P.elements() if z != x and z != y and P.lt(x, z) and P.lt(z, y)]
            assert not between


def test_diamond_open_interval_components():
    P = parse_poset("covers\na < 1\na < 2\n1 < b\n2 < b")
    a, w = P.unique_min_max()
    comps = P.connected_components(P.closed_interval(a, w) - {a, w})
    assert sorted(len(c) for c in comps) == [1, 1]


def test_ex58_poset1_open_interval_components():
    P = parse_poset(
        "covers\nalpha < beta\nbeta < gamma\nbeta < delta\n"
        "gamma < epsilon\ndelta < epsilon\nepsilon < omega\n"
        "alpha < zeta\nzeta < omega"
    )
    a, w = P.unique_min_max()
    comps = P.connected_components(P.closed_interval(a, w) - {a, w})
    names = sorted((frozenset(P.names[x] for x in c) for c in comps), key=len)
    assert names[0] == frozenset({"zeta"})
    assert names[1] == frozenset({"beta", "gamma", "delta", "epsilon"})


# -- the order against networkx ------------------------------------------------


def _assert_matches_networkx(P: Poset, relations, rng: random.Random) -> None:
    """up, down, covers, linear extension and components of P, which was built
    from the given relations, against networkx on the same relations."""
    G = nx.DiGraph()
    G.add_nodes_from(P.elements())
    G.add_edges_from((x, y) for x, y in relations if x != y)
    closure = nx.transitive_closure_dag(G)

    def masks(neighbours):
        return tuple(sum(1 << y for y in {x, *neighbours(x)}) for x in P.elements())

    assert P.up == masks(closure.successors)
    assert P.down == masks(closure.predecessors)
    assert P.covers == tuple(sorted(nx.transitive_reduction(G).edges))
    key = P.names.__getitem__
    assert P.linear_extension() == tuple(nx.lexicographical_topological_sort(G, key=key))
    for subset in (list(P.elements()), [x for x in P.elements() if rng.random() < 0.6]):
        comparability = closure.subgraph(subset).to_undirected()
        want = sorted(sorted(c) for c in nx.connected_components(comparability))
        assert sorted(sorted(c) for c in P.connected_components(subset)) == want


@pytest.mark.parametrize("cid", corpus_ids())
def test_order_matches_networkx_on_the_corpus(cid):
    rng = random.Random(cid)
    P = corpus_poset(cid)
    names = list(P.names)
    _assert_matches_networkx(Poset(names, P.covers), P.covers, rng)
    pairs = [(x, y) for x in P.elements() for y in P.strict_up(x)]
    noisy = pairs + rng.sample(pairs, len(pairs) // 2) + [(x, x) for x in P.elements()]
    rng.shuffle(noisy)
    _assert_matches_networkx(Poset(names, noisy), noisy, rng)
    _assert_matches_networkx(P.opposite(), [(y, x) for x, y in P.covers], rng)


def test_order_matches_networkx_on_random_dags():
    rng = random.Random(20240)
    for _ in range(60):
        n = rng.randint(0, 16)
        rank = rng.sample(range(n), n)
        p = rng.random() * 0.5
        relations = [
            (x, y) for x in range(n) for y in range(n) if rank[x] < rank[y] and rng.random() < p
        ]
        names = [f"v{rng.randrange(1000)}_{i}" for i in range(n)]
        _assert_matches_networkx(Poset(names, relations), relations, rng)


# -- induced subposets against every comparable pair ---------------------------


def _induced_by_all_pairs(P: Poset, subset) -> Poset:
    """The subposet built from every comparable pair of the subset."""
    ids = P.sorted_ids(subset)
    back = {x: i for i, x in enumerate(ids)}
    rels = [(back[x], back[y]) for x in ids for y in P.strict_up(x) if y in back]
    return Poset([P.names[x] for x in ids], rels)


@pytest.mark.parametrize("cid", corpus_ids())
def test_induced_matches_all_comparable_pairs(cid):
    rng = random.Random(cid)
    P = corpus_poset(cid)
    for Q in (P, P.opposite()):
        subsets = [list(Q.elements()), []]
        subsets += [[x for x in Q.elements() if rng.random() < p] for p in (0.2, 0.5, 0.8) for _ in range(12)]
        for subset in subsets:
            sub, ids = Q.induced(subset)
            want = _induced_by_all_pairs(Q, subset)
            assert ids == Q.sorted_ids(subset)
            assert sub.up == want.up and sub.covers == want.covers
            assert sub.linear_extension() == want.linear_extension()
