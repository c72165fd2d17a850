import random

from posetar.ictree import TreeShape, realize_shape


def path_tree(n, marked=0, pendants=()):
    """Path 0..n-1 with extra leaves attached at the given positions."""
    edges = [(i, i + 1) for i in range(n - 1)]
    m = n
    for at in pendants:
        edges.append((at, m))
        m += 1
    return TreeShape(m, tuple(edges), marked)


def star_tree(*arms, marked_arm=0):
    """Star with the given arm lengths (edges); marked at one arm's tip."""
    edges = []
    nxt = 1
    tips = []
    for a in arms:
        prev = 0
        for _ in range(a):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        tips.append(prev)
    return TreeShape(nxt, tuple(edges), tips[marked_arm])


def admissible_marked_trees(max_n):
    """Each tree with at most max_n vertices whose branch vertices are pairwise
    at distance >= 2, marked at one leaf per marked-isomorphism class, as
    (tree, leaf): networkx's tree order, then the leaves in order."""
    import networkx as nx

    for n in range(1, max_n + 1):
        if n == 1:
            trees = [TreeShape(1, (), 0)]
        else:
            trees = [TreeShape(n, tuple(G.edges()), 0) for G in nx.nonisomorphic_trees(n)]
        for T in trees:
            branch = [v for v in range(T.n) if T.degree(v) >= 3]
            if not all(T.distances_from(x)[y] >= 2 for i, x in enumerate(branch) for y in branch[i + 1:]):
                continue
            seen = set()
            for leaf in T.leaves():
                marked = TreeShape(T.n, T.edges, leaf)
                canon = marked.canonical_marked()
                if canon not in seen:
                    seen.add(canon)
                    yield marked, leaf


def random_ic_shape(rng: random.Random, size: int):
    """Random iterated-clamping shape with exactly `size` elements."""
    if size == 1:
        return ("point",)
    if size == 2:
        return ("clamp", [])
    rest = size - 2
    parts = []
    while rest > 0:
        k = rng.randint(1, rest)
        parts.append(k)
        rest -= k
    rng.shuffle(parts)
    return ("clamp", [random_ic_shape(rng, k) for k in parts])


def random_ic_family(seed: int = 20240, count: int = 22, max_size: int = 12):
    """Seed-pinned family of iterated-clamping posets."""
    rng = random.Random(seed)
    out = []
    sizes = [4 + (i % (max_size - 3)) for i in range(count)]
    for i, size in enumerate(sizes):
        P = realize_shape(random_ic_shape(rng, size), prefix=f"x{i}_")
        P.name = f"random-ic-{i}"
        out.append(P)
    return out
