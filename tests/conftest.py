import random
from dataclasses import dataclass

from posetar.clamped import is_clamped
from posetar.corpus import corpus_ids, corpus_poset
from posetar.errors import BranchTooClose, NotExtreme, NotIndecomposable, PosetarError
from posetar.homalg import tau, tau_inverse
from posetar.ictree import TreeShape, build_tree, ic_decompose, ic_plus_decompose, realize_shape
from posetar.knit import ar_sequence_end
from posetar.linalg import QQ, Mat, _cols, _dots, _null_from_echelon, _rref_rows, _unit_rows
from posetar.poset import _bits
from posetar.rep import Morphism, _rep, constant_on, is_isomorphic, radical, restrict, socle
from posetar.split import _canonical_order, group_isomorphic, is_indecomposable, split_indecomposables, split_once


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
            for leaf in (v for v in range(T.n) if T.degree(v) <= 1):
                marked = TreeShape(T.n, T.edges, leaf)
                canon = canonical_marked(marked)
                if canon not in seen:
                    seen.add(canon)
                    yield marked, leaf


def canonical_marked(T):
    """The AHU canonical form of the tree T rooted at its marked vertex: two
    marked trees are isomorphic exactly when their forms are equal."""

    def go(v, parent):
        return tuple(sorted(go(u, v) for u in T.neighbors(v) if u != parent))

    return go(T.marked, None)


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


def derived_trees():
    """The derived tree of every corpus poset that has one, then of each
    poset of random_ic_family."""
    posets = [corpus_poset(cid) for cid in corpus_ids()] + random_ic_family()
    nodes = [(P, ic_plus_decompose(P)) for P in posets]
    return [build_tree(node, P) for P, node in nodes if node is not None]


# -- oracles: the paper's clamping results and other test-only checks ----------


def is_lattice(P):
    """Every two elements have a join and a meet.

    The common upper bounds of x and y have a least element exactly when
    they are some element's up-set (dually for meets).  Comparable pairs
    always pass, so only incomparable pairs are tested.
    """
    ups, downs = set(P.up), set(P.down)
    for x in range(P.n):
        later = (1 << P.n) - (2 << x)
        for y in _bits(later & ~(P.up[x] | P.down[x])):
            if P.up[x] & P.up[y] not in ups or P.down[x] & P.down[y] not in downs:
                return False
    return True


def assert_natural(f):
    """The morphism f commutes with the structure maps on every cover."""
    M, N = f.source, f.target
    for (x, y) in M.poset.covers:
        assert N.maps[(x, y)].mul(f.blocks[x]) == f.blocks[y].mul(M.maps[(x, y)]), (x, y)


def is_surjective(f):
    return all(b.rank() == b.r for b in f.blocks)


def subrep_from_bases(M, bases):
    """The subrepresentation with the given per-element bases, and its
    inclusion, by one linear solve per cover: the reference for the kernel,
    image, radical and socle constructions of `rep`.

    bases[x] has linearly independent columns, which become the basis of the
    subrepresentation at x and the block of its inclusion there.  The cover
    map is the unique solution of bases[y] X = M(x, y) bases[x]; there is
    none when the spans are not closed under the structure maps.
    """
    P = M.poset
    maps = {}
    for y in P.linear_extension():
        for x in P.covers_below(y):
            m = bases[y].solve(M.maps[(x, y)].mul(bases[x]))
            if m is None:
                raise PosetarError("spans are not closed under the structure maps")
            maps[(x, y)] = m
    S = _rep(P, M.field, [b.c for b in bases], maps)
    return S, Morphism(S, M, bases)


def constant_on_reference(P, subset, field):
    """The dims and cover maps of k_subset as constant_on built it with a
    loop of its own: a checked 1 x 1 identity on every cover inside the
    subset, then, as the constructor filled them in, the zero map on every
    other cover.  The reference for constant_on through rep._realize_layout."""
    dims = [1 if x in subset else 0 for x in P.elements()]
    maps = {}
    one = field.one
    for (x, y) in P.covers:
        if x in subset and y in subset:
            maps[(x, y)] = Mat(field, [[one]], 1, 1)
    for (x, y) in P.covers:
        if (x, y) not in maps:
            maps[(x, y)] = Mat.zero(field, dims[y], dims[x])
    return dims, maps


def quick_right_terminations(sl, budget=10):
    """Steps of inverse-translate iteration until an injective, per orbit of
    the slice, or None when none is reached within the budget."""
    out = {}
    for v in range(sl.tree.n):
        cur, out[v] = constant_on(sl.poset, sl.tree.supports[v], sl.field), None
        for steps in range(budget + 1):
            cur = tau_inverse(cur)
            if cur is None:
                out[v] = steps
                break
    return out


def tau_commutes_with_restriction_check(P, a, b, M):
    """For clamped [a,b] and an indecomposable M supported on [a,b): whether
    the translate of M restricted to the interval is the interval algebra's
    own translate of M restricted there."""
    if not is_clamped(P, a, b).clamped:
        raise PosetarError("interval is not clamped")
    members = P.closed_interval(a, b)
    if not M.support() <= (members - {b}):
        raise PosetarError("module must be supported on the half-open interval")
    if not is_indecomposable(M):
        raise NotIndecomposable("restriction commutation is stated for indecomposables")
    t_full, t_sub = tau(M), tau(restrict(M, members)[0])
    if t_full is None or t_sub is None:
        raise PosetarError("module must be non-projective over both algebras")
    return is_isomorphic(restrict(t_full, members)[0], t_sub)


@dataclass
class GlueReport:
    top_mesh_ok: bool
    interval_results: list  # (label, ending mesh ok, starting mesh ok) per clamp
    details: list

    @property
    def ok(self):
        return self.top_mesh_ok and all(a and b for _, a, b in self.interval_results)


def _summand_multiset(middles):
    return sorted((tuple(rep.dims), mult) for rep, mult in middles)


def _expected_middles(parts):
    pairs = [pair for part in parts for pair in split_indecomposables(part)]
    return _summand_multiset(group_isomorphic(pairs))


def glue_meshes_check(P, field=QQ):
    """The boundary meshes at the largest projective and at each clamp of an
    iterated-clamping poset with two ends, against their predicted terms."""
    node = ic_decompose(P)
    mm = P.unique_min_max()
    if node is None or mm is None or P.n < 2:
        raise PosetarError("glue check expects an iterated-clamping poset with two ends")
    alpha, omega = mm
    details = []

    Pa = constant_on(P, P.up_set(alpha), field)
    RadPa, _ = radical(Pa)
    PaSoc, _ = socle(Pa)[1].cokernel()
    RadPaSoc, _ = socle(RadPa)[1].cokernel()

    seq = ar_sequence_end(PaSoc)
    top_ok = is_isomorphic(seq.tau_end, RadPa) and _summand_multiset(seq.middles) == _expected_middles(
        [Pa, RadPaSoc]
    )
    details.append("mesh ending at the largest-projective quotient: " + ("ok" if top_ok else "FAIL"))

    interval_results = []
    for child in node.children:
        a, z = child.low, child.high
        label = f"[{P.names[a]},{P.names[z]}]"
        M = constant_on(P, P.closed_interval(a, z), field)
        RadM, _ = radical(M)
        MSoc, _ = socle(M)[1].cokernel()

        seq_end = ar_sequence_end(M)
        want_tau = constant_on(P, frozenset(P.elements()) - {alpha, a}, field)
        end_ok = is_isomorphic(seq_end.tau_end, want_tau) and _summand_multiset(
            seq_end.middles
        ) == _expected_middles([RadPa, RadM])

        tinv = tau_inverse(M)
        want_tinv = constant_on(P, frozenset(P.elements()) - {omega, z}, field)
        start_ok = tinv is not None and is_isomorphic(tinv, want_tinv)
        if start_ok:
            seq_start = ar_sequence_end(tinv)
            start_ok = is_isomorphic(seq_start.tau_end, M) and _summand_multiset(
                seq_start.middles
            ) == _expected_middles([PaSoc, MSoc])
        interval_results.append((label, end_ok, start_ok))
        details.append(
            f"meshes at the clamp {label}: ending "
            + ("ok" if end_ok else "FAIL")
            + ", starting "
            + ("ok" if start_ok else "FAIL")
        )
    return GlueReport(top_ok, interval_results, details)


def split_without_stop(M):
    """split_indecomposables as a plain loop: split_once on every summand,
    last split first, until each one is indecomposable, with no End/rad
    count to stop early."""
    if M.is_zero():
        return []
    pieces, stack = [], [M]
    while stack:
        cur = stack.pop()
        res = split_once(cur)
        if res is None:
            pieces.append(cur)
        else:
            stack.extend(res)
    return _canonical_order(group_isomorphic([(piece, 1) for piece in pieces]), M.poset, M.field)


def two_walk_presentation(P, field, dims, maps):
    """The minimal presentation of the module with dimensions dims and cover
    map rows maps in two walks up the linear extension, as homalg computed
    it before its one walk: the cover and its kernel first, then the
    kernel's generators.  Returns the labels L0 and L1, the columns of the
    cover's block at each element, and the scalar rows of P(L1) -> P(L0)."""
    p = field.p
    gens, lay = [], [[] for _ in dims]
    at = [{} for _ in dims]  # at[w][j]: generator j at w
    cover, syz = [None] * len(dims), [None] * len(dims)
    for w in P.linear_extension():
        d, js = dims[w], lay[w]
        if not d:
            cover[w], syz[w] = [()] * len(js), _unit_rows(len(js)) if js else ()
            continue
        col = at[w]
        for y in P.covers_below(w):
            if dims[y]:
                for j, u in at[y].items():
                    if j not in col:
                        col[j] = _dots(u, maps[(y, w)], field)
        zero, units = (0,) * d, _unit_rows(d)
        C = [col.get(j) or zero for j in js]
        c = len(C)
        R, pivots = _rref_rows(p, tuple([r + e for r, e in zip(_cols(C, d), units)]), c + d) if c else (units, range(d))
        new = [q - c for q in pivots if q >= c]
        ids = range(len(gens), len(gens) + len(new))
        for j, q in zip(ids, new):
            gens.append((w, units[q]))
            col[j] = units[q]
        for u in P.up_set(w) if new else ():
            lay[u].extend(ids)
        cover[w] = C + [units[q] for q in new]
        if not c:
            syz[w] = ()
        else:
            sel = list(range(c)) + [c + q for q in new]
            at_sel = {q: i for i, q in enumerate(sel)}
            syz[w] = _null_from_echelon(p, [tuple([row[q] for q in sel]) for row in R],
                                        [at_sel[q] for q in pivots], len(sel))
    L0 = tuple(x for x, _ in gens)
    gens1 = []
    for y in P.linear_extension():
        basis, js = syz[y], lay[y]
        if not basis:
            continue
        pos, rad = {j: k for k, j in enumerate(js)}, []
        for x in P.covers_below(y):
            for v in syz[x]:
                row = [0] * len(js)
                for j, a in zip(lay[x], v):
                    row[pos[j]] = a
                rad.append(row)
        n = len(rad)
        pivots = _rref_rows(p, tuple(zip(*rad, *basis)), n + len(basis))[1] if n else range(len(basis))
        gens1 += [(y, basis[q - n]) for q in pivots if q >= n]
    cols = []
    for x, v in gens1:
        col = [field.zero] * len(L0)
        for j, a in zip(lay[x], v):
            col[j] = a
        cols.append(col)
    return L0, cover, tuple(x for x, _ in gens1), tuple(zip(*cols))


# -- references: earlier implementations that the current walks must match ------


def tree_to_poset_reference(T, p):
    """tree_to_poset as a recursion over induced subtrees: the branch vertex
    nearest the mark clamps the subtrees away from it, each rebuilt as a
    TreeShape marked where it meets that vertex, and the distance condition
    runs one breadth-first search per branch vertex."""
    if T.n > 1 and T.degree(p) != 1:
        raise NotExtreme(f"vertex {T.labels.get(p, p)} is not a leaf")
    branch = [v for v in range(T.n) if T.degree(v) >= 3]
    for i, a in enumerate(branch):
        dist = T.distances_from(a)
        for b in branch[i + 1:]:
            if dist[b] < 2:
                raise BranchTooClose(
                    f"branch vertices {T.labels.get(a, a)} and {T.labels.get(b, b)} are adjacent"
                )

    def go(tree, mark):
        branch = [v for v in range(tree.n) if tree.degree(v) >= 3]
        if not branch:
            shape = ("point",)
            for _ in range(tree.n - 1):
                shape = ("adjoin-max", shape)
            return shape
        dist_to_p = tree.distances_from(mark)
        x = min(branch, key=lambda v: (dist_to_p[v], v))
        kids = []
        for u in tree.neighbors(x):
            if dist_to_p[u] > dist_to_p[x]:
                sub, back = tree.induced(tree.component(u, {x}))
                kids.append(go(sub, back[u]))
        shape = ("clamp", kids)
        for _ in range(dist_to_p[x] - 1):
            shape = ("adjoin-min", shape)
        return shape

    P = realize_shape(go(T, p))
    P.name = "fromtree"
    return P


def wing_window_reference(T):
    """wing_window as a frontier loop out from the marked vertex."""
    orientation = set(T.arrows)
    window = {T.marked: (0, 0)}
    frontier = [T.marked]
    while frontier:
        nxt = []
        for u in frontier:
            lo_u, hi_u = window[u]
            for w in T.neighbors(u):
                if w in window:
                    continue
                if (u, w) in orientation:
                    window[w] = (lo_u - 1, hi_u)
                else:
                    window[w] = (lo_u, hi_u + 1)
                nxt.append(w)
        frontier = nxt
    return window


def random_tree(rng: random.Random, n: int):
    """Random tree on n shuffled vertices, each edge oriented at random, marked
    at a leaf (at any vertex one time in five) and, half the time, labelled v<i>.
    Each vertex hangs from the one made before it half the time, so long
    unbranched paths are common."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[i - 1 if rng.random() < 0.5 else rng.randrange(i)]) for i in range(1, n)]
    arrows = tuple(e if rng.random() < 0.5 else e[::-1] for e in edges)
    leaves = [v for v in range(n) if sum(v in e for e in edges) <= 1]
    marked = rng.choice(leaves) if rng.random() < 0.8 else rng.randrange(n)
    labels = {v: f"v{v}" for v in range(n)} if rng.random() < 0.5 else None
    return TreeShape(n, tuple(edges), marked, labels, arrows=arrows)
