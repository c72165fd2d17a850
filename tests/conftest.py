import random
from dataclasses import dataclass

from posetar.clamped import is_clamped
from posetar.errors import NotIndecomposable, PosetarError
from posetar.homalg import tau, tau_inverse
from posetar.ictree import TreeShape, ic_decompose, realize_shape
from posetar.knit import ar_sequence_end
from posetar.linalg import QQ
from posetar.poset import _bits
from posetar.rep import constant_on, is_isomorphic, radical, restrict, socle
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


def quick_right_terminations(sl, budget=10):
    """Steps of inverse-translate iteration until an injective, per orbit of
    the slice, or None when none is reached within the budget."""
    out = {}
    for v in range(sl.tree.n):
        cur, out[v] = sl.modules[v], None
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
