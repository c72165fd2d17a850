"""Iterated-clamping structure: decompositions, derived trees, ADE classes.

A poset built by repeatedly clamping interval stacks between a fresh minimum
and maximum admits a recursive witness (ICNode).  The witness determines a
finite tree: the derived category of the incidence algebra is equivalent to
that of a hereditary algebra over any orientation of the tree, so the tree's
ADE class answers the fractional Calabi-Yau and finite-type questions.
"""

from __future__ import annotations

from .errors import BranchTooClose, NotExtreme, ParseError, PosetarError
from .poset import Poset, _lines, _mask


class ICNode:
    """Decomposition witness.

    kind 'point': a single element (low == high).
    kind 'clamp': children are the components of the open interval (low, high).
    kind 'adjoin-min'/'adjoin-max': one extremal element added to the child.
    subset is the set of elements the node was built from: its ends and the
    subsets of its children.  adjoins says whether the node or a node below it
    is an adjunction.  Two witnesses are equal when their kinds, ends and
    children are.
    """

    __slots__ = ("kind", "low", "high", "subset", "children", "adjoins")

    def __init__(
        self, kind: str, low: int, high: int, subset: frozenset[int], children: tuple["ICNode", ...] = ()
    ) -> None:
        self.kind = kind
        self.low = low
        self.high = high
        self.subset = subset
        self.children = children
        self.adjoins = kind in ("adjoin-min", "adjoin-max") or any(ch.adjoins for ch in children)

    def __eq__(self, other) -> bool:
        pairs = [(self, other)]  # nodes in the same position of both witnesses
        while pairs:
            a, b = pairs.pop()
            if not isinstance(b, ICNode) or (a.kind, a.low, a.high, len(a.children)) != (
                b.kind, b.low, b.high, len(b.children)
            ):
                return False
            pairs += zip(a.children, b.children)
        return True

    def __hash__(self) -> int:
        # equal witnesses were built from equal subsets
        return hash((self.kind, self.low, self.high, self.subset))

    def uses_adjoin(self) -> bool:
        return self.adjoins

    def render(self, P: Poset) -> str:
        """One line per node in pre-order, indented two spaces per level."""
        lines = []
        stack = [(self, 0)]
        while stack:
            nd, depth = stack.pop()
            if nd.kind == "clamp":
                ends = f"[{P.names[nd.low]}, {P.names[nd.high]}]"
            else:
                ends = P.names[nd.high if nd.kind == "adjoin-max" else nd.low]
            lines.append(f"{'  ' * depth}{nd.kind} {ends}")
            stack += [(ch, depth + 1) for ch in reversed(nd.children)]
        return "\n".join(lines)


class TreeShape:
    """Finite tree with one marked vertex and optional per-vertex data."""

    __slots__ = ("n", "edges", "marked", "labels", "supports", "arrows", "_adj")

    def __init__(
        self,
        n: int,
        edges: tuple[tuple[int, int], ...],
        marked: int,
        labels: dict[int, str] | None = None,
        supports: dict[int, frozenset[int]] | None = None,
        arrows: tuple[tuple[int, int], ...] | None = None,  # slice orientation
    ) -> None:
        self.n = n
        self.edges = tuple(tuple(sorted(e)) for e in edges)
        self.marked = marked
        self.labels = {} if labels is None else labels
        self.supports = supports
        self.arrows = arrows
        if len(self.edges) != self.n - 1:
            raise PosetarError("edge count does not match a tree")
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self._adj = tuple(tuple(sorted(vs)) for vs in adj)
        if self.n > 0 and len(self.distances_from(0)) != self.n:
            raise PosetarError("tree is not connected")

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def distances_from(self, v: int) -> dict[int, int]:
        dist = {v: 0}
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for w in self.neighbors(u):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def without_vertices(self, kill: set[int]) -> list["TreeShape"]:
        comps: list[TreeShape] = []
        seen: set[int] = set()
        for s in range(self.n):
            if s in kill or s in seen:
                continue
            comp = self.component(s, kill)
            seen |= comp
            comps.append(self.induced(comp)[0])
        return comps

    def component(self, start: int, kill: set[int]) -> set[int]:
        """Vertices reachable from start without passing through kill."""
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in self.neighbors(v):
                if u not in kill and u not in comp:
                    comp.add(u)
                    stack.append(u)
        return comp

    def induced(self, comp: set[int]) -> tuple["TreeShape", dict[int, int]]:
        """Subtree on comp, relabeled in sorted order and marked at 0, with the relabeling."""
        back = {v: i for i, v in enumerate(sorted(comp))}
        edges = [(back[a], back[b]) for a, b in self.edges if a in comp and b in comp]
        return TreeShape(len(back), tuple(edges), 0), back

    def to_dot(self) -> str:
        lines = ["graph tree {", "  node [shape=circle];"]
        for v in range(self.n):
            shape = "doublecircle" if v == self.marked else "circle"
            label = self.labels.get(v, str(v))
            lines.append(f'  v{v} [shape={shape}, label="{label}"];')
        for a, b in self.edges:
            lines.append(f"  v{a} -- v{b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


class TreeClass:
    """ADE classification: family in A/D/E (Dynkin), ~D/~E (Euclidean), wild."""

    __slots__ = ("family", "index")

    def __init__(self, family: str, index: int | None = None) -> None:
        self.family = family
        self.index = index

    def __eq__(self, other) -> bool:
        return isinstance(other, TreeClass) and (self.family, self.index) == (other.family, other.index)

    def __hash__(self) -> int:
        return hash((self.family, self.index))

    @property
    def is_dynkin(self) -> bool:
        return self.family in ("A", "D", "E")

    def __str__(self) -> str:
        if self.family == "wild":
            return "wild"
        return f"{self.family}{self.index}"


def _arm_lengths(T: TreeShape, b: int) -> tuple[int, ...]:
    """Edge lengths of the arms at b, sorted, when b is the only branch vertex:
    every other vertex has degree at most 2, so each arm is a path."""
    arms = []
    for start in T.neighbors(b):
        length = 1
        prev, cur = b, start
        while T.degree(cur) == 2:
            prev, cur = cur, next(u for u in T.neighbors(cur) if u != prev)
            length += 1
        arms.append(length)
    return tuple(sorted(arms))


# (family, index) of each star but D_{r+3}, by its sorted arm lengths;
# a star that is not listed is wild
_STARS = {
    (1, 2, 2): ("E", 6), (1, 2, 3): ("E", 7), (1, 2, 4): ("E", 8),
    (2, 2, 2): ("~E", 6), (1, 3, 3): ("~E", 7), (1, 2, 5): ("~E", 8),
    (1, 1, 1, 1): ("~D", 4),
}


def classify_tree(T: TreeShape) -> TreeClass:
    n = T.n
    if n == 0:
        raise PosetarError("empty tree")
    branch = [v for v in range(n) if T.degree(v) >= 3]
    if not branch:
        return TreeClass("A", n)
    if len(branch) == 1:
        arms = _arm_lengths(T, branch[0])
        if len(arms) == 3 and arms[1] == 1:
            return TreeClass("D", arms[2] + 3)
        return TreeClass(*_STARS.get(arms, ("wild",)))
    # Euclidean D-type: two branch vertices, each carrying two pendant leaves
    if len(branch) == 2 and all(
        T.degree(b) == 3 and sum(T.degree(u) == 1 for u in T.neighbors(b)) == 2 for b in branch
    ):
        return TreeClass("~D", n - 1)
    return TreeClass("wild")


# -- decomposition -------------------------------------------------------------


def _extrema_in(P: Poset, subset: frozenset[int]):
    mask = _mask(subset)
    mins = [x for x in subset if P.down[x] & mask == 1 << x]
    maxs = [x for x in subset if P.up[x] & mask == 1 << x]
    return mins, maxs


def ic_decompose(P: Poset) -> ICNode | None:
    """Pure clamp/point witness, or None when the poset is not built that way.

    ic_plus_decompose tries the clamp first at every subset, so it returns the
    pure witness whenever one exists.
    """
    node = ic_plus_decompose(P)
    return None if node is None or node.uses_adjoin() else node


def ic_plus_decompose(P: Poset) -> ICNode | None:
    """Witness allowing single extremal adjunctions; clamp-first preference."""
    memo: dict[frozenset[int], ICNode | None] = {}

    def go(subset: frozenset[int]) -> ICNode | None:
        if subset in memo:
            return memo[subset]
        result: ICNode | None = None
        if len(subset) == 1:
            x = next(iter(subset))
            result = ICNode("point", x, x, subset)
        else:
            mins, maxs = _extrema_in(P, subset)
            if len(mins) == 1 and len(maxs) == 1:
                lo, hi = mins[0], maxs[0]
                kids = []
                for comp in P.connected_components(subset - {lo, hi}):
                    kids.append(go(comp))
                    if kids[-1] is None:
                        break
                else:
                    result = ICNode("clamp", lo, hi, subset, tuple(kids))
                # failing a clamp: the minimum (maximum) adjoined to a rest with a unique one
                for kind, end, side in (("adjoin-min", lo, 0), ("adjoin-max", hi, 1)):
                    rest = subset - {end}
                    if result is None and len(_extrema_in(P, rest)[side]) == 1:
                        child = go(rest)
                        if child is not None:
                            result = ICNode(kind, lo, hi, subset, (child,))
        memo[subset] = result
        return result

    return go(frozenset(P.elements()))


# -- tree construction ----------------------------------------------------------


def build_tree(node: ICNode, P: Poset) -> TreeShape:
    """Derived tree of a decomposition witness.

    One vertex per poset element.  A clamp contributes a star: fresh center,
    a fresh marked leaf, and one edge per child glued at the child's marked
    vertex.  An adjunction grows one edge at the marked vertex and moves the
    mark to the new leaf.
    """
    edges: list[tuple[int, int]] = []
    supports: dict[int, frozenset[int]] = {}  # every vertex gets its support when made
    arrows: list[tuple[int, int]] = []
    # post-order: a node is finished after its children, which leave their
    # marks on top of the stack in order, so vertices are numbered as a
    # depth-first walk finishes them
    stack = [(node, False)]
    marks: list[int] = []
    while stack:
        nd, expanded = stack.pop()
        if nd.children and not expanded:
            stack.append((nd, True))
            stack += [(ch, False) for ch in reversed(nd.children)]
            continue
        split = len(marks) - len(nd.children)
        child_marks = marks[split:]
        del marks[split:]
        if nd.kind == "point":
            mark = len(supports)
            supports[mark] = nd.subset
        elif nd.kind == "clamp":
            center = len(supports)
            supports[center] = nd.subset - {nd.high}
            mark = len(supports)
            supports[mark] = nd.subset
            edges.append((mark, center))
            arrows.append((mark, center))
            for cm in child_marks:
                edges.append((cm, center))
                arrows.append((cm, center))
        else:
            # adjunctions: one new leaf at the old mark, which becomes the mark
            (child_mark,) = child_marks
            mark = len(supports)
            supports[mark] = nd.subset
            edges.append((mark, child_mark))
            if nd.kind == "adjoin-min":
                # the old mark's module moves one translate forward, so every
                # slice arrow at that vertex reverses
                supports[child_mark] = nd.subset - {nd.high}
                arrows[:] = [(b, a) if child_mark in (a, b) else (a, b) for a, b in arrows]
            arrows.append((mark, child_mark))
        marks.append(mark)

    (marked,) = marks
    labels = {}
    for v, sup in supports.items():
        ids = P.sorted_ids(sup)
        labels[v] = "k{" + ",".join(P.names[x] for x in ids) + "}"
    return TreeShape(len(supports), tuple(edges), marked, labels, supports, tuple(arrows))


def finite_type_criterion(P: Poset) -> tuple[str, str]:
    """('finite', reason) when deleting the marked tree vertex leaves Dynkin.

    Applies to pure clamp decompositions; anything else is 'inconclusive'
    (the criterion is one-directional).
    """
    node = ic_decompose(P)
    if node is None:
        return "inconclusive", "poset has no pure iterated-clamping witness"
    T = build_tree(node, P)
    classes = [classify_tree(c) for c in T.without_vertices({T.marked})]
    if all(c.is_dynkin for c in classes):
        residual = ", ".join(str(c) for c in classes) or "empty"
        return "finite", f"residual tree after removing the marked vertex: {residual}"
    bad = ", ".join(str(c) for c in classes)
    return "inconclusive", f"residual tree is not Dynkin ({bad})"


# -- lattice from a tree ---------------------------------------------------------


def _check_distance_condition(T: TreeShape) -> None:
    """BranchTooClose on the first edge, in sorted order, joining two branch vertices."""
    for a, b in sorted(T.edges):
        if T.degree(a) >= 3 and T.degree(b) >= 3:
            raise BranchTooClose(
                f"branch vertices {T.labels.get(a, a)} and {T.labels.get(b, b)} are adjacent"
            )


def tree_to_poset(T: TreeShape, p: int) -> Poset:
    """Lattice whose decomposition tree is (T, p), named 'fromtree'.

    Requires branch vertices pairwise at distance >= 2 and p a leaf.  A walk
    from p emits a shape for realize_shape.  It follows the unbranched path
    ahead of it: a path ending at a leaf is a point under one adjoin-max node
    per edge (a chain); a path ending at a branch vertex is a clamp of the
    walks that leave that vertex, under one adjoin-min node per vertex
    strictly between it and the path's start.  So the walk recurses once per
    branch vertex and no subtree is rebuilt.
    """
    if T.n > 1 and T.degree(p) != 1:
        raise NotExtreme(f"vertex {T.labels.get(p, p)} is not a leaf")
    _check_distance_condition(T)

    def go(v: int, prev: int | None):
        """The shape of the walk that enters v from prev."""
        steps = 0  # edges walked from the start to v
        while T.degree(v) < 3:
            ahead = [u for u in T.neighbors(v) if u != prev]
            if not ahead:
                shape = ("point",)
                for _ in range(steps):
                    shape = ("adjoin-max", shape)
                return shape
            prev, v = v, ahead[0]
            steps += 1
        shape = ("clamp", [go(u, v) for u in T.neighbors(v) if u != prev])
        for _ in range(steps - 1):
            shape = ("adjoin-min", shape)
        return shape

    P = realize_shape(go(p, None))
    P.name = "fromtree"
    return P


# -- abstract shapes (generators) -------------------------------------------------


def realize_shape(shape, prefix: str = "e") -> Poset:
    """Build a poset from a nested shape description.

    shape ::= ('point',) | ('clamp', [shape, ...])
            | ('adjoin-min', shape) | ('adjoin-max', shape)
    """
    names: list[str] = []
    relations: list[tuple[str, str]] = []

    def new_el() -> str:
        names.append(f"{prefix}{len(names) + 1}")
        return names[-1]

    def go(s) -> tuple[str, str]:
        adjoins = []  # a loop, not recursion: a chain nests one adjoin node per element
        while s[0] in ("adjoin-min", "adjoin-max"):
            adjoins.append(s[0])
            s = s[1]
        if s[0] == "point":
            lo = hi = new_el()
        elif s[0] == "clamp":
            lo = new_el()
            hi = new_el()
            for child in s[1]:
                clo, chi = go(child)
                relations.append((lo, clo))
                relations.append((chi, hi))
            if not s[1]:
                relations.append((lo, hi))
        else:
            raise ValueError(f"bad shape node {s!r}")
        for kind in reversed(adjoins):
            e = new_el()
            if kind == "adjoin-min":
                relations.append((e, lo))
                lo = e
            else:
                relations.append((hi, e))
                hi = e
        return lo, hi

    go(shape)
    idx = {nm: i for i, nm in enumerate(names)}
    return Poset(names, [(idx[a], idx[b]) for a, b in relations])


# -- tree file format ---------------------------------------------------------------


def parse_tree(text: str) -> tuple[TreeShape, dict[str, int]]:
    """Parse `vertices ...` / `edges u-v ...` / `mark v` tree files.

    `#` starts a comment; blank lines are skipped, as in `.poset` files.
    """
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    mark: str | None = None
    for raw, parts in _lines(text):
        if parts[0] == "vertices":
            for nm in parts[1:]:
                if nm in vertices:
                    raise ParseError(f"vertex {nm!r} declared twice")
                vertices.append(nm)
        elif parts[0] == "edges":
            for tok in parts[1:]:
                if "-" not in tok:
                    raise ParseError(f"bad edge token {tok!r}")
                a, b = tok.split("-", 1)
                if a == b:
                    raise ParseError(f"loop edge {tok!r}")
                edges.append((a, b))
        elif parts[0] == "mark":
            if len(parts) != 2:
                raise ParseError(f"a 'mark' line names exactly one vertex: {raw!r}")
            if mark is not None:
                raise ParseError(f"a second 'mark' line: {raw!r}")
            mark = parts[1]
        else:
            raise ParseError(f"unexpected tree line: {raw!r}")
    if mark is None:
        raise ParseError("tree file lacks a 'mark' line")
    idx = {nm: i for i, nm in enumerate(vertices)}
    for a, b in edges:
        if a not in idx or b not in idx:
            raise ParseError(f"edge on undeclared vertex {a!r}-{b!r}")
    if mark not in idx:
        raise ParseError(f"marked vertex {mark!r} not declared")
    T = TreeShape(
        len(vertices),
        tuple((idx[a], idx[b]) for a, b in edges),
        idx[mark],
        {i: nm for nm, i in idx.items()},
    )
    return T, idx
