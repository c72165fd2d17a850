"""Finite posets: one topological pass, Hasse covers, intervals, parsing, DOT.

Elements are dense integer ids 0..n-1; display names are metadata.  The
constructor makes one pass of Kahn's algorithm over the given relations,
always taking the ready element with the smallest name.  That order is the
stored linear extension; up-sets (down-sets) are ORed together along it in
reverse (forward) order, and a given relation is a cover when nothing lies
strictly between its ends.  Every later order query reads these bitmasks.
"""

from __future__ import annotations

from bisect import insort

from .errors import CycleDetected, DuplicateElement, NotComparable, ParseError, UnknownElement


class Poset:
    """Immutable finite poset.

    up[x] is a bitmask of {y : x <= y} (including x itself); down[x] likewise.
    covers is the transitive reduction as a sorted tuple of (x, y) pairs.
    The linear extension and its position table are stored, so sort_key and
    sorted_ids are lookups.
    """

    __slots__ = (
        "n", "names", "up", "down", "covers", "name", "_order", "_pos", "_index", "_above",
        "_below", "_opposite",
    )

    def __init__(self, names: list[str], relations, name: str = ""):
        n = len(names)
        if len(set(names)) != n:
            raise DuplicateElement("element names are not unique")
        self.n = n
        self.names = names = tuple(names)
        self.name = name
        self._index = {nm: i for i, nm in enumerate(names)}

        rels = sorted({(x, y) for x, y in relations if x != y})
        succ, pred = _adjacency(n, rels)
        indeg = [len(p) for p in pred]
        ready = sorted((x for x in range(n) if not indeg[x]), key=names.__getitem__)
        order: list[int] = []
        while ready:
            x = ready.pop(0)
            order.append(x)
            for y in succ[x]:
                indeg[y] -= 1
                if not indeg[y]:
                    insort(ready, y, key=names.__getitem__)
        if len(order) < n:
            x, y = _cycle_pair(pred, indeg)
            raise CycleDetected(f"elements {names[x]!r} and {names[y]!r} are mutually comparable")
        self._order = tuple(order)
        pos = [0] * n
        for i, x in enumerate(order):
            pos[x] = i
        self._pos = tuple(pos)

        up = [1 << x for x in range(n)]
        down = up[:]
        for x in reversed(order):
            for y in succ[x]:
                up[x] |= up[y]
        for y in order:
            for x in pred[y]:
                down[y] |= down[x]
        self.up = tuple(up)
        self.down = tuple(down)
        # Every cover is a given relation; it is one when nothing lies strictly between.
        self.covers = tuple((x, y) for x, y in rels if up[x] & down[y] == (1 << x) | (1 << y))
        above, below = _adjacency(n, self.covers)
        self._above = tuple(map(tuple, above))
        self._below = tuple(map(tuple, below))
        self._opposite = None

    # -- queries -----------------------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return bool((self.up[x] >> y) & 1)

    def lt(self, x: int, y: int) -> bool:
        return x != y and self.leq(x, y)

    def id_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElement(f"unknown element {name!r}") from None

    def elements(self) -> range:
        return range(self.n)

    def up_set(self, x: int) -> frozenset[int]:
        return _bits(self.up[x])

    def down_set(self, x: int) -> frozenset[int]:
        return _bits(self.down[x])

    def strict_up(self, x: int) -> frozenset[int]:
        return _bits(self.up[x] & ~(1 << x))

    def covers_above(self, x: int) -> tuple[int, ...]:
        return self._above[x]

    def covers_below(self, y: int) -> tuple[int, ...]:
        return self._below[y]

    def minimal_elements(self) -> list[int]:
        return [x for x in range(self.n) if self.down[x] == (1 << x)]

    def maximal_elements(self) -> list[int]:
        return [x for x in range(self.n) if self.up[x] == (1 << x)]

    def unique_min_max(self) -> tuple[int, int] | None:
        mins = self.minimal_elements()
        maxs = self.maximal_elements()
        if len(mins) == 1 and len(maxs) == 1:
            return mins[0], maxs[0]
        return None

    def linear_extension(self) -> tuple[int, ...]:
        """Deterministic topological order, ties broken by name."""
        return self._order

    def sort_key(self, x: int) -> int:
        return self._pos[x]

    def sorted_ids(self, ids) -> list[int]:
        return sorted(ids, key=self._pos.__getitem__)

    # -- intervals & convexity ----------------------------------------------

    def closed_interval(self, a: int, b: int) -> frozenset[int]:
        if not self.leq(a, b):
            raise NotComparable(f"{self.names[a]!r} is not below {self.names[b]!r}")
        return _bits(self.up[a] & self.down[b])

    def is_convex(self, subset) -> bool:
        """No element outside the subset lies above one member and below another."""
        above = below = 0
        for a in subset:
            above |= self.up[a]
            below |= self.down[a]
        return not above & below & ~_mask(subset)

    def connected_components(self, subset) -> list[frozenset[int]]:
        """Components of the comparability graph restricted to the subset."""
        rest = _mask(subset)
        comps: list[frozenset[int]] = []
        for start in self.sorted_ids(_bits(rest)):
            if not rest >> start & 1:
                continue
            comp = frontier = 1 << start
            while frontier:
                reach = 0
                for x in _bits(frontier):
                    reach |= self.up[x] | self.down[x]
                frontier = reach & rest & ~comp
                comp |= frontier
            rest &= ~comp
            comps.append(_bits(comp))
        return comps

    # -- derived posets ------------------------------------------------------

    def opposite(self) -> "Poset":
        """The opposite poset, built once: P.opposite().opposite() is P."""
        if self._opposite is None:
            rels = [(y, x) for (x, y) in self.covers]
            op = Poset(list(self.names), rels, name=f"{self.name}^op" if self.name else "")
            op._opposite = self
            self._opposite = op
        return self._opposite

    def induced(self, subset) -> tuple["Poset", list[int]]:
        """Subposet on the given elements; returns it plus the id map sub->parent.

        Its relations pair each member with the first members reached from it
        up the covers through non-members below some member.  They include
        every cover of the subposet, and the constructor keeps just those.
        """
        ids = self.sorted_ids(subset)
        back = {x: i for i, x in enumerate(ids)}
        mask = _mask(ids)
        rels = []
        for x in ids:
            seen, stack = 1 << x, [x]
            while stack:
                for y in self._above[stack.pop()]:
                    if self.up[y] & mask and not seen >> y & 1:
                        seen |= 1 << y
                        if y in back:
                            rels.append((back[x], back[y]))
                        else:
                            stack.append(y)
        sub = Poset([self.names[x] for x in ids], rels)
        return sub, ids

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = []
        if self.name:
            lines.append(f"poset {self.name}")
        lines.append("elements " + " ".join(self.names))
        lines.append("covers")
        for x, y in self.covers:
            lines.append(f"{self.names[x]} < {self.names[y]}")
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        """Hasse diagram; smaller elements drawn above larger ones."""
        order = self.linear_extension()
        depth = [0] * self.n
        for x in order:
            depth[x] = max((depth[z] + 1 for z in self._below[x]), default=0)
        lines = ["digraph hasse {", "  rankdir=TB;", "  node [shape=plaintext];"]
        by_depth: dict[int, list[int]] = {}
        for x in order:
            by_depth.setdefault(depth[x], []).append(x)
        for d in sorted(by_depth):
            members = " ".join(f'"{self.names[x]}";' for x in by_depth[d])
            lines.append(f"  {{ rank=same; {members} }}")
        for x, y in self.covers:
            lines.append(f'  "{self.names[x]}" -> "{self.names[y]}" [arrowhead=none];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        label = self.name or f"{self.n} elements"
        return f"Poset({label}, {len(self.covers)} covers)"


class Interval:
    """Closed interval [low, high] of a poset."""

    __slots__ = ("low", "high")

    def __init__(self, low: int, high: int) -> None:
        self.low = low
        self.high = high

    def members(self, P: Poset) -> frozenset[int]:
        return P.closed_interval(self.low, self.high)

    def render(self, P: Poset) -> str:
        return f"[{P.names[self.low]},{P.names[self.high]}]"


def _bits(mask: int) -> frozenset[int]:
    """The ids whose bits are set in mask."""
    return frozenset(i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1")


def _mask(subset) -> int:
    m = 0
    for x in subset:
        m |= 1 << x
    return m


def _adjacency(n: int, pairs) -> tuple[list[list[int]], list[list[int]]]:
    """Successor and predecessor lists of the pairs, each in the pairs' order."""
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for x, y in pairs:
        succ[x].append(y)
        pred[y].append(x)
    return succ, pred


def _cycle_pair(pred: list[list[int]], indeg: list[int]) -> tuple[int, int]:
    """Two elements of a cycle among the elements Kahn's pass left over.

    Each leftover element has a leftover predecessor, so walking back through
    them from any leftover element repeats an element, closing a cycle.
    """
    x = next(x for x, d in enumerate(indeg) if d)
    step: dict[int, int] = {}
    while x not in step:
        step[x] = len(step)
        x = next(p for p in pred[x] if indeg[p])
    cycle = sorted(y for y, i in step.items() if i >= step[x])
    return cycle[0], cycle[1]


def _lines(text: str):
    """(raw, words) for each line of text that is not blank once its `#`
    comment is cut."""
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if words:
            yield raw, words


def parse_poset(text: str, name: str = "") -> Poset:
    """Parse the `.poset` text format.

    Lines: optional `poset <name>`, zero or more `elements a b c`, a literal
    `covers` line, then one `x < y` relation per line.  `#` starts a comment.
    Relations need not be covers; the closure is reduced afterwards, and a
    relation `x < x` is ignored.
    """
    index: dict[str, int] = {}
    relations: list[tuple[str, str]] = []
    explicit_elements = False
    in_covers = False
    pname = name
    for raw, parts in _lines(text):
        if not in_covers:
            if parts[0] == "poset" and len(parts) >= 2:
                pname = parts[1]
                continue
            if parts[0] == "elements":
                explicit_elements = True
                for nm in parts[1:]:
                    if nm in index:
                        raise DuplicateElement(f"element {nm!r} declared twice")
                    index[nm] = len(index)
                continue
            if parts[0] == "covers":
                in_covers = True
                continue
            raise ParseError(f"unexpected line before 'covers': {raw!r}")
        if len(parts) == 3 and parts[1] == "<":
            relations.append((parts[0], parts[2]))
        else:
            raise ParseError(f"bad relation line: {raw!r}")
    if not in_covers:
        raise ParseError("missing 'covers' line")
    if not explicit_elements:
        for a, b in relations:
            index.setdefault(a, len(index))
            index.setdefault(b, len(index))
    try:
        rels = [(index[a], index[b]) for a, b in relations]
    except KeyError as exc:
        raise UnknownElement(f"relation mentions undeclared element {exc.args[0]!r}") from None
    return Poset(list(index), rels, name=pname)


def chain(n: int) -> Poset:
    return Poset([str(i + 1) for i in range(n)], [(i, i + 1) for i in range(n - 1)])
