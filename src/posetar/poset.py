"""Finite posets: relation matrix, Hasse covers, intervals, parsing, DOT.

Elements are dense integer ids 0..n-1; display names are metadata.  The order
relation is kept as per-element bitmasks (up-sets), which makes comparability,
interval and convexity queries cheap at the scales this package targets.
"""

from __future__ import annotations

from .errors import CycleDetected, DuplicateElement, NotComparable, ParseError, UnknownElement


class Poset:
    """Immutable finite poset.

    up[x] is a bitmask of {y : x <= y} (including x itself).
    covers is the transitive reduction as a sorted tuple of (x, y) pairs.
    """

    __slots__ = (
        "n", "names", "up", "down", "covers", "name", "_linext", "_index", "_above", "_below",
        "_opposite",
    )

    def __init__(self, names: list[str], relations, name: str = ""):
        n = len(names)
        if len(set(names)) != n:
            raise DuplicateElement("element names are not unique")
        self.n = n
        self.names = tuple(names)
        self.name = name
        self._index = {nm: i for i, nm in enumerate(names)}

        up = [1 << i for i in range(n)]
        for x, y in relations:
            up[x] |= 1 << y
        # Warshall-style transitive closure on bitmasks.
        for k in range(n):
            bit = 1 << k
            for x in range(n):
                if up[x] & bit:
                    up[x] |= up[k]
        for x in range(n):
            for y in range(n):
                if x != y and (up[x] >> y) & 1 and (up[y] >> x) & 1:
                    raise CycleDetected(
                        f"elements {names[x]!r} and {names[y]!r} are mutually comparable"
                    )
        self.up = tuple(up)
        down = [0] * n
        for x in range(n):
            for y in range(n):
                if (up[x] >> y) & 1:
                    down[y] |= 1 << x
        self.down = tuple(down)

        covers = []
        for x in range(n):
            strict = up[x] & ~(1 << x)
            for y in range(n):
                if (strict >> y) & 1:
                    # (x,y) is a cover iff nothing sits strictly between.
                    between = strict & self.down[y] & ~(1 << y)
                    if between == 0:
                        covers.append((x, y))
        self.covers = tuple(sorted(covers))
        self._above = tuple(tuple(y for a, y in self.covers if a == x) for x in range(n))
        self._below = tuple(tuple(x for x, b in self.covers if b == y) for y in range(n))
        self._linext = None
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
        return _bits(self.up[x], self.n)

    def down_set(self, x: int) -> frozenset[int]:
        return _bits(self.down[x], self.n)

    def strict_up(self, x: int) -> frozenset[int]:
        return _bits(self.up[x] & ~(1 << x), self.n)

    def strict_down(self, x: int) -> frozenset[int]:
        return _bits(self.down[x] & ~(1 << x), self.n)

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
        if self._linext is None:
            indeg = {x: len(self.covers_below(x)) for x in range(self.n)}
            ready = sorted((x for x in range(self.n) if indeg[x] == 0), key=lambda i: self.names[i])
            order: list[int] = []
            remaining = dict(indeg)
            while ready:
                x = ready.pop(0)
                order.append(x)
                changed = False
                for y in self.covers_above(x):
                    remaining[y] -= 1
                    if remaining[y] == 0:
                        ready.append(y)
                        changed = True
                if changed:
                    ready.sort(key=lambda i: self.names[i])
            self._linext = tuple(order)
        return self._linext

    def sort_key(self, x: int) -> int:
        return self.linear_extension().index(x)

    def sorted_ids(self, ids) -> list[int]:
        pos = {x: i for i, x in enumerate(self.linear_extension())}
        return sorted(ids, key=lambda x: pos[x])

    # -- intervals & convexity ----------------------------------------------

    def closed_interval(self, a: int, b: int) -> frozenset[int]:
        if not self.leq(a, b):
            raise NotComparable(f"{self.names[a]!r} is not below {self.names[b]!r}")
        return _bits(self.up[a] & self.down[b], self.n)

    def open_interval(self, a: int, b: int) -> frozenset[int]:
        if not self.leq(a, b):
            raise NotComparable(f"{self.names[a]!r} is not below {self.names[b]!r}")
        return _bits(self.up[a] & self.down[b] & ~(1 << a) & ~(1 << b), self.n)

    def is_convex(self, subset) -> bool:
        """No element outside the subset lies above one member and below another."""
        above = below = 0
        for a in subset:
            above |= self.up[a]
            below |= self.down[a]
        return not above & below & ~_mask(subset)

    def connected_components(self, subset) -> list[frozenset[int]]:
        """Components of the comparability graph restricted to the subset."""
        subset = set(subset)
        comps: list[frozenset[int]] = []
        seen: set[int] = set()
        for start in self.sorted_ids(subset):
            if start in seen:
                continue
            stack, comp = [start], set()
            while stack:
                x = stack.pop()
                if x in comp:
                    continue
                comp.add(x)
                for y in subset:
                    if y not in comp and (self.lt(x, y) or self.lt(y, x)):
                        stack.append(y)
            seen |= comp
            comps.append(frozenset(comp))
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
        """Subposet on the given elements; returns it plus the id map sub->parent."""
        ids = self.sorted_ids(subset)
        back = {x: i for i, x in enumerate(ids)}
        rels = [
            (back[x], back[y])
            for x in ids
            for y in ids
            if self.lt(x, y)
        ]
        sub = Poset([self.names[x] for x in ids], rels)
        return sub, ids

    def is_lattice(self) -> bool:
        for x in range(self.n):
            for y in range(self.n):
                ub = self.up[x] & self.up[y]
                if ub == 0:
                    return False
                mins = [z for z in _bits(ub, self.n) if not any(
                    self.lt(w, z) for w in _bits(ub, self.n))]
                if len(mins) != 1:
                    return False
                lb = self.down[x] & self.down[y]
                if lb == 0:
                    return False
                maxs = [z for z in _bits(lb, self.n) if not any(
                    self.lt(z, w) for w in _bits(lb, self.n))]
                if len(maxs) != 1:
                    return False
        return True

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
        depth = {}
        for x in order:
            below = [depth[z] for z in self.strict_down(x) if z in depth]
            depth[x] = 1 + max(below) if below else 0
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


def _bits(mask: int, n: int) -> frozenset[int]:
    return frozenset(i for i in range(n) if (mask >> i) & 1)


def _mask(subset) -> int:
    m = 0
    for x in subset:
        m |= 1 << x
    return m


def parse_poset(text: str, name: str = "") -> Poset:
    """Parse the `.poset` text format.

    Lines: optional `poset <name>`, zero or more `elements a b c`, a literal
    `covers` line, then one `x < y` relation per line.  `#` starts a comment.
    Relations need not be covers; the closure is reduced afterwards.
    """
    declared: list[str] = []
    relations: list[tuple[str, str]] = []
    explicit_elements = False
    in_covers = False
    pname = name
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if not in_covers:
            if parts[0] == "poset" and len(parts) >= 2:
                pname = parts[1]
                continue
            if parts[0] == "elements":
                explicit_elements = True
                for nm in parts[1:]:
                    if nm in declared:
                        raise DuplicateElement(f"element {nm!r} declared twice")
                    declared.append(nm)
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
    if explicit_elements:
        for a, b in relations:
            for nm in (a, b):
                if nm not in declared:
                    raise UnknownElement(f"relation mentions undeclared element {nm!r}")
        names = declared
    else:
        names = []
        for a, b in relations:
            for nm in (a, b):
                if nm not in names:
                    names.append(nm)
    index = {nm: i for i, nm in enumerate(names)}
    return Poset(names, [(index[a], index[b]) for a, b in relations], name=pname)


def chain(n: int, names: list[str] | None = None) -> Poset:
    if names is None:
        names = [str(i + 1) for i in range(n)]
    return Poset(names, [(i, i + 1) for i in range(n - 1)])
