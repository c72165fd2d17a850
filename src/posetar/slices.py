"""Standard slices of the quiver component containing the largest projective.

The decomposition witness yields one module per tree vertex, every one a
constant module on a convex subset: the marked vertex carries the largest
projective, each clamp center carries that projective modulo its socle, and
the recursion supplies the rest.  verify_slice checks the three facts the
construction rests on: the support condition at the maximum, Ext-vanishing
between slice members, and the Hom matrix matching path counts of the
oriented tree.
"""

from __future__ import annotations

from .homalg import _ext_dims, _resolution
from .ictree import ICNode, TreeShape, build_tree
from .linalg import Field, QQ
from .poset import Poset
from .rep import Representation, constant_on


class SliceData:
    __slots__ = ("poset", "tree", "modules", "marked")

    def __init__(
        self, poset: Poset, tree: TreeShape, modules: dict[int, Representation], marked: int
    ) -> None:
        self.poset = poset
        self.tree = tree
        self.modules = modules
        self.marked = marked


def standard_slice(P: Poset, node: ICNode, field: Field = QQ) -> SliceData:
    tree = build_tree(node, P)
    modules = {
        v: constant_on(P, sup, field)
        for v, sup in tree.supports.items()
    }
    return SliceData(P, tree, modules, tree.marked)


def check_hypothesis_41(P: Poset, sl: SliceData) -> bool:
    """Only the marked module may contain the maximum in its support."""
    mm = P.unique_min_max()
    if mm is None:
        return False
    _, omega = mm
    for v, M in sl.modules.items():
        has_max = omega in M.support()
        if v == sl.marked and not has_max:
            return False
        if v != sl.marked and has_max:
            return False
    return True


def _path_counts(tree: TreeShape) -> dict[tuple[int, int], int]:
    """Number of directed paths (including empty) between tree vertices."""
    adj: dict[int, list[int]] = {v: [] for v in range(tree.n)}
    for a, b in tree.arrows or ():
        adj[a].append(b)
    counts: dict[tuple[int, int], int] = {}
    for src in range(tree.n):
        stack = [src]  # one entry per directed path from src, in depth-first order
        while stack:
            v = stack.pop()
            counts[(src, v)] = counts.get((src, v), 0) + 1
            stack += reversed(adj[v])
    return counts


class SliceReport:
    __slots__ = ("hypothesis_ok", "ext_failures", "hom_mismatches")

    def __init__(
        self,
        hypothesis_ok: bool,
        ext_failures: tuple[tuple[int, int, int], ...],
        hom_mismatches: tuple[tuple[int, int, int, int], ...],
    ) -> None:
        self.hypothesis_ok = hypothesis_ok
        self.ext_failures = ext_failures
        self.hom_mismatches = hom_mismatches

    @property
    def ok(self) -> bool:
        return self.hypothesis_ok and not self.ext_failures and not self.hom_mismatches

    def describe(self) -> str:
        lines = [
            f"support condition at the maximum: {'ok' if self.hypothesis_ok else 'FAIL'}",
            f"ext vanishing (degrees >= 1): "
            + ("ok" if not self.ext_failures else f"FAIL {list(self.ext_failures)}"),
            f"hom matrix vs oriented tree paths: "
            + ("ok" if not self.hom_mismatches else f"FAIL {list(self.hom_mismatches)}"),
        ]
        return "\n".join(lines)


def verify_slice(sl: SliceData) -> SliceReport:
    """The support condition, Ext-vanishing and the Hom matrix of the slice.

    For each slice module M_v one projective resolution C_v gives every
    Ext^i(M_v, M_w), with each map of the Hom complex Hom(C_v, M_w) ranked
    once (homalg._ext_dims): Ext^i for i >= 1 must vanish, and
    Hom(M_v, M_w) = Ext^0 = dim Hom(P_0, M_w) - rank(d_0) must be the
    number of paths from v to w in the oriented tree.
    """
    n = sl.tree.n
    counts = _path_counts(sl.tree)
    ext_failures = []
    hom_mismatches = []
    for v in range(n):
        C = _resolution(sl.modules[v])[0]
        for w in range(n):
            ext = _ext_dims(C, sl.modules[w])
            ext_failures += [(v, w, i) for i in range(1, len(ext)) if ext[i]]
            want = counts.get((v, w), 0)
            if ext[0] != want:
                hom_mismatches.append((v, w, ext[0], want))
    return SliceReport(
        check_hypothesis_41(sl.poset, sl),
        tuple(ext_failures),
        tuple(hom_mismatches),
    )
