"""Fractional Calabi-Yau decisions and the many-middle-term witness search.

For posets with an iterated-clamping witness the decision is combinatorial:
the derived tree is Dynkin or it is not.  Outside that class the fallback is
a search over clamped intervals for a module whose almost split sequence has
at least three middle terms and provably agrees with the derived mesh.  Such
a witness rules out the fractional Calabi-Yau property only when the algebra
has infinite representation type, which nothing here certifies, so a
witness is conditional: `is_fractionally_cy` answers "yes" or "no" only
from a derived tree, and "unknown" otherwise.
"""

from __future__ import annotations

from .clamped import enumerate_clamped
from .homalg import _layout, _resolution, _scalar_blocks, is_projective
from .ictree import build_tree, classify_tree, ic_plus_decompose
from .knit import ar_sequence_end, knit
from .linalg import Field, QQ, _rref_rows
from .poset import Interval, Poset
from .rep import Representation, constant_on
from .split import is_indecomposable


def derived_translate_is_module(M: Representation) -> bool:
    """True when the Nakayama image of the minimal resolution has homology
    concentrated in degree 1, so the derived translate is again a module and
    the module-category mesh ending at M is also the derived mesh.

    The test asks that the Nakayama image of d1 be onto and that no term sit
    beyond degree 1, so that degree 1 carries the whole kernel.  A minimal
    resolution has no zero terms, so this is exactly pd M == 1 with nu(d1)
    onto, and resolving two steps tells pd M == 1 from pd M >= 2.  A map
    of modules is onto when each of its blocks has full row rank.
    """
    C, _ = _resolution(M, max_length=2)
    if C.length() != 1:
        return False
    P, (L0, L1) = M.poset, C.labels
    lay1 = _layout(P, "inj", L1)
    blocks = _scalar_blocks(P, L1, L0, lay1, _layout(P, "inj", L0), C.mats[0].rows)
    return all(len(_rref_rows(M.field.p, b, len(js))[1]) == len(b) for b, js in zip(blocks, lay1))


class Witness:
    """A certified mesh with at least three middle terms on a clamped interval.

    Its verdict is always "conditional": it rules out the fractional
    Calabi-Yau property only if the algebra has infinite representation type.
    """

    __slots__ = ("interval", "module_dims", "middle_count")
    verdict = "conditional"

    def __init__(self, interval: Interval, module_dims: dict[str, int], middle_count: int) -> None:
        self.interval = interval
        self.module_dims = module_dims
        self.middle_count = middle_count

    def describe(self, P: Poset) -> str:
        return (
            f"interval {self.interval.render(P)}: mesh with "
            f"{self.middle_count} middle terms at module {self.module_dims}"
        )


def _quotient_candidates(sub: Poset, field: Field) -> list[Representation]:
    """Radicals of projectives and their quotients by smaller projectives.

    For x < y, P(y) is the constant module on up(y) inside P(x) and inside
    rad P(x), so P(x)/P(y) is constant on up(x) minus up(y), and rad P(x)/P(y)
    on that set minus x: differences of up-sets, hence convex.
    """
    out = []
    for x in sub.elements():
        rad = sub.strict_up(x)
        if rad:
            out.append(constant_on(sub, rad, field))
        for y in sub.elements():
            if sub.lt(x, y):
                up_y = sub.up_set(y)
                out.append(constant_on(sub, sub.up_set(x) - up_y, field))
                if rad - up_y:
                    out.append(constant_on(sub, rad - up_y, field))
    return out


def not_fcy_witness(
    P: Poset,
    field: Field = QQ,
    mesh_budget: int = 200,
    rng=None,
) -> Witness | None:
    """Search clamped intervals for a certified >=3-middle mesh.  rng is
    ignored and kept for existing callers."""
    for iv in enumerate_clamped(P):
        if iv.low == iv.high:
            continue
        members = iv.members(P)
        sub, ids = P.induced(members)
        b_local = next(i for i, amb in enumerate(ids) if amb == iv.high)
        comp = knit(sub, field, max_meshes=mesh_budget)
        seen: set[tuple[int, ...]] = set()
        candidates: list[tuple[Representation, int | None]] = []
        for v in comp.tau_map:
            candidates.append((comp.vertex(v).rep, len(comp.in_arrows(v))))
        for Q in _quotient_candidates(sub, field):
            candidates.append((Q, None))
        for rep, count in candidates:
            if rep.dims[b_local] != 0:
                continue
            key = tuple(rep.dims)
            if key in seen:
                continue
            seen.add(key)
            if count is None:
                if is_projective(rep) or not is_indecomposable(rep):
                    continue
                count = ar_sequence_end(rep, check_indecomposable=False).middle_count()
            if count >= 3 and derived_translate_is_module(rep):
                dims = {
                    sub.names[x]: rep.dims[x] for x in sub.elements() if rep.dims[x]
                }
                return Witness(iv, dims, count)
    return None


class FCYDecision:
    __slots__ = ("verdict", "reason", "tree_class", "witness")

    def __init__(
        self,
        verdict: str,  # 'yes' | 'no' | 'unknown'
        reason: str,
        tree_class: str | None = None,
        witness: Witness | None = None,
    ) -> None:
        self.verdict = verdict
        self.reason = reason
        self.tree_class = tree_class
        self.witness = witness

    def render(self) -> str:
        if self.tree_class and self.verdict in ("yes", "no"):
            return f"{self.verdict} ({self.tree_class})"
        return f"{self.verdict} ({self.reason})"


def is_fractionally_cy(P: Poset, field: Field = QQ, mesh_budget: int = 200) -> FCYDecision:
    node = ic_plus_decompose(P)
    if node is not None:
        cls = classify_tree(build_tree(node, P))
        if cls.is_dynkin:
            return FCYDecision("yes", "derived tree is Dynkin", str(cls))
        return FCYDecision("no", "derived tree is not Dynkin", str(cls))
    w = not_fcy_witness(P, field, mesh_budget)
    if w is not None:
        return FCYDecision(
            "unknown",
            "witness found but infinite representation type not established",
            witness=w,
        )
    return FCYDecision("unknown", "no decomposition witness and no mesh witness found")

