"""Fractional Calabi-Yau decisions and the many-middle-term witness search.

For posets with an iterated-clamping witness the decision is combinatorial:
the derived tree is Dynkin or it is not.  Outside that class the fallback is
a search over clamped intervals for a module whose almost split sequence has
at least three middle terms and provably agrees with the derived mesh; such
a witness rules out the fractional Calabi-Yau property whenever the algebra
has infinite representation type.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .clamped import enumerate_clamped
from .homalg import (
    is_projective,
    min_projective_resolution,
    realize_scalar_map,
    tau_inverse,
)
from .ictree import build_tree, classify_tree, ic_plus_decompose
from .knit import ar_sequence_end, knit
from .linalg import Field, QQ
from .poset import Interval, Poset
from .rep import Representation, hom, projective, radical
from .split import is_indecomposable


def derived_translate_is_module(M: Representation) -> bool:
    """True when the Nakayama image of the minimal resolution has homology
    concentrated in degree 1, so the derived translate is again a module and
    the module-category mesh ending at M is also the derived mesh.

    The test asks that the Nakayama image of d1 be onto and that no term sit
    beyond degree 1, so that degree 1 carries the whole kernel.  A minimal
    resolution has no zero terms, so this is exactly pd M == 1 with nu(d1)
    onto, and resolving two steps tells pd M == 1 from pd M >= 2.
    """
    C, _ = min_projective_resolution(M, max_length=2)
    return C.length() == 1 and realize_scalar_map(
        M.poset, M.field, "inj", C.labels[1], C.labels[0], C.mats[0]
    ).is_surjective()


@dataclass
class Witness:
    interval: Interval
    module_dims: dict[str, int]
    middle_count: int
    verdict: str  # 'no' | 'conditional'

    def describe(self, P: Poset) -> str:
        return (
            f"interval {self.interval.render(P)}: mesh with "
            f"{self.middle_count} middle terms at module {self.module_dims}"
        )


def _quotient_candidates(sub: Poset, field: Field) -> list[Representation]:
    """Quotients and radicals of projectives over the interval algebra."""
    out = []
    for x in sub.elements():
        Px = projective(sub, x, field)
        R, _ = radical(Px)
        if not R.is_zero():
            out.append(R)
        for y in sub.elements():
            if not sub.lt(x, y):
                continue
            Py = projective(sub, y, field)
            incls = hom(Py, Px)
            if len(incls) == 1 and incls[0].is_injective():
                Q, _ = incls[0].cokernel()
                if not Q.is_zero():
                    out.append(Q)
                if not R.is_zero():
                    rincl = hom(Py, R)
                    if len(rincl) == 1 and rincl[0].is_injective():
                        QR, _ = rincl[0].cokernel()
                        if not QR.is_zero():
                            out.append(QR)
    return out


def not_fcy_witness(
    P: Poset,
    assume_infinite_type: bool = False,
    field: Field = QQ,
    mesh_budget: int = 200,
    rng: random.Random | None = None,
) -> Witness | None:
    """Search clamped intervals for a certified >=3-middle mesh."""
    rng = rng or random.Random(0)
    verdict = "no" if assume_infinite_type else "conditional"
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
                if is_projective(rep) or not is_indecomposable(rep, rng):
                    continue
                count = ar_sequence_end(rep, rng, check_indecomposable=False).middle_count()
            if count >= 3 and derived_translate_is_module(rep):
                dims = {
                    sub.names[x]: rep.dims[x] for x in sub.elements() if rep.dims[x]
                }
                return Witness(iv, dims, count, verdict)
    return None


@dataclass
class FCYDecision:
    verdict: str  # 'yes' | 'no' | 'unknown'
    reason: str
    tree_class: str | None = None
    witness: Witness | None = None

    def render(self) -> str:
        if self.tree_class and self.verdict in ("yes", "no"):
            return f"{self.verdict} ({self.tree_class})"
        return f"{self.verdict} ({self.reason})"


def is_fractionally_cy(
    P: Poset,
    assume_infinite_type: bool = False,
    field: Field = QQ,
    mesh_budget: int = 200,
) -> FCYDecision:
    node = ic_plus_decompose(P)
    if node is not None:
        cls = classify_tree(build_tree(node, P))
        if cls.is_dynkin:
            return FCYDecision("yes", "derived tree is Dynkin", str(cls))
        return FCYDecision("no", "derived tree is not Dynkin", str(cls))
    w = not_fcy_witness(P, assume_infinite_type, field, mesh_budget)
    if w is not None and w.verdict == "no":
        return FCYDecision("no", "many-middle mesh on a clamped interval", witness=w)
    if w is not None:
        return FCYDecision(
            "unknown",
            "witness found but infinite representation type not established",
            witness=w,
        )
    return FCYDecision("unknown", "no decomposition witness and no mesh witness found")


def quick_right_terminations(
    sl, budget: int = 10
) -> dict[int, int | None]:
    """Steps of inverse-translate iteration until an injective, per orbit."""
    out: dict[int, int | None] = {}
    for v in range(sl.tree.n):
        cur = sl.modules[v]
        steps = 0
        out[v] = None
        while steps <= budget:
            nxt = tau_inverse(cur)
            if nxt is None:
                out[v] = steps
                break
            cur = nxt
            steps += 1
    return out
