"""Auslander-Reiten sequences and knitting of the module-category component.

Knitting starts from the simple projective at the maximum and works forward:
whenever every irreducible map into a non-injective vertex is known, the mesh
starting there is complete, and its right-hand term is realized exactly (via
the inverse translate) and checked against mesh additivity.  Projectives are
attached the moment their radical shows up; injectives terminate orbits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import IsProjective, MeshMismatch, NotEmbeddable, NotIndecomposable, PosetarError
from .homalg import _cover_by_projectives, is_projective, tau, tau_inverse
from .ictree import ic_decompose
from .linalg import Field, Mat, QQ, span_basis
from .poset import Poset
from .rep import (
    Morphism,
    Representation,
    _quotient_projection,
    constant_on,
    direct_sum,
    hom,
    is_isomorphic,
    linear_combination,
    radical,
    socle,
)
from .slices import SliceData
from .split import end_basis, end_radical_basis, is_indecomposable, split_indecomposables


# -- AR sequence ending at a module ------------------------------------------------


@dataclass
class ARSequence:
    tau_end: Representation
    middles: list[tuple[Representation, int]]
    end: Representation

    def middle_count(self) -> int:
        return sum(m for _, m in self.middles)

    def middle_dims(self) -> tuple[int, ...]:
        P = self.end.poset
        out = [0] * P.n
        for rep, mult in self.middles:
            for x in P.elements():
                out[x] += mult * rep.dims[x]
        return tuple(out)


def ar_sequence_end(M: Representation, rng: random.Random | None = None,
                    check_indecomposable: bool = True) -> ARSequence:
    """The almost split sequence ending at M, with its middle split exactly."""
    rng = rng or random.Random(0)
    if is_projective(M):
        raise IsProjective("no almost split sequence ends at a projective")
    if check_indecomposable and not is_indecomposable(M, rng):
        raise NotIndecomposable("almost split sequences end at indecomposables")
    field = M.field
    _, cover = _cover_by_projectives(M)
    P0rep = cover.source
    K, incl = cover.kernel()
    tM = tau(M)
    if tM is None or tM.is_zero():
        raise PosetarError("translate vanished for a non-projective module")

    ext_basis = hom(K, tM)
    if not ext_basis:
        raise PosetarError("no extensions found for a non-projective module")
    flat_dim = len(ext_basis[0].flat())
    B = Mat.from_columns(field, [f.flat() for f in ext_basis], flat_dim)
    lifted = hom(P0rep, tM)
    image_cols = []
    for h in lifted:
        coords = B.solve(Mat.from_columns(field, [h.compose(incl).flat()], flat_dim))
        if coords is None:
            raise PosetarError("restriction left the extension space")
        image_cols.append(coords.column(0))
    R = span_basis(field, image_cols, len(ext_basis))
    Qproj = _quotient_projection(field, R, len(ext_basis))
    if Qproj.r == 0:
        raise PosetarError("Ext^1(M, tau M) vanished unexpectedly")

    # socle of the End(M) action on the extension space
    constraints: list[Mat] = []
    ends = end_basis(M)
    if len(ends) > 1:
        for rv in end_radical_basis(M, ends):
            r = linear_combination(ends, rv)
            omega_r = _restrict_endo(cover, incl, r)
            cols = []
            for e in ext_basis:
                comp = e.compose(omega_r)
                coords = B.solve(Mat.from_columns(field, [comp.flat()], flat_dim))
                if coords is None:
                    raise PosetarError("End action left the extension space")
                cols.append(coords.column(0))
            A = Mat.from_columns(field, cols, len(ext_basis))
            constraints.append(Qproj.mul(A))
    if constraints:
        stacked = constraints[0]
        for c in constraints[1:]:
            stacked = stacked.vstack(c)
        sol = stacked.nullspace()
    else:
        sol = [tuple(field.one if i == j else field.zero for i in range(len(ext_basis)))
               for j in range(len(ext_basis))]
    chosen = None
    for v in sol:
        if not Qproj.mul(Mat.from_columns(field, [v], len(ext_basis))).is_zero():
            chosen = v
            break
    if chosen is None:
        raise PosetarError("socle of the extension space is trivial")
    psi = linear_combination(ext_basis, chosen)

    # pushout along psi: E = (tM + P0) / {(psi w, -w)}
    S, incls, _ = direct_sum([tM, P0rep])
    g_blocks = []
    for x in M.poset.elements():
        top_part = incls[0].block(x).mul(psi.block(x))
        bot_part = incls[1].block(x).mul(incl.block(x))
        g_blocks.append(top_part.sub(bot_part))
    g = Morphism(K, S, g_blocks)
    E, _ = g.cokernel()
    middles = split_indecomposables(E, rng)
    seq = ARSequence(tM, middles, M)
    if seq.middle_dims() != tuple(
        tM.dims[x] + M.dims[x] for x in M.poset.elements()
    ):
        raise MeshMismatch("middle of the almost split sequence has wrong dimensions")
    return seq


def _restrict_endo(cover: Morphism, incl: Morphism, r: Morphism) -> Morphism:
    """Lift r through the projective cover, then restrict to the syzygy."""
    P0rep = cover.source
    lift_space = hom(P0rep, P0rep)
    field = P0rep.field
    target = r.compose(cover)
    flat_dim = len(target.flat())
    cols = [cover.compose(h).flat() for h in lift_space]
    A = Mat.from_columns(field, cols, flat_dim)
    sol = A.solve(Mat.from_columns(field, [target.flat()], flat_dim))
    if sol is None:
        raise PosetarError("projective lifting failed")
    f0 = linear_combination(lift_space, sol.column(0))
    K = incl.source
    blocks = []
    for x in P0rep.poset.elements():
        rhs = f0.block(x).mul(incl.block(x))
        b = incl.block(x).solve(rhs)
        if b is None:
            raise PosetarError("endomorphism does not preserve the syzygy")
        blocks.append(b)
    return Morphism(K, K, blocks)


# -- knitting ------------------------------------------------------------------------


@dataclass
class KnitVertex:
    vid: int
    rep: Representation
    fomega: int
    falpha: int
    proj: int | None
    inj: int | None

    @property
    def dims(self) -> tuple[int, ...]:
        return self.rep.dims


@dataclass
class ARComponent:
    poset: Poset
    field: Field
    vertices: list[KnitVertex]
    arrows: list[tuple[int, int]]
    tau_map: dict[int, int]
    status: str  # 'complete' | 'truncated'
    meshes: int
    notes: list[str] = field(default_factory=list)

    def vertex(self, vid: int) -> KnitVertex:
        return self.vertices[vid]

    def in_arrows(self, vid: int) -> list[int]:
        return [a for a, b in self.arrows if b == vid]

    def tau_inv_map(self) -> dict[int, int]:
        return {u: v for v, u in self.tau_map.items()}

    def projective_vertices(self) -> dict[int, int]:
        return {v.proj: v.vid for v in self.vertices if v.proj is not None}

    def injective_vertices(self) -> dict[int, int]:
        return {v.inj: v.vid for v in self.vertices if v.inj is not None}

    def to_json(self, embedding=None, seed: int = 0, max_meshes: int = 0) -> dict:
        P = self.poset
        coords = embedding.coords if embedding is not None else {}
        return {
            "schema": 1,
            "seed": seed,
            "max_meshes": max_meshes,
            "status": self.status,
            "meshes": self.meshes,
            "vertices": [
                {
                    "id": v.vid,
                    "dim": {P.names[x]: v.rep.dims[x] for x in P.elements() if v.rep.dims[x]},
                    "fomega": v.fomega,
                    "proj": P.names[v.proj] if v.proj is not None else None,
                    "inj": P.names[v.inj] if v.inj is not None else None,
                    "orbit": coords.get(v.vid, (None, None))[0],
                    "level": coords.get(v.vid, (None, None))[1],
                }
                for v in self.vertices
            ],
            "arrows": [[a, b] for a, b in self.arrows],
            "tau": [[v, u] for v, u in sorted(self.tau_map.items())],
        }

    def to_dot(self, embedding=None) -> str:
        P = self.poset
        lines = ["digraph ar {", "  rankdir=LR;"]
        for v in self.vertices:
            if v.proj is not None:
                shape = "circle"
            elif v.inj is not None:
                shape = "box"
            else:
                shape = "plaintext"
            dims = "".join(str(d) for d in v.rep.dims)
            label = f"{dims}\\nf={v.fomega}"
            lines.append(f'  n{v.vid} [shape={shape}, label="{label}"];')
        for a, b in self.arrows:
            lines.append(f"  n{a} -> n{b};")
        for v, u in sorted(self.tau_map.items()):
            lines.append(f"  n{v} -> n{u} [style=dashed, constraint=false];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _thin_support(rep: Representation) -> frozenset[int] | None:
    if rep.is_thin_constant():
        return rep.support()
    return None


def _injective_label(P: Poset, rep: Representation) -> int | None:
    sup = _thin_support(rep)
    if sup is None or not sup:
        return None
    maxs = [x for x in sup if not any(P.lt(x, y) for y in sup)]
    if len(maxs) == 1 and sup == P.down_set(maxs[0]):
        return maxs[0]
    return None


def _projective_label(P: Poset, rep: Representation) -> int | None:
    sup = _thin_support(rep)
    if sup is None or not sup:
        return None
    mins = [x for x in sup if not any(P.lt(y, x) for y in sup)]
    if len(mins) == 1 and sup == P.up_set(mins[0]):
        return mins[0]
    return None


def knit(
    P: Poset,
    field: Field = QQ,
    max_meshes: int = 2000,
    max_total_dim: int = 4000,
) -> ARComponent:
    """Knit the component of the module-category AR quiver seeded at P_omega.

    Stops with status 'truncated' when the mesh budget runs out or a mesh
    would produce a module larger than max_total_dim (wild growth guard).
    """
    mm = P.unique_min_max()
    if mm is None:
        raise PosetarError("knitting requires a unique minimum and maximum")
    alpha, omega = mm

    rad_support = {
        x: P.strict_up(x) for x in P.elements() if x != omega
    }
    attach_by_support: dict[frozenset[int], list[int]] = {}
    for x, sup in rad_support.items():
        attach_by_support.setdefault(sup, []).append(x)
    for xs in attach_by_support.values():
        xs.sort(key=P.sort_key)

    vertices: list[KnitVertex] = []
    in_srcs: dict[int, list[int]] = {}
    arrows: list[tuple[int, int]] = []
    tau_map: dict[int, int] = {}
    emitted: set[int] = set()
    attached: set[int] = set()
    notes: list[str] = []

    def add_vertex(rep: Representation, srcs: list[int]) -> int:
        vid = len(vertices)
        v = KnitVertex(
            vid,
            rep,
            rep.dims[omega],
            rep.dims[alpha],
            _projective_label(P, rep),
            _injective_label(P, rep),
        )
        vertices.append(v)
        in_srcs[vid] = list(srcs)
        return vid

    def processed(vid: int) -> bool:
        return vid in emitted or vertices[vid].inj is not None

    # seed: the simple projective at the maximum
    pw = add_vertex(constant_on(P, {omega}, field), [])
    attached.add(omega)

    meshes = 0
    while True:
        ready = [
            v.vid
            for v in vertices
            if v.vid not in emitted
            and v.inj is None
            and all(processed(w) for w in in_srcs[v.vid])
        ]
        if not ready:
            break
        if meshes >= max_meshes:
            break
        u = ready[0]
        urep = vertices[u].rep
        outs: list[int] = []
        for w in in_srcs[u]:
            if vertices[w].inj is None:
                target = next(v2 for v2, u2 in tau_map.items() if u2 == w)
                outs.append(target)
        sup = _thin_support(urep)
        if sup is not None and sup in attach_by_support:
            for x in attach_by_support[sup]:
                if x in attached:
                    continue
                pv = add_vertex(constant_on(P, P.up_set(x), field), [u])
                attached.add(x)
                arrows.append((u, pv))
                outs.append(pv)
        predicted_total = sum(vertices[o].rep.total_dim() for o in outs) - urep.total_dim()
        if predicted_total > max_total_dim:
            notes.append("stopped before a mesh exceeding the dimension cap")
            break
        tv = tau_inverse(urep)
        if tv is None:
            raise MeshMismatch("non-injective vertex has no inverse translate")
        predicted = tuple(
            sum(vertices[o].rep.dims[x] for o in outs) - urep.dims[x]
            for x in P.elements()
        )
        if tuple(tv.dims) != predicted:
            raise MeshMismatch(
                f"knitted dims {predicted} disagree with the inverse translate {tuple(tv.dims)}"
            )
        vnew = add_vertex(tv, outs)
        tau_map[vnew] = u
        for o in outs:
            arrows.append((o, vnew))
        emitted.add(u)
        meshes += 1

    unprocessed = [v.vid for v in vertices if not processed(v.vid)]
    status = "complete" if not unprocessed else "truncated"
    missing = [P.names[x] for x in P.elements() if x not in attached]
    if missing and status == "complete":
        notes.append("projectives never attached: " + ", ".join(missing))
    return ARComponent(P, field, vertices, arrows, tau_map, status, meshes, notes)


# -- embedding into ZT ----------------------------------------------------------------


@dataclass
class Embedding:
    coords: dict[int, tuple[int, int]]  # vid -> (tree vertex, level)
    orbits: dict[int, list[int]]  # tree vertex -> vids ordered by level

    def orbit_levels(self, orbit: int) -> tuple[int, int]:
        vids = self.orbits[orbit]
        return (self.coords[vids[0]][1], self.coords[vids[-1]][1])

    def orbit_length(self, orbit: int) -> int:
        return len(self.orbits.get(orbit, []))


def embed_in_ZT(comp: ARComponent, sl: SliceData) -> Embedding:
    """Assign (orbit, level) coordinates relative to the slice."""
    P = comp.poset
    coords: dict[int, tuple[int, int]] = {}
    by_support = {}
    for v in comp.vertices:
        sup = _thin_support(v.rep)
        if sup is not None and sup not in by_support:
            by_support[sup] = v.vid
    tau_inv = comp.tau_inv_map()
    for tv in range(sl.tree.n):
        sup = sl.tree.supports[tv]
        vid = by_support.get(frozenset(sup))
        if vid is None:
            raise NotEmbeddable(
                f"slice module on {{{','.join(P.names[x] for x in P.sorted_ids(sup))}}} missing"
            )
        coords[vid] = (tv, 0)
        cur, lvl = vid, 0
        while cur in comp.tau_map:
            cur = comp.tau_map[cur]
            lvl -= 1
            coords[cur] = (tv, lvl)
        cur, lvl = vid, 0
        while cur in tau_inv:
            cur = tau_inv[cur]
            lvl += 1
            coords[cur] = (tv, lvl)
    unplaced = [v.vid for v in comp.vertices if v.vid not in coords]
    if unplaced:
        raise NotEmbeddable(f"{len(unplaced)} vertices outside the slice orbits")
    edges = {tuple(e) for e in sl.tree.edges}
    orientation = {(a, b) for a, b in (sl.tree.arrows or ())}
    for a, b in comp.arrows:
        (oa, la), (ob, lb) = coords[a], coords[b]
        if tuple(sorted((oa, ob))) not in edges:
            raise NotEmbeddable("arrow between non-adjacent orbits")
        if (oa, ob) in orientation:
            ok = lb == la
        else:
            ok = lb == la + 1
        if not ok:
            raise NotEmbeddable("arrow breaks the translation structure")
    orbits: dict[int, list[int]] = {}
    for vid, (o, l) in coords.items():
        orbits.setdefault(o, []).append(vid)
    for o, vids in orbits.items():
        vids.sort(key=lambda v: coords[v][1])
        levels = [coords[v][1] for v in vids]
        if levels != list(range(levels[0], levels[0] + len(levels))):
            raise NotEmbeddable("orbit levels are not an interval")
    return Embedding(coords, orbits)


def wing_window(sl: SliceData) -> dict[int, tuple[int, int]]:
    """Level window per orbit of the slice sections through the marked vertex."""
    tree = sl.tree
    orientation = {(a, b) for a, b in (tree.arrows or ())}
    window = {tree.marked: (0, 0)}
    frontier = [tree.marked]
    while frontier:
        nxt = []
        for u in frontier:
            lo_u, hi_u = window[u]
            for w in tree.neighbors(u):
                if w in window:
                    continue
                if (u, w) in orientation:
                    window[w] = (lo_u - 1, hi_u)
                else:
                    window[w] = (lo_u, hi_u + 1)
                nxt.append(w)
        frontier = nxt
    return window


# -- glue meshes check -------------------------------------------------------------


@dataclass
class GlueReport:
    top_mesh_ok: bool
    interval_results: list[tuple[str, bool, bool]]
    details: list[str]

    @property
    def ok(self) -> bool:
        return self.top_mesh_ok and all(a and b for _, a, b in self.interval_results)


def _summand_multiset(seq_middles) -> list[tuple[tuple[int, ...], int]]:
    return sorted((tuple(rep.dims), mult) for rep, mult in seq_middles)


def _expected_middles(parts: list[Representation], rng) -> list[tuple[tuple[int, ...], int]]:
    out: list[tuple[Representation, int]] = []
    for part in parts:
        if part.is_zero():
            continue
        for rep, mult in split_indecomposables(part, rng):
            out.append((rep, mult))
    merged: dict[tuple[int, ...], int] = {}
    reps: list[tuple[Representation, int]] = []
    for rep, mult in out:
        placed = False
        for i, (other, m) in enumerate(reps):
            if other.dims == rep.dims and is_isomorphic(other, rep):
                reps[i] = (other, m + mult)
                placed = True
                break
        if not placed:
            reps.append((rep, mult))
    return sorted((tuple(rep.dims), m) for rep, m in reps)


def glue_meshes_check(P: Poset, field: Field = QQ, rng: random.Random | None = None) -> GlueReport:
    """Verify the boundary meshes at the largest projective and each clamp."""
    rng = rng or random.Random(0)
    node = ic_decompose(P)
    mm = P.unique_min_max()
    if node is None or mm is None or P.n < 2:
        raise PosetarError("glue check expects an iterated-clamping poset with two ends")
    alpha, omega = mm
    details: list[str] = []

    Pa = constant_on(P, P.up_set(alpha), field)
    RadPa, _ = radical(Pa)
    SocPa, soc_incl = socle(Pa)
    PaSoc, _ = soc_incl.cokernel()
    RadSoc, rs_incl = socle(RadPa)
    RadPaSoc, _ = rs_incl.cokernel()

    seq = ar_sequence_end(PaSoc, rng)
    top_ok = is_isomorphic(seq.tau_end, RadPa) and _summand_multiset(
        seq.middles
    ) == _expected_middles([Pa, RadPaSoc], rng)
    details.append(
        "mesh ending at the largest-projective quotient: "
        + ("ok" if top_ok else "FAIL")
    )

    interval_results = []
    for child in node.children:
        a, z = child.low, child.high
        iv = P.closed_interval(a, z)
        label = f"[{P.names[a]},{P.names[z]}]"
        M = constant_on(P, iv, field)
        RadM, _ = radical(M)
        SocM, msoc_incl = socle(M)
        MSoc, _ = msoc_incl.cokernel()

        seq_end = ar_sequence_end(M, rng)
        want_tau = constant_on(P, frozenset(P.elements()) - {alpha, a}, field)
        end_ok = is_isomorphic(seq_end.tau_end, want_tau) and _summand_multiset(
            seq_end.middles
        ) == _expected_middles([RadPa, RadM], rng)

        tinv = tau_inverse(M)
        want_tinv = constant_on(P, frozenset(P.elements()) - {omega, z}, field)
        start_ok = tinv is not None and is_isomorphic(tinv, want_tinv)
        if start_ok:
            seq_start = ar_sequence_end(tinv, rng)
            start_ok = is_isomorphic(seq_start.tau_end, M) and _summand_multiset(
                seq_start.middles
            ) == _expected_middles([PaSoc, MSoc], rng)
        interval_results.append((label, end_ok, start_ok))
        details.append(
            f"meshes at the clamp {label}: ending "
            + ("ok" if end_ok else "FAIL")
            + ", starting "
            + ("ok" if start_ok else "FAIL")
        )
    return GlueReport(top_ok, interval_results, details)
