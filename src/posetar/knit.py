"""Auslander-Reiten sequences and knitting of the module-category component.

An almost split sequence is read off the minimal projective resolution of
its end term in labelled coordinates: tau M from the presentation, an
element of the socle of Ext^1(M, tau M) as a cocycle of the Hom complex into
tau M, and the middle term as a cokernel out of the first syzygy's cover.
No syzygy module is built and no endomorphism is lifted.

Knitting starts from the simple projective at the maximum and works forward:
whenever every irreducible map into a non-injective vertex is known, the mesh
starting there is complete, and its right-hand term is realized exactly (via
the inverse translate) and checked against mesh additivity.  Projectives are
attached the moment their radical shows up; injectives terminate orbits.

Every arrow runs from an older vertex to a newer one.  A projective's one
in-arrow comes from the vertex whose mesh attached it.  The in-arrows of the
end of a mesh come from the inverse translates of its start's in-sources and
from the projectives attached in the same step, all made before it.  So when
the walk reaches a vertex all its in-sources are processed, and creation
order is a processing order.
"""

from __future__ import annotations

from .errors import IsProjective, MeshMismatch, NotEmbeddable, NotIndecomposable, PosetarError
from .homalg import (
    _blocks_from_generators,
    _hom_complex_map,
    _kernel_out_of_injectives,
    _layout,
    _resolution,
    _rows,
    _scalar_blocks,
    realize_labels,
    tau_inverse,
)
from .ictree import TreeShape
from .linalg import Field, QQ, _cols, _mat, _reduce
from .poset import Poset
from .rep import (
    Morphism,
    Representation,
    _quotient_projection,
    cone_label,
    constant_on,
    direct_sum,
    linear_combination,
)
from .split import _thin_indecomposable, end_basis, end_radical_basis, is_indecomposable, split_indecomposables


# -- AR sequence ending at a module ------------------------------------------------


class ARSequence:
    __slots__ = ("tau_end", "middles", "end")

    def __init__(
        self, tau_end: Representation, middles: list[tuple[Representation, int]], end: Representation
    ) -> None:
        self.tau_end = tau_end
        self.middles = middles
        self.end = end

    def middle_count(self) -> int:
        return sum(m for _, m in self.middles)

    def middle_dims(self) -> tuple[int, ...]:
        P = self.end.poset
        out = [0] * P.n
        for rep, mult in self.middles:
            for x in P.elements():
                out[x] += mult * rep.dims[x]
        return tuple(out)


def ar_sequence_end(M: Representation, rng=None, check_indecomposable: bool = True) -> ARSequence:
    """The almost split sequence ending at M, with its middle split exactly.

    Everything is read off the minimal resolution P2 -> P1 -> P0 -> M in
    labelled coordinates.  The presentation P1 -> P0 gives tau M.  An
    extension is a cocycle f in Hom(P1, tau M), the sum of tau M(y) over the
    labels y of P1, taken modulo the image of Hom(P0, tau M).

    The End(M)-socle and the End(tau M)-socle of Ext^1(M, tau M) coincide,
    and any nonzero element of that socle is almost split (Auslander, Reiten
    and Smalø, Representation Theory of Artin Algebras, Ch. V §2).  So f is
    chosen with post-composition by rad End(tau M) killing it modulo
    coboundaries; r acts on tau M(y) by its block there, and no endomorphism
    of M is lifted.  A thin tau M has End = k (split._thin_indecomposable),
    so no End basis is computed for it.  The middle term is the pushout
    along f: P1 maps onto the syzygy, so it is the cokernel of
    P1 -> tau M + P0 with blocks [f ; -d].

    Over GF(p) this raises SplitFailure when End(tau M) is not one
    dimensional, because the trace-form radical needs characteristic 0.

    rng is ignored and kept for existing callers.
    """
    C, _ = _resolution(M, max_length=2)
    if C.length() == 0:
        raise IsProjective("no almost split sequence ends at a projective")
    if check_indecomposable and not is_indecomposable(M):
        raise NotIndecomposable("almost split sequences end at indecomposables")
    P, field = M.poset, M.field
    z = field.zero
    L1, L0, d = C.labels[1], C.labels[0], C.mats[0].rows
    tM = _kernel_out_of_injectives(P, field, L1, L0, d)
    if tM.is_zero():
        raise PosetarError("translate vanished for a non-projective module")

    # Hom(P1, tM) lists tM(y) for y in L1, in label order, from offs[j]
    offs = [0]
    for y in L1:
        offs.append(offs[-1] + tM.dims[y])
    n1 = offs[-1]
    q, _ = _quotient_projection(field, _hom_complex_map(C, tM, 0), n1)
    if q.r == 0:
        raise PosetarError("Ext^1(M, tau M) vanished unexpectedly")
    # f is a cocycle (f d2 = 0, when P2 is there) that post-composition by
    # each r in rad End(tM) sends into the coboundaries
    rows = list(_hom_complex_map(C, tM, 1).rows) if C.length() == 2 else []
    ends = [] if _thin_indecomposable(tM) else end_basis(tM)
    if len(ends) > 1:
        for rv in end_radical_basis(tM, ends):
            r = linear_combination(ends, rv)
            post = tuple([
                (z,) * offs[j] + row + (z,) * (n1 - offs[j + 1])
                for j, y in enumerate(L1)
                for row in r.block(y).rows
            ])
            rows += q.mul(_mat(field, post, n1, n1)).rows
    sol = _mat(field, tuple(rows), len(rows), n1).nullspace()
    f = next((v for v in sol if any(q.apply(v))), None)
    if f is None:
        raise PosetarError("socle of the extension space is trivial")

    # E = coker(P1 -> tM + P0).  The basis of the sum at w lists tM(w) before
    # P0(w); the f-block sends generator j of P1 to f_j in tM(y_j).
    lay1, lay0 = _layout(P, "proj", L1), _layout(P, "proj", L0)
    gens = [(y, f[offs[j]: offs[j + 1]]) for j, y in enumerate(L1)]
    f_cols = _blocks_from_generators(P, field, gens, _rows(tM), tM.dims, lay1)
    d_rows = _scalar_blocks(P, L1, L0, lay1, lay0, _reduce(field.p, [[-v for v in row] for row in d]))
    blocks = [_mat(field, _cols(fc, t) + dr, t + len(dr), len(js))
              for fc, dr, js, t in zip(f_cols, d_rows, lay1, tM.dims)]
    P1, P0 = realize_labels(P, field, "proj", L1), realize_labels(P, field, "proj", L0)
    E = Morphism(P1, direct_sum([tM, P0]), blocks).cokernel()[0]
    middles = split_indecomposables(E)
    seq = ARSequence(tM, middles, M)
    if seq.middle_dims() != tuple(
        tM.dims[x] + M.dims[x] for x in M.poset.elements()
    ):
        raise MeshMismatch("middle of the almost split sequence has wrong dimensions")
    return seq


# -- knitting ------------------------------------------------------------------------


class KnitVertex:
    """A knitted module.  thin_support is its support when it is k on that
    support (None otherwise), and proj/inj are the labels read off it."""

    __slots__ = ("vid", "rep", "fomega", "thin_support", "proj", "inj")

    def __init__(
        self, vid: int, rep: Representation, fomega: int, thin_support: frozenset[int] | None
    ) -> None:
        self.vid = vid
        self.rep = rep
        self.fomega = fomega
        self.thin_support = thin_support
        P = rep.poset
        self.proj = None if thin_support is None else cone_label(P, "proj", thin_support)
        self.inj = None if thin_support is None else cone_label(P, "inj", thin_support)


class ARComponent:
    __slots__ = ("poset", "field", "vertices", "in_srcs", "tau_map", "status", "notes")

    def __init__(
        self,
        poset: Poset,
        field: Field,
        vertices: list[KnitVertex],
        in_srcs: dict[int, list[int]],  # vid -> sources of its in-arrows, in arrow order
        tau_map: dict[int, int],
        status: str,  # 'complete' | 'truncated'
        notes: list[str] | None = None,
    ) -> None:
        self.poset = poset
        self.field = field
        self.vertices = vertices
        self.in_srcs = in_srcs
        self.tau_map = tau_map
        self.status = status
        self.notes = [] if notes is None else notes

    @property
    def meshes(self) -> int:
        """Meshes knitted, one per pair of tau_map."""
        return len(self.tau_map)

    @property
    def arrows(self) -> list[tuple[int, int]]:
        """Every arrow (source, target), by target in creation order."""
        return [(s, t) for t, srcs in self.in_srcs.items() for s in srcs]

    def vertex(self, vid: int) -> KnitVertex:
        return self.vertices[vid]

    def in_arrows(self, vid: int) -> list[int]:
        return list(self.in_srcs[vid])

    def tau_inv_map(self) -> dict[int, int]:
        return {u: v for v, u in self.tau_map.items()}

    def projective_vertices(self) -> dict[int, int]:
        return {v.proj: v.vid for v in self.vertices if v.proj is not None}

    def injective_vertices(self) -> dict[int, int]:
        return {v.inj: v.vid for v in self.vertices if v.inj is not None}

    def to_json(self, embedding=None, max_meshes: int = 0) -> dict:
        P = self.poset
        coords = embedding.coords if embedding is not None else {}
        return {
            "schema": 1,
            "seed": 0,  # schema 1 keeps the field; nothing draws on a seed
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

    def to_dot(self) -> str:
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
    _, omega = mm

    # the projectives still to attach, grouped by their radical's support,
    # each group in linear-extension order
    unattached: dict[frozenset[int], list[int]] = {}
    for x in P.linear_extension():
        if x != omega:
            unattached.setdefault(P.strict_up(x), []).append(x)

    vertices: list[KnitVertex] = []
    in_srcs: dict[int, list[int]] = {}
    tau_map: dict[int, int] = {}
    tau_inv: dict[int, int] = {}
    notes: list[str] = []

    def add_vertex(rep: Representation, srcs: list[int]) -> int:
        vid = len(vertices)
        sup = rep.support() if rep.is_thin_constant() else None
        vertices.append(KnitVertex(vid, rep, rep.dims[omega], sup))
        in_srcs[vid] = list(srcs)
        return vid

    # seed: the simple projective at the maximum
    add_vertex(constant_on(P, {omega}, field), [])

    # walk the vertices in creation order; each mesh appends to the list
    u = 0
    while u < len(vertices):
        if vertices[u].inj is not None:
            u += 1
            continue
        if len(tau_map) >= max_meshes:
            break
        urep = vertices[u].rep
        outs = [tau_inv[w] for w in in_srcs[u] if vertices[w].inj is None]
        for x in unattached.pop(vertices[u].thin_support, ()):
            outs.append(add_vertex(constant_on(P, P.up_set(x), field), [u]))
        predicted = [-v for v in urep.dims]
        for o in outs:
            predicted = [a + b for a, b in zip(predicted, vertices[o].rep.dims)]
        predicted = tuple(predicted)
        if sum(predicted) > max_total_dim:
            notes.append("stopped before a mesh exceeding the dimension cap")
            break
        tv = tau_inverse(urep)
        if tv is None:
            raise MeshMismatch("non-injective vertex has no inverse translate")
        if tv.dims != predicted:
            raise MeshMismatch(
                f"knitted dims {predicted} disagree with the inverse translate {tuple(tv.dims)}"
            )
        vnew = add_vertex(tv, outs)
        tau_map[vnew] = u
        tau_inv[u] = vnew
        u += 1

    status = "complete" if u == len(vertices) else "truncated"
    missing = [P.names[x] for x in sorted(x for xs in unattached.values() for x in xs)]
    if missing and status == "complete":
        notes.append("projectives never attached: " + ", ".join(missing))
    return ARComponent(P, field, vertices, in_srcs, tau_map, status, notes)


# -- embedding into ZT ----------------------------------------------------------------


class Embedding:
    __slots__ = ("coords", "orbits")

    def __init__(
        self,
        coords: dict[int, tuple[int, int]],  # vid -> (tree vertex, level)
        orbits: dict[int, list[int]],  # tree vertex -> vids ordered by level
    ) -> None:
        self.coords = coords
        self.orbits = orbits

    def orbit_levels(self, orbit: int) -> tuple[int, int]:
        vids = self.orbits[orbit]
        return (self.coords[vids[0]][1], self.coords[vids[-1]][1])


def embed_in_ZT(comp: ARComponent, T: TreeShape) -> Embedding:
    """Assign (orbit, level) coordinates relative to the derived tree T.

    Orbit v is the tau-orbit of the module k on T.supports[v], which sits at
    level 0; each orbit is listed in level order as tau and tau^-1 walk it.
    NotEmbeddable unless the orbits are disjoint, cover the component, and
    every arrow joins adjacent orbits as the orientation T.arrows prescribes.
    """
    P = comp.poset
    by_support = {}
    for v in comp.vertices:
        sup = v.thin_support
        if sup is not None and sup not in by_support:
            by_support[sup] = v.vid
    tau_inv = comp.tau_inv_map()
    coords: dict[int, tuple[int, int]] = {}
    orbits: dict[int, list[int]] = {}
    for tv in range(T.n):
        sup = T.supports[tv]
        vid = by_support.get(sup)
        if vid is None:
            raise NotEmbeddable(
                f"slice module on {{{','.join(P.names[x] for x in P.sorted_ids(sup))}}} missing"
            )
        orbit = [vid]
        while orbit[0] in comp.tau_map:
            orbit.insert(0, comp.tau_map[orbit[0]])
        low = 1 - len(orbit)
        while orbit[-1] in tau_inv:
            orbit.append(tau_inv[orbit[-1]])
        orbits[tv] = orbit
        for lvl, u in enumerate(orbit, low):
            if u in coords:
                raise NotEmbeddable(f"tree vertices {coords[u][0]} and {tv} lie on one tau-orbit")
            coords[u] = (tv, lvl)
    unplaced = [v.vid for v in comp.vertices if v.vid not in coords]
    if unplaced:
        raise NotEmbeddable(f"{len(unplaced)} vertices outside the slice orbits")
    edges = set(T.edges)
    orientation = set(T.arrows)
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
    return Embedding(coords, orbits)


def wing_window(T: TreeShape) -> dict[int, tuple[int, int]]:
    """Level window per orbit of the slice sections through the marked vertex of T.

    Each vertex widens the window of its neighbor one step nearer the mark,
    read in the breadth-first order of the distances from the mark.
    """
    dist = T.distances_from(T.marked)
    orientation = set(T.arrows)
    window = {T.marked: (0, 0)}
    for w, d in dist.items():
        if d:
            u = next(u for u in T.neighbors(w) if dist[u] == d - 1)
            lo_u, hi_u = window[u]
            window[w] = (lo_u - 1, hi_u) if (u, w) in orientation else (lo_u, hi_u + 1)
    return window
