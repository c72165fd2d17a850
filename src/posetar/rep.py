"""Representations of a finite poset over an exact field.

A representation assigns a vector space to each element and a matrix to each
Hasse cover, subject to path independence (all cover-paths between two
comparable elements compose to the same map).  Morphisms, kernels, cokernels,
images, Hom spaces, duality and (co)induction all live here.
"""

from __future__ import annotations

import random

from .errors import NotConvex, PosetarError
from .linalg import Field, Mat, QQ, span_basis
from .poset import Poset


class Representation:
    """Functor from the poset to finite-dimensional vector spaces."""

    __slots__ = ("poset", "field", "dims", "maps", "name", "_paths")

    def __init__(self, poset: Poset, field: Field, dims, maps, name: str = "", check: bool = True):
        self.poset = poset
        self.field = field
        self.dims = tuple(dims)
        self.maps = dict(maps)
        self.name = name
        self._paths: dict[tuple[int, int], Mat] = {}
        for (x, y) in poset.covers:
            m = self.maps.get((x, y))
            if m is None:
                self.maps[(x, y)] = Mat.zero(field, self.dims[y], self.dims[x])
            elif (m.r, m.c) != (self.dims[y], self.dims[x]):
                raise ValueError(f"map shape mismatch on cover {x}->{y}")
        if check:
            self.assert_path_independent()

    # -- structure -----------------------------------------------------------

    def total_dim(self) -> int:
        return sum(self.dims)

    def support(self) -> frozenset[int]:
        return frozenset(x for x in self.poset.elements() if self.dims[x] > 0)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)

    def path_map(self, x: int, y: int) -> Mat:
        """The canonical map M(x) -> M(y) for x <= y (any cover path)."""
        P = self.poset
        if x == y:
            return Mat.identity(self.field, self.dims[x])
        key = (x, y)
        got = self._paths.get(key)
        if got is None:
            for z in P.covers_below(y):
                if P.leq(x, z):
                    got = self.maps[(z, y)].mul(self.path_map(x, z))
                    break
            if got is None:
                raise PosetarError(f"no path from {x} to {y}")
            self._paths[key] = got
        return got

    def assert_path_independent(self) -> None:
        P = self.poset
        for y in P.elements():
            lowers = P.covers_below(y)
            for x in P.elements():
                if not P.lt(x, y):
                    continue
                routes = [
                    self.maps[(z, y)].mul(self.path_map(x, z))
                    for z in lowers
                    if P.leq(x, z)
                ]
                first = routes[0]
                for other in routes[1:]:
                    if other != first:
                        raise PosetarError(
                            f"path independence fails between {P.names[x]} and {P.names[y]}"
                        )

    def is_thin_constant(self) -> bool:
        """True when this is (isomorphic to) k_Q for its support Q."""
        if any(d > 1 for d in self.dims):
            return False
        sup = self.support()
        z = self.field.zero
        for (x, y) in self.poset.covers:
            if x in sup and y in sup and self.maps[(x, y)].rows[0][0] == z:
                return False
        return True

    def __repr__(self) -> str:
        label = self.name or "module"
        return f"{label}{list(self.dims)}"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        P = self.poset
        return {
            "field": str(self.field),
            "dims": {P.names[x]: self.dims[x] for x in P.elements()},
            "maps": {
                f"{P.names[x]}<{P.names[y]}": [
                    str(v) for row in self.maps[(x, y)].rows for v in row
                ]
                for (x, y) in P.covers
            },
        }

    @staticmethod
    def from_json(P: Poset, data: dict) -> "Representation":
        fieldname = data["field"]
        field = QQ if fieldname == "rationals" else Field(int(fieldname[3:-1]))
        dims = [data["dims"][P.names[x]] for x in P.elements()]
        maps = {}
        for (x, y) in P.covers:
            flat = [field.parse(s) for s in data["maps"][f"{P.names[x]}<{P.names[y]}"]]
            r, c = dims[y], dims[x]
            maps[(x, y)] = Mat(field, [flat[i * c:(i + 1) * c] for i in range(r)], r, c)
        return Representation(P, field, dims, maps)


class Morphism:
    """Natural transformation between two representations of one poset."""

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: Representation, target: Representation, blocks, check: bool = False):
        self.source = source
        self.target = target
        self.blocks = tuple(blocks)
        if check:
            self.assert_natural()

    def block(self, x: int) -> Mat:
        return self.blocks[x]

    def assert_natural(self) -> None:
        M, N = self.source, self.target
        for (x, y) in M.poset.covers:
            lhs = N.maps[(x, y)].mul(self.blocks[x])
            rhs = self.blocks[y].mul(M.maps[(x, y)])
            if lhs != rhs:
                raise PosetarError(f"morphism not natural on cover {x}->{y}")

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other."""
        return Morphism(
            other.source,
            self.target,
            [self.blocks[x].mul(other.blocks[x]) for x in range(len(self.blocks))],
        )

    def add(self, other: "Morphism") -> "Morphism":
        return Morphism(
            self.source,
            self.target,
            [a.add(b) for a, b in zip(self.blocks, other.blocks)],
        )

    def scale(self, s) -> "Morphism":
        return Morphism(self.source, self.target, [b.scale(s) for b in self.blocks])

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def is_injective(self) -> bool:
        return all(b.rank() == b.c for b in self.blocks)

    def is_surjective(self) -> bool:
        return all(b.rank() == b.r for b in self.blocks)

    def is_isomorphism(self) -> bool:
        return all(b.is_invertible() for b in self.blocks)

    def flat(self) -> tuple:
        return tuple(v for b in self.blocks for row in b.rows for v in row)

    def trace(self):
        f = self.source.field
        acc = f.zero
        for b in self.blocks:
            acc = f.add(acc, b.trace())
        return acc

    def kernel(self) -> tuple[Representation, "Morphism"]:
        """Kernel subrepresentation with its inclusion."""
        M = self.source
        field = M.field
        bases = [span_basis(field, self.blocks[x].nullspace(), M.dims[x]) for x in M.poset.elements()]
        return _subrep_from_bases(M, bases)

    def image(self) -> tuple[Representation, "Morphism"]:
        """Image subrepresentation of the target, with its inclusion."""
        N = self.target
        bases = [self.blocks[x].column_space_basis() for x in N.poset.elements()]
        return _subrep_from_bases(N, bases)

    def cokernel(self) -> tuple[Representation, "Morphism"]:
        """Cokernel representation with the projection from the target."""
        N = self.target
        field = N.field
        P = N.poset
        projs: list[Mat] = []
        dims = []
        for x in P.elements():
            im = self.blocks[x].column_space_basis()
            projs.append(_quotient_projection(field, im, N.dims[x]))
            dims.append(projs[-1].r)
        maps = {}
        for (x, y) in P.covers:
            # Induced map: solve proj_y lifts through the quotient.
            # q_y * N(x->y) factors through q_x because im is a subrep image.
            lift = _factor_through_projection(field, projs[x], projs[y].mul(N.maps[(x, y)]))
            maps[(x, y)] = lift
        C = Representation(P, field, dims, maps, check=False)
        return C, Morphism(N, C, projs)


def _quotient_projection(field: Field, subspace_basis: Mat, dim: int) -> Mat:
    """Projection k^dim -> k^dim/subspace, rows spanning the quotient."""
    # Row-reduce [B | I]; rows whose B-part vanished are functionals killing B,
    # i.e. coordinates of a complement.
    aug = subspace_basis.hstack(Mat.identity(field, dim))
    R, _ = aug.rref()
    z = field.zero
    rows = [list(row[subspace_basis.c:]) for row in R.rows if all(v == z for v in row[:subspace_basis.c])]
    return Mat(field, rows, len(rows), dim)


def _factor_through_projection(field: Field, q: Mat, m: Mat) -> Mat:
    """Find A with A*q = m (q surjective rows)."""
    # Transpose: q^T * A^T = m^T.
    At = q.transpose().solve(m.transpose())
    if At is None:
        raise PosetarError("map does not factor through quotient")
    return At.transpose()


def _subrep_from_bases(M: Representation, bases: list[Mat]):
    """Close the given per-element spans under the structure maps.

    One pass in linear-extension order is exact: covers point upward, so the
    span at every element below y is final before a cover leaves it for y,
    and the span at y is final once the images along its covers are added.
    """
    P, field = M.poset, M.field
    incl_blocks: list[Mat] = [None] * P.n
    maps = {}
    for y in P.linear_extension():
        imgs = {x: M.maps[(x, y)].mul(incl_blocks[x]) for x in P.covers_below(y)}
        cols = bases[y].columns() + [c for img in imgs.values() for c in img.columns()]
        incl_blocks[y] = span_basis(field, cols, M.dims[y])
        for x, img in imgs.items():
            maps[(x, y)] = incl_blocks[y].solve(img)
    S = Representation(P, field, [b.c for b in incl_blocks], maps, check=False)
    return S, Morphism(S, M, incl_blocks)


# -- constructors -------------------------------------------------------------


def constant_on(P: Poset, subset, field: Field = QQ, name: str = "") -> Representation:
    """k_Q: one-dimensional on a convex subset, identity maps inside."""
    subset = frozenset(subset)
    if not P.is_convex(subset):
        raise NotConvex("support is not convex")
    dims = [1 if x in subset else 0 for x in P.elements()]
    maps = {}
    one = field.one
    for (x, y) in P.covers:
        if x in subset and y in subset:
            maps[(x, y)] = Mat(field, [[one]], 1, 1)
    if not name:
        name = "k{" + ",".join(P.names[x] for x in P.sorted_ids(subset)) + "}"
    return Representation(P, field, dims, maps, name=name, check=False)


def projective(P: Poset, x: int, field: Field = QQ) -> Representation:
    return constant_on(P, P.up_set(x), field, name=f"P({P.names[x]})")


def injective(P: Poset, x: int, field: Field = QQ) -> Representation:
    return constant_on(P, P.down_set(x), field, name=f"I({P.names[x]})")


def simple(P: Poset, x: int, field: Field = QQ) -> Representation:
    return constant_on(P, {x}, field, name=f"S({P.names[x]})")


def zero_rep(P: Poset, field: Field = QQ) -> Representation:
    return Representation(P, field, [0] * P.n, {}, name="0", check=False)


def direct_sum(reps: list[Representation]) -> tuple[Representation, list[Morphism], list[Morphism]]:
    """Direct sum with canonical inclusions and projections."""
    if not reps:
        raise ValueError("empty direct sum needs an ambient poset; use zero_rep")
    P, field = reps[0].poset, reps[0].field
    dims = [sum(r.dims[x] for r in reps) for x in P.elements()]
    maps = {}
    for (x, y) in P.covers:
        r0 = 0
        c0 = 0
        data = [[field.zero] * dims[x] for _ in range(dims[y])]
        for r in reps:
            m = r.maps[(x, y)]
            for i in range(m.r):
                for j in range(m.c):
                    data[r0 + i][c0 + j] = m.rows[i][j]
            r0 += r.dims[y]
            c0 += r.dims[x]
        maps[(x, y)] = Mat(field, data, dims[y], dims[x])
    S = Representation(P, field, dims, maps, check=False)
    incls, projs = [], []
    offs = [0] * P.n
    for r in reps:
        iblocks, pblocks = [], []
        for x in P.elements():
            inc = Mat.zero(field, dims[x], r.dims[x])
            pro = Mat.zero(field, r.dims[x], dims[x])
            di = [list(row) for row in inc.rows]
            dp = [list(row) for row in pro.rows]
            for j in range(r.dims[x]):
                di[offs[x] + j][j] = field.one
                dp[j][offs[x] + j] = field.one
            iblocks.append(Mat(field, di, dims[x], r.dims[x]))
            pblocks.append(Mat(field, dp, r.dims[x], dims[x]))
        incls.append(Morphism(r, S, iblocks))
        projs.append(Morphism(S, r, pblocks))
        for x in P.elements():
            offs[x] += r.dims[x]
    return S, incls, projs


# -- radical / socle / top -----------------------------------------------------


def radical(M: Representation) -> tuple[Representation, Morphism]:
    """Submodule generated by images of all cover maps."""
    P, field = M.poset, M.field
    bases = []
    for y in P.elements():
        cols = []
        for x in P.covers_below(y):
            cols.extend(M.maps[(x, y)].columns())
        bases.append(span_basis(field, cols, M.dims[y]))
    return _subrep_from_bases(M, bases)


def socle(M: Representation) -> tuple[Representation, Morphism]:
    """Largest semisimple submodule: joint kernels of outgoing covers."""
    P, field = M.poset, M.field
    bases = []
    for x in P.elements():
        ups = P.covers_above(x)
        if not ups:
            bases.append(Mat.identity(field, M.dims[x]))
            continue
        stacked = M.maps[(x, ups[0])]
        for y in ups[1:]:
            stacked = stacked.vstack(M.maps[(x, y)])
        bases.append(span_basis(field, stacked.nullspace(), M.dims[x]))
    return _subrep_from_bases(M, bases)


def top(M: Representation) -> tuple[Representation, Morphism]:
    """M / rad M with the projection."""
    _, incl = radical(M)
    return incl.cokernel()


# -- hom spaces ----------------------------------------------------------------


def hom(M: Representation, N: Representation) -> list[Morphism]:
    """Basis of the space of morphisms M -> N."""
    if M.poset is not N.poset and M.poset.covers != N.poset.covers:
        raise PosetarError("hom requires representations of the same poset")
    P, field = M.poset, M.field
    offsets = []
    total = 0
    for x in P.elements():
        offsets.append(total)
        total += N.dims[x] * M.dims[x]
    if total == 0:
        return []
    rows = []
    z = field.zero
    for (x, y) in P.covers:
        A = N.maps[(x, y)]  # N(x)->N(y)
        B = M.maps[(x, y)]  # M(x)->M(y)
        # constraint: A * f_x - f_y * B = 0, entries indexed by (i in N(y), j in M(x))
        for i in range(N.dims[y]):
            for j in range(M.dims[x]):
                row = [z] * total
                for t in range(N.dims[x]):
                    row[offsets[x] + t * M.dims[x] + j] = field.add(
                        row[offsets[x] + t * M.dims[x] + j], A.rows[i][t]
                    )
                for s in range(M.dims[y]):
                    idx = offsets[y] + i * M.dims[y] + s
                    row[idx] = field.sub(row[idx], B.rows[s][j])
                rows.append(row)
    if rows:
        system = Mat(field, rows, len(rows), total)
        kernel = system.nullspace()
    else:
        kernel = [tuple(field.one if i == j else z for i in range(total)) for j in range(total)]
    out = []
    for vec in kernel:
        blocks = []
        for x in P.elements():
            r, c = N.dims[x], M.dims[x]
            seg = vec[offsets[x]: offsets[x] + r * c]
            blocks.append(Mat(field, [seg[i * c:(i + 1) * c] for i in range(r)], r, c))
        out.append(Morphism(M, N, blocks))
    return out


def hom_dim(M: Representation, N: Representation) -> int:
    return len(hom(M, N))


def is_isomorphic(M: Representation, N: Representation, rng=None) -> bool:
    """Dimension-vector check plus a search for an invertible hom."""
    if M.dims != N.dims:
        return False
    if M.total_dim() == 0:
        return True
    if M.is_thin_constant() and N.is_thin_constant():
        return M.support() == N.support()
    basis = hom(M, N)
    if not basis:
        return False
    for f in basis:
        if f.is_isomorphism():
            return True
    field = M.field
    rng = rng or random.Random(0)
    for _ in range(30):
        f = linear_combination(basis, [field.of_int(rng.randint(-3, 3)) for _ in basis])
        if f.is_isomorphism():
            return True
    return False


def linear_combination(basis: list[Morphism], coeffs) -> Morphism:
    """The morphism sum of c * f over a nonempty basis and its coefficients."""
    out = basis[0].scale(coeffs[0])
    for f, c in zip(basis[1:], coeffs[1:]):
        out = out.add(f.scale(c))
    return out


# -- restriction / induction / duality ------------------------------------------


def restrict(M: Representation, subset) -> tuple[Representation, Poset, list[int]]:
    """Restriction to a convex subset; returns (module, subposet, id map)."""
    P = M.poset
    subset = frozenset(subset)
    if not P.is_convex(subset):
        raise NotConvex("restriction requires a convex subset")
    sub, ids = P.induced(subset)
    dims = [M.dims[x] for x in ids]
    maps = {}
    for (i, j) in sub.covers:
        maps[(i, j)] = M.path_map(ids[i], ids[j])
    R = Representation(sub, M.field, dims, maps, name=M.name and f"{M.name}|", check=False)
    return R, sub, ids


def dualize(M: Representation) -> tuple[Representation, Poset]:
    """Linear dual over the opposite poset (matrices transposed)."""
    Pop = M.poset.opposite()
    maps = {}
    for (x, y) in M.poset.covers:
        maps[(y, x)] = M.maps[(x, y)].transpose()
    D = Representation(Pop, M.field, M.dims, maps, name=f"D({M.name})" if M.name else "", check=False)
    return D, Pop


def transport(M: Representation, target: Poset, ids: list[int]) -> Representation:
    """Regard a module over a convex subposet as a module of the big poset.

    ids[i] is the ambient id of subposet element i; all ambient covers inside
    the subset are paths of the subposet, so path maps transport the structure.
    """
    sub = M.poset
    back = {amb: i for i, amb in enumerate(ids)}
    dims = [0] * target.n
    for i, amb in enumerate(ids):
        dims[amb] = M.dims[i]
    maps = {}
    for (x, y) in target.covers:
        if x in back and y in back:
            maps[(x, y)] = M.path_map(back[x], back[y])
    return Representation(target, M.field, dims, maps, name=M.name, check=False)
