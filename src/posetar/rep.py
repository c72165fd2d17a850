"""Representations of a finite poset over an exact field.

A representation assigns a vector space to each element and a matrix to each
Hasse cover, subject to path independence (all cover-paths between two
comparable elements compose to the same map).  Morphisms, kernels, cokernels,
images, Hom spaces, duality and (co)induction all live here.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotConvex, PosetarError
from .linalg import _MEMO_CELLS, _MEMO_SIZE, Field, Mat, QQ, _cols, _dots, _eliminate, _mat, _null_basis, span_basis
from .poset import Poset, _mask


class Representation:
    """Functor from the poset to finite-dimensional vector spaces."""

    __slots__ = ("poset", "field", "dims", "maps", "_paths")

    def __init__(self, poset: Poset, field: Field, dims, maps, check: bool = True):
        self.poset = poset
        self.field = field
        self.dims = tuple(dims)
        self.maps = dict(maps)
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
        """True when this is (isomorphic to) k_Q for its support Q.

        k_Q is defined for a convex Q only.  A thin module on a convex Q is
        k_Q when its cover scalars m(x, y) are nonzero and a coboundary:
        scalars c fixed along a spanning forest of the covers inside Q must
        give m(x, y) = c_y / c_x on every cover.
        """
        if any(d > 1 for d in self.dims):
            return False
        sup = self.support()
        if not self.poset.is_convex(sup):
            return False
        F = self.field
        scal = {(x, y): self.maps[(x, y)].rows[0][0] for (x, y) in self.poset.covers if x in sup and y in sup}
        if F.zero in scal.values():
            return False
        adj: dict[int, list] = {x: [] for x in sup}
        for (x, y), m in scal.items():
            adj[x].append((y, m))
            adj[y].append((x, F.inv(m)))
        c = {}
        for root in sup:
            if root in c:
                continue
            c[root] = F.one
            stack = [root]
            while stack:
                x = stack.pop()
                for y, m in adj[x]:
                    if y not in c:
                        c[y] = F.mul(m, c[x])
                        stack.append(y)
        return all(F.mul(m, c[x]) == c[y] for (x, y), m in scal.items())

    def __repr__(self) -> str:
        return f"module{list(self.dims)}"

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


def _rep(poset: Poset, field: Field, dims, maps: dict) -> Representation:
    """A Representation holding maps as given: a Mat of shape dims[y] x dims[x]
    on every cover x -> y, neither checked nor completed."""
    M = object.__new__(Representation)
    M.poset, M.field, M.dims, M.maps, M._paths = poset, field, tuple(dims), maps, {}
    return M


class Morphism:
    """Natural transformation between two representations of one poset."""

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: Representation, target: Representation, blocks):
        self.source = source
        self.target = target
        self.blocks = tuple(blocks)

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

    def kernel(self) -> tuple[Representation, "Morphism"]:
        """Kernel subrepresentation with its inclusion."""
        M = self.source
        bases = [Mat.from_columns(M.field, self.blocks[x].nullspace(), M.dims[x]) for x in M.poset.elements()]
        return _subrep_from_bases(M, bases)

    def image(self) -> tuple[Representation, "Morphism"]:
        """Image subrepresentation of the target, with its inclusion."""
        N = self.target
        return _subrep_from_bases(N, [span_basis(N.field, b.columns(), b.r) for b in self.blocks])

    def cokernel(self) -> tuple[Representation, "Morphism"]:
        """Cokernel representation with the projection from the target."""
        N, field = self.target, self.target.field
        quots = [_quotient_rows(field.p, b.rows, b.c, d) for b, d in zip(self.blocks, N.dims)]
        C = _quotient_rep(N.poset, field, quots,
                          lambda x, y, q: _mat(field, q, len(q), N.dims[y]).mul(N.maps[(x, y)]).rows)
        return C, Morphism(N, C, [_mat(field, q, len(q), d) for (q, _), d in zip(quots, N.dims)])


def cone_label(P: Poset, kind: str, sup: frozenset[int]) -> int | None:
    """The x in sup whose up-set (kind 'proj') or down-set (kind 'inj') is sup, or None."""
    cones = P.up if kind == "proj" else P.down
    mask = _mask(sup)
    return next((x for x in sup if cones[x] == mask), None)


def _quotient_projection(field: Field, gens: Mat, dim: int) -> tuple[Mat, tuple[int, ...]]:
    """Projection k^dim -> k^dim / span(gens) in reduced echelon form, with its pivots."""
    rows, pivots = _quotient_rows(field.p, gens.rows, gens.c, dim)
    return _mat(field, rows, len(rows), dim), pivots


def _quotient_rows(p: int, gens: tuple, gc: int, dim: int) -> tuple[tuple, tuple[int, ...]]:
    """_quotient_projection on the rows gens of a dim x gc matrix."""
    if not dim:
        return (), ()
    return (_quotient_memo if dim * (gc + dim) <= _MEMO_CELLS else _quotient)(p, gens, gc, dim)


def _quotient(p: int, gens: tuple, gc: int, dim: int) -> tuple[tuple, tuple[int, ...]]:
    """The rows and pivots of _quotient_projection for the rows gens of a dim x gc matrix.

    They are the reduced echelon basis of the functionals killing gens, which
    depends only on the span of gens: the nullspace of gens transposed, reduced.
    """
    null = _null_basis(p, _cols(gens, gc), dim)
    return _eliminate(p, null, dim) if null else ((), ())


_quotient_memo = lru_cache(maxsize=_MEMO_SIZE)(_quotient)


def _quotient_rep(P: Poset, field: Field, quots, along) -> Representation:
    """The quotient with the echelon projections quots[x] = (rows of q_x, pivots).

    along(x, y, q_y) gives the rows of q_y after the structure map on the
    cover x -> y.  q_x is in reduced echelon form, so the induced map A with
    A q_x = along(x, y, q_y) is the right side read at the pivots of q_x,
    where the two agree, and the factorization is checked at the others."""
    maps = {}
    for (x, y) in P.covers:
        q_x, pivots = quots[x]
        q_y = quots[y][0]
        if not q_y:
            maps[(x, y)] = _mat(field, (), 0, len(q_x))
            continue
        A = m = along(x, y, q_y)
        if len(pivots) < len(m[0]):  # else q_x is the identity and A is m
            A = tuple([tuple([row[c] for c in pivots]) for row in m])
            free = [c for c in range(len(m[0])) if c not in pivots]
            cols = [tuple([row[c] for row in q_x]) for c in free]
            if any(_dots(a, cols, field) != tuple([row[c] for c in free]) for a, row in zip(A, m)):
                raise PosetarError("map does not factor through quotient")
        maps[(x, y)] = _mat(field, A, len(q_y), len(q_x))
    return _rep(P, field, [len(q) for q, _ in quots], maps)


def _subrep_from_bases(M: Representation, bases: list[Mat]):
    """The subrepresentation with the given per-element bases, and its inclusion.

    bases[x] has linearly independent columns, which become the basis of the
    subrepresentation at x and the block of its inclusion there.  Their spans
    must already form a submodule: every structure map carries the span at x
    into the span at y, and the cover map is the unique solution there.
    """
    P, field = M.poset, M.field
    maps = {}
    for y in P.linear_extension():
        for x in P.covers_below(y):
            m = bases[y].solve(M.maps[(x, y)].mul(bases[x]))
            if m is None:
                raise PosetarError("spans are not closed under the structure maps")
            maps[(x, y)] = m
    S = Representation(P, field, [b.c for b in bases], maps, check=False)
    return S, Morphism(S, M, bases)


# -- constructors -------------------------------------------------------------


def constant_on(P: Poset, subset, field: Field = QQ) -> Representation:
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
    return Representation(P, field, dims, maps, check=False)


def projective(P: Poset, x: int, field: Field = QQ) -> Representation:
    return constant_on(P, P.up_set(x), field)


def injective(P: Poset, x: int, field: Field = QQ) -> Representation:
    return constant_on(P, P.down_set(x), field)


def simple(P: Poset, x: int, field: Field = QQ) -> Representation:
    return constant_on(P, {x}, field)


def direct_sum(reps: list[Representation]) -> Representation:
    """The direct sum.  Its basis at each element lists the summands' bases in
    order, so every cover map is block diagonal."""
    if not reps:
        raise ValueError("empty direct sum needs an ambient poset")
    P, field = reps[0].poset, reps[0].field
    z = field.zero
    dims = [sum(r.dims[x] for r in reps) for x in P.elements()]
    maps = {}
    for (x, y) in P.covers:
        rows = []
        c0 = 0
        for r in reps:
            m = r.maps[(x, y)]
            rows += [(z,) * c0 + row + (z,) * (dims[x] - c0 - m.c) for row in m.rows]
            c0 += m.c
        maps[(x, y)] = _mat(field, tuple(rows), dims[y], dims[x])
    return Representation(P, field, dims, maps, check=False)


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
        bases.append(Mat.from_columns(field, stacked.nullspace(), M.dims[x]))
    return _subrep_from_bases(M, bases)


def top(M: Representation) -> tuple[Representation, Morphism]:
    """M / rad M with the projection."""
    _, incl = radical(M)
    return incl.cokernel()


# -- hom spaces ----------------------------------------------------------------


def hom(M: Representation, N: Representation) -> list[Morphism]:
    """Basis of the space of morphisms M -> N."""
    P, field = M.poset, M.field
    offsets, total, rows = _hom_system(M, N)
    if total == 0:
        return []
    if rows:
        kernel = Mat(field, rows, len(rows), total).nullspace()
    else:
        z, o = field.zero, field.one
        kernel = [tuple(o if i == j else z for i in range(total)) for j in range(total)]
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
    """dim Hom(M, N): the unknowns of hom's system minus its rank."""
    _, total, rows = _hom_system(M, N)
    if not rows:
        return total
    return total - Mat(M.field, rows, len(rows), total).rank()


def _hom_system(M: Representation, N: Representation):
    """Offsets of the blocks f_x among the unknowns, their number, and the
    rows of the naturality constraints A f_x - f_y B = 0 on every cover."""
    if M.poset is not N.poset and M.poset.covers != N.poset.covers:
        raise PosetarError("hom requires representations of the same poset")
    P, field = M.poset, M.field
    offsets = []
    total = 0
    for x in P.elements():
        offsets.append(total)
        total += N.dims[x] * M.dims[x]
    rows = []
    if total == 0:
        return offsets, total, rows
    z, p = field.zero, field.p
    for (x, y) in P.covers:
        A = N.maps[(x, y)].rows  # N(x)->N(y)
        B = M.maps[(x, y)].rows  # M(x)->M(y)
        nx, mx, my = N.dims[x], M.dims[x], M.dims[y]
        # constraint: A * f_x - f_y * B = 0, entries indexed by (i in N(y), j in M(x));
        # f_x[t][j] sits at offsets[x] + t*mx + j and f_y[i][s] at offsets[y] + i*my + s,
        # so each row holds row i of A and minus column j of B, in disjoint places.
        neg_cols = [[-b % p if p else -b for b in col] for col in zip(*B)] if my else [()] * mx
        for i in range(N.dims[y]):
            fy = offsets[y] + i * my
            for j in range(mx):
                row = [z] * total
                row[offsets[x] + j: offsets[x] + nx * mx: mx] = A[i]
                row[fy: fy + my] = neg_cols[j]
                rows.append(row)
    return offsets, total, rows


def is_isomorphic(M: Representation, N: Representation) -> bool:
    """Whether M and N are isomorphic; M or N must be indecomposable.

    The endomorphism ring of an indecomposable is local, so M and N are
    isomorphic exactly when some element of a basis of Hom(M, N) is an
    isomorphism (Auslander, Reiten and Smalø, Representation Theory of Artin
    Algebras, Ch. I).  For two decomposable modules a False may be wrong.
    """
    if M.dims != N.dims:
        return False
    if M.total_dim() == 0:
        return True
    if M.is_thin_constant() and N.is_thin_constant():
        return M.support() == N.support()
    return any(f.is_isomorphism() for f in hom(M, N))


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
    R = Representation(sub, M.field, dims, maps, check=False)
    return R, sub, ids


def dualize(M: Representation) -> tuple[Representation, Poset]:
    """Linear dual over the opposite poset (matrices transposed)."""
    Pop = M.poset.opposite()
    maps = {}
    for (x, y) in M.poset.covers:
        maps[(y, x)] = M.maps[(x, y)].transpose()
    return _rep(Pop, M.field, M.dims, maps), Pop


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
    return Representation(target, M.field, dims, maps, check=False)
