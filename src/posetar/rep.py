"""Representations of a finite poset over an exact field.

A representation assigns a vector space to each element and a matrix to each
Hasse cover, subject to path independence (all cover-paths between two
comparable elements compose to the same map).  Morphisms, kernels, cokernels,
images, Hom spaces, duality and (co)induction all live here.
"""

from __future__ import annotations

from .errors import NotConvex, PosetarError
from .linalg import Field, Mat, QQ, _at, _cols, _dots, _mat, _null_rows, _quotient_rows, _rref_rows
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
        forest = _thin_forest(self)
        if forest is None:
            return False
        scal, c, _ = forest
        if not all(scal.values()) or not self.poset.is_convex(c):
            return False
        p = self.field.p
        for (x, y), m in scal.items():
            (a, b), (u, v) = c[x], c[y]
            e = u * b - m * a * v  # c_y - m c_x, times the denominators b v
            if e % p if p else e:
                return False
        return True

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


def _thin_forest(M: Representation):
    """None unless M is thin (every dimension at most 1).  Else the scalar of
    its cover map on each cover inside its support, c on the support with
    c_y = m(x, y) c_x along a spanning forest of the covers with a nonzero
    scalar, each c_x as a pair (numerator, denominator) so that no scalar is
    inverted, and the number of trees of that forest."""
    dims = M.dims
    if max(dims, default=0) > 1:
        return None
    p = M.field.p
    scal = {(x, y): m.rows[0][0] for (x, y), m in M.maps.items() if dims[x] and dims[y]}
    adj: dict[int, list] = {x: [] for x in M.poset.elements() if dims[x]}
    for (x, y), m in scal.items():
        if m:
            adj[x].append((y, m, 1))
            adj[y].append((x, 1, m))
    c: dict[int, tuple] = {}
    trees = 0
    for root in adj:
        if root in c:
            continue
        trees += 1
        c[root] = (1, 1)
        stack = [root]
        while stack:
            x = stack.pop()
            a, b = c[x]
            for y, num, den in adj[x]:
                if y not in c:
                    c[y] = (a * num % p, b * den % p) if p else (a * num, b * den)
                    stack.append(y)
    return scal, c, trees


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

    def is_isomorphism(self) -> bool:
        return all(b.is_invertible() for b in self.blocks)

    def flat(self) -> tuple:
        return tuple(v for b in self.blocks for row in b.rows for v in row)

    def kernel(self) -> tuple[Representation, "Morphism"]:
        """Kernel subrepresentation with its inclusion (PosetarError unless
        the blocks are natural)."""
        self._check_natural()
        return _null_submodule(self.source, [b.nullspace() for b in self.blocks])

    def image(self) -> tuple[Representation, "Morphism"]:
        """Image subrepresentation of the target, with its inclusion: the
        columns of each block at its pivots (PosetarError unless the blocks
        are natural)."""
        self._check_natural()
        echelons = [_rref_rows(b.field.p, b.rows, b.c) for b in self.blocks]
        I = _image_rep(self.source, echelons)
        return I, Morphism(I, self.target, [_mat(b.field, _at(b.rows, piv), b.r, len(piv))
                                            for b, (_, piv) in zip(self.blocks, echelons)])

    def _check_natural(self) -> None:
        """PosetarError unless N(x, y) f_x = f_y M(x, y) on every cover x -> y."""
        f, M, N = self.blocks, self.source, self.target
        if any(N.maps[(x, y)].mul(f[x]) != f[y].mul(M.maps[(x, y)]) for (x, y) in M.poset.covers):
            raise PosetarError("the blocks do not commute with the structure maps")

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


def _quotient_rep(P: Poset, field: Field, quots, along) -> Representation:
    """The quotient with the echelon projections quots[x] = (rows of q_x, pivots).

    along(x, y, q_y) gives the rows of q_y after the structure map on the
    cover x -> y, and _factor_rows the induced map."""
    maps = {}
    for (x, y) in P.covers:
        q_x, pivots = quots[x]
        q_y = quots[y][0]
        if q_y:
            q_y = _factor_rows(field, q_x, pivots, along(x, y, q_y))
        maps[(x, y)] = _mat(field, q_y, len(q_y), len(q_x))
    return _rep(P, field, [len(q) for q, _ in quots], maps)


def _factor_rows(field: Field, q_x, pivots, m) -> tuple:
    """The rows of the A with A q_x = m, for q_x in reduced echelon form with
    the given pivots and nonempty rows m that vanish on the kernel of q_x.

    A is m read at the pivots of q_x, where the two agree, and the
    factorization is checked at the other columns."""
    if len(pivots) == len(m[0]):  # q_x is the identity and A is m
        return m
    A = _at(m, pivots)
    free = [c for c in range(len(m[0])) if c not in pivots]
    cols = [tuple([row[c] for row in q_x]) for c in free]
    if any(_dots(a, cols, field) != tuple([row[c] for c in free]) for a, row in zip(A, m)):
        raise PosetarError("map does not factor through quotient")
    return A


def _kernel_rep(P: Poset, field: Field, null, along) -> Representation:
    """The submodule with basis null[x] at each x, a reduced nullspace basis:
    vector i has a 1 at the i-th free column and 0 at the others, so a
    vector at y has its coordinates there at the free columns of y.

    along(x, y, v) gives the vector v at x after the structure map on the
    cover x -> y, which the map there reads at the free columns of y."""
    free = [[max(i for i, a in enumerate(v) if a) for v in vs] for vs in null]
    maps = {}
    for (x, y) in P.covers:
        vs = [along(x, y, v) for v in null[x]] if free[y] else ()
        maps[(x, y)] = _mat(field, tuple([tuple([u[c] for u in vs]) for c in free[y]]), len(free[y]), len(null[x]))
    return _rep(P, field, [len(vs) for vs in null], maps)


def _null_submodule(M: Representation, null) -> tuple[Representation, Morphism]:
    """_kernel_rep inside M, whose structure maps carry the vectors, with the
    inclusion, whose block at x has the columns null[x]."""
    S = _kernel_rep(M.poset, M.field, null, lambda x, y, v: M.maps[(x, y)].apply(v))
    return S, Morphism(S, M, [Mat.from_columns(M.field, vs, d) for vs, d in zip(null, M.dims)])


def _image_rep(M: Representation, echelons) -> Representation:
    """The image of a morphism g out of M, given the reduced echelon rows
    and pivots (R_x, pivots) of each block g_x.

    Its basis at x is the columns of g_x at the pivots, B_x, and g_x = B_x R_x.
    As g_y M(x, y) = N(x, y) g_x, the map on a cover x -> y is R_y times
    M(x, y) read at the pivot columns of x."""
    field = M.field
    maps = {}
    for (x, y) in M.poset.covers:
        piv_x, (R_y, piv_y) = echelons[x][1], echelons[y]
        cols = _cols(_at(M.maps[(x, y)].rows, piv_x), len(piv_x))
        maps[(x, y)] = _mat(field, tuple([_dots(row, cols, field) for row in R_y[:len(piv_y)]]), len(piv_y), len(piv_x))
    return _rep(M.poset, field, [len(piv) for _, piv in echelons], maps)


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
    """Submodule generated by images of all cover maps.

    Its basis B_z at z is the columns at the pivots of A_z = [M(x, z) for the
    covers x -> z], so A_z = B_z R_z for its reduced echelon rows R_z.  M(y, z)
    is the block of y in A_z, so the map on y -> z is R_z read at that block,
    times B_y."""
    P, field, dims = M.poset, M.field, M.dims
    block, R, B = {}, [], []
    for z in P.elements():
        A, c = ((),) * dims[z], 0
        for x in P.covers_below(z):
            block[(x, z)] = range(c, c + dims[x])
            c += dims[x]
            A = tuple([a + b for a, b in zip(A, M.maps[(x, z)].rows)])
        rows, piv = _rref_rows(field.p, A, c)
        R.append(rows[:len(piv)])
        B.append(_mat(field, _at(A, piv), dims[z], len(piv)))
    maps = {(y, z): _mat(field, _at(R[z], block[(y, z)]), len(R[z]), dims[y]).mul(B[y]) for (y, z) in P.covers}
    S = _rep(P, field, [b.c for b in B], maps)
    return S, Morphism(S, M, B)


def socle(M: Representation) -> tuple[Representation, Morphism]:
    """Largest semisimple submodule: joint kernels of outgoing covers."""
    P = M.poset
    stacked = [tuple([row for y in P.covers_above(x) for row in M.maps[(x, y)].rows]) for x in P.elements()]
    return _null_submodule(M, [_null_rows(M.field.p, rows, d) for rows, d in zip(stacked, M.dims)])


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
            o = offsets[x]
            blocks.append(_mat(field, tuple([vec[o + i * c: o + (i + 1) * c] for i in range(r)]), r, c))
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
