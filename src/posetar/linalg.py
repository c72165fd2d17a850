"""Dense exact linear algebra over the rationals or a prime field.

Everything downstream (representations, resolutions, knitting) reduces to
rank, kernel and echelon-form questions on small dense matrices, so this
module keeps the arithmetic exact and the interface minimal.  Matrices are
immutable; rows are tuples of field elements.  Over GF(p), p < 2^31, an
element is a reduced int in [0, p).  Over the rationals it is a Python int
when it is integral and a Fraction with denominator > 1 otherwise, never a
float: nearly every entry the algebra layers meet is a small integer, and
int arithmetic costs a fraction of Fraction's.  Every entry this module
computes follows that contract: the results of rref, nullspace, solve, mul,
apply, add, sub and scale, and the Field methods.  The constructor accepts
any ints or Fractions, and re-indexing (transpose, hstack, vstack, column,
columns, from_columns) keeps the entries it was given.  No `/` is
applied between two entries: a quotient goes through `_div`, which returns
`a // b` when b divides a and `Fraction(a, b)` otherwise, and sums and
products that may come out integral are turned back into ints by `_canon`.

The kernels make no Field method call and no Fraction comparison per entry:
they skip zeros by truthiness and use plain `+`/`*`, reducing mod p once per
entry.  Elimination over the rationals runs on Python ints and stays exact:
each row is scaled to integers by the lcm of its denominators, a row
operation clears the pivot column in another row and is followed by
division by the gcd of the row's entries, and each pivot row is divided by
its pivot once, at the end.  To clear the entry b of a row against the pivot
a, the row becomes (a/g)*row - (b/g)*pivot_row for g = gcd(a, b), with the
pivot row's multiple subtracted only where the pivot row is nonzero.  Each
row is then a nonzero multiple of the row that elimination over Fraction
holds, and the reduced row echelon form is unique, so this gives the same
matrix.  Over GF(p) the same loop reduces mod p in place of the gcd step
and finishes with the inverse of the pivot.  A matrix with no rows or no
columns is its own echelon form.

The eliminating kernels are memoized here and nowhere else: `_rref_rows`,
`_null_rows` and `_quotient_rows` (the cokernel projection), behind
`Mat.rref`, `Mat.nullspace` and `rep._quotient_projection`, each keep one
`functools.lru_cache` (`_rref_memo`, `_null_basis_memo`, `_quotient_memo`)
of `_MEMO_SIZE` = 128 entries, and only inputs of at most `_MEMO_CELLS`
= 64 entries (r * c; dim * (gc + dim) for the projection) go through it.  The
key is the content: the characteristic p as an int, the rows and c, plus
dim for the projection; never a Mat, nor the Field, whose hash is a
Python-level call.  A hit is sound because the reduced echelon form of a
matrix is unique, so the stored result is the one a fresh elimination would
compute; `Fraction(n, 1)` and `n` share a key and both give the canonical
ints.  The memo stores tuples, which the labelled helpers of `rep`,
`homalg` and `knit` read as rows; the Mat methods wrap them, and nullspace
hands out a fresh list.  It is process-wide, but most of the reuse is
within one operation: tau_inverse asks the same small questions many times.
One warm family-sweep pass of the benchmark (seed 20240) asks the three
10,392 questions: rref 3,517 on 446 distinct inputs, nullspace 2,200 on 154
and the projection 4,675 on 106; 216 of them are above the bound.  With the
memo a pass runs 635 eliminations, 361 of them rref misses, as a pass asks
more distinct rref questions than the memo holds.  Clearing the three memos
before every operation of that pass made it 3-4% slower (in-process medians
of 12 passes, 0.117 -> 0.122 s and 0.121 -> 0.124 s on a shared 2-core Xeon
box).  A larger memo would answer the 361 misses from the previous pass
over the same inputs, the benchmark's repetition rather than a user's
traffic.  The bound keeps out what rarely repeats and would hold most of
the memory.  The unit rows of k^n, for n * n <= `_MEMO_CELLS`, are built
once, at import (`_unit_rows`).

`Mat(field, rows, r, c)` copies any iterable of rows into a tuple of tuples
and raises ValueError unless it has r rows of length c; every caller not
named below gets that check.  The kernels here (zero, identity, from_columns,
add, sub, scale, mul, transpose, hstack, vstack, rref and solve) fix the
shape of their result by construction, build its rows as tuples, and store
them with `_mat`, which neither copies nor checks.  So do the sites that wrap
labelled rows whose shape they know: in `rep`, `direct_sum`, `hom`,
`Morphism.image`, `Morphism.cokernel`, `radical`, `_quotient_projection`,
`_quotient_rep`, `_kernel_rep` and `_image_rep`; in `homalg`,
`_realize_layout`, `realize_scalar_map`, `projective_presentation`,
`_resolution`, `min_injective_resolution` and `_hom_complex_map`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

_MEMO_CELLS = 64  # largest r * c an exact kernel memoizes
_MEMO_SIZE = 128  # entries in each kernel's LRU memo
_MAX_P = 1 << 31  # GF(p) needs p below this, so that trial division takes at most 46,341 steps


def _canon(v):
    """A rational as the contract stores it: an int when it is integral."""
    return v if v.__class__ is int or v.denominator != 1 else v.numerator


def _div(a: int, b: int):
    """The exact quotient a/b of two ints: an int when b divides a."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Field:
    """Field descriptor: the rationals (p == 0) or GF(p) for a prime p < 2^31.

    Elements are plain values, not wrapped: over GF(p) a reduced int in
    [0, p), over the rationals an int when integral and a Fraction with
    denominator > 1 otherwise.  Every method returns an element in that form.
    Two descriptors are equal when their p is.
    """

    __slots__ = ("p",)

    def __init__(self, p: int = 0) -> None:
        if p >= _MAX_P:
            raise ValueError(f"{p} is not below 2^31")
        if p and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self) -> int:
        return hash(self.p)

    @property
    def is_rationals(self) -> bool:
        return self.p == 0

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def of_int(self, n: int) -> int:
        return n % self.p if self.p else int(n)

    def add(self, a, b):
        return (a + b) % self.p if self.p else _canon(a + b)

    def sub(self, a, b):
        return (a - b) % self.p if self.p else _canon(a - b)

    def mul(self, a, b):
        return (a * b) % self.p if self.p else _canon(a * b)

    def inv(self, a):
        """The inverse of a nonzero element (ZeroDivisionError on zero)."""
        if self.p == 0:
            return _div(a.denominator, a.numerator)
        return pow(a, self.p - 2, self.p)

    def parse(self, text: str):
        """Parse 'p/q' (rationals) or an integer literal."""
        if self.p == 0:
            return _canon(Fraction(text))
        return int(text) % self.p

    def __str__(self) -> str:
        return "rationals" if self.p == 0 else f"gf({self.p})"


QQ = Field(0)


class Mat:
    """Immutable dense matrix with explicit shape (rows may be empty).

    Two matrices are equal when their characteristic, shape and rows are."""

    __slots__ = ("field", "r", "c", "rows")

    def __init__(self, field: Field, rows, r: int | None = None, c: int | None = None):
        rows = tuple(map(tuple, rows))
        if r is None:
            r = len(rows)
        if c is None:
            c = len(rows[0]) if rows else 0
        if len(rows) != r or (r and set(map(len, rows)) != {c}):
            raise ValueError("inconsistent matrix shape")
        self.field = field
        self.r = r
        self.c = c
        self.rows = rows

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: Field, r: int, c: int) -> "Mat":
        return _mat(field, ((field.zero,) * c,) * r, r, c)

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        return _mat(field, _unit_rows(n), n, n)

    @staticmethod
    def from_columns(field: Field, cols, nrows: int) -> "Mat":
        if not cols:
            return Mat.zero(field, nrows, 0)
        rows = tuple(zip(*cols))
        if len(rows) != nrows:
            raise ValueError("column length differs from the row count")
        return _mat(field, rows, nrows, len(cols))

    # -- basic algebra -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.field.p == other.field.p
            and self.r == other.r
            and self.c == other.c
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.r, self.c, self.rows))

    def __repr__(self) -> str:
        return f"Mat({self.r}x{self.c})"

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def add(self, other: "Mat") -> "Mat":
        rows = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        return _mat(self.field, _reduce(self.field.p, rows), self.r, self.c)

    def sub(self, other: "Mat") -> "Mat":
        rows = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        return _mat(self.field, _reduce(self.field.p, rows), self.r, self.c)

    def scale(self, s) -> "Mat":
        rows = [[s * v for v in row] for row in self.rows]
        return _mat(self.field, _reduce(self.field.p, rows), self.r, self.c)

    def mul(self, other: "Mat") -> "Mat":
        if self.c != other.r:
            raise ValueError(f"shape mismatch {self.r}x{self.c} @ {other.r}x{other.c}")
        f = self.field
        cols = list(zip(*other.rows)) if other.r else [()] * other.c
        return _mat(f, tuple([_dots(row, cols, f) for row in self.rows]), self.r, other.c)

    def apply(self, vec):
        """Matrix times column vector (a plain tuple)."""
        return _dots(vec, self.rows, self.field)

    def transpose(self) -> "Mat":
        return _mat(self.field, _cols(self.rows, self.c), self.c, self.r)

    def hstack(self, other: "Mat") -> "Mat":
        if self.r != other.r:
            raise ValueError("row mismatch in hstack")
        return _mat(self.field, tuple([a + b for a, b in zip(self.rows, other.rows)]), self.r, self.c + other.c)

    def vstack(self, other: "Mat") -> "Mat":
        if self.c != other.c:
            raise ValueError("column mismatch in vstack")
        return _mat(self.field, self.rows + other.rows, self.r + other.r, self.c)

    def column(self, j: int):
        return tuple(self.rows[i][j] for i in range(self.r))

    def columns(self):
        return [self.column(j) for j in range(self.c)]

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        """Reduced row echelon form and pivot column indices."""
        rows, pivots = _rref_rows(self.field.p, self.rows, self.c)
        return _mat(self.field, rows, self.r, self.c), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list[tuple]:
        """Basis of the right kernel, as column vectors."""
        return list(_null_rows(self.field.p, self.rows, self.c))

    def solve(self, B: "Mat") -> "Mat | None":
        """Return one X with self @ X = B, or None if inconsistent."""
        f = self.field
        c = self.c
        R, pivots = self.hstack(B).rref()
        # Inconsistent iff a pivot falls in the B block.
        if pivots and pivots[-1] >= c:
            return None
        X = [(f.zero,) * B.c] * c
        for pi, pc in enumerate(pivots):
            X[pc] = R.rows[pi][c:]
        return _mat(f, tuple(X), c, B.c)

    def is_invertible(self) -> bool:
        return self.r == self.c and self.rank() == self.r


_new = object.__new__


def _mat(field: Field, rows: tuple, r: int, c: int) -> Mat:
    """A Mat holding `rows` as given: a tuple of r tuples of length c, neither
    copied nor checked."""
    m = _new(Mat)
    m.field = field
    m.r = r
    m.c = c
    m.rows = rows
    return m


def _eliminate(p: int, rows: tuple, c: int) -> tuple[tuple, tuple[int, ...]]:
    """The rows of the reduced echelon form of an r x c matrix over GF(p)
    (over the rationals when p == 0), and its pivot columns."""
    r = len(rows)
    if p:
        rows = list(rows)

        def normalise(row):
            return [v % p for v in row]
    else:
        rows = [_integer_row(row) for row in rows]
        normalise = _primitive
    pivots = []
    pr = 0
    for col in range(c):
        for i in range(pr, r):
            if rows[i][col]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[pr]
        rows[pr] = prow
        a = prow[col]
        nz = [(k, y) for k, y in enumerate(prow) if y]
        for i, row in enumerate(rows):
            b = row[col]
            if b and i != pr:  # (a/g) row - (b/g) prow
                g = gcd(a, b)
                s, t = a // g, b // g
                row = [s * x for x in row]
                for k, y in nz:
                    row[k] -= t * y
                rows[i] = normalise(row)
        pivots.append(col)
        pr += 1
        if pr == r:
            break
    out = [_divide_row(p, row, row[col]) for row, col in zip(rows, pivots)]
    out.extend([(0,) * c] * (r - pr))
    return tuple(out), tuple(pivots)


def _null_basis(p: int, rows: tuple, c: int) -> tuple[tuple, ...]:
    """Basis of the right kernel of an r x c matrix, one free column at a time."""
    return _null_from_echelon(p, *_eliminate(p, rows, c), c)


def _null_from_echelon(p: int, R, pivots, c: int) -> tuple[tuple, ...]:
    """The kernel basis of _null_basis, read off the reduced echelon rows R
    of an r x c matrix and their pivots."""
    pivset = set(pivots)
    basis = []
    for j in range(c):
        if j in pivset:
            continue
        vec = [0] * c
        vec[j] = 1
        for pi, pc in enumerate(pivots):
            v = R[pi][j]
            vec[pc] = -v % p if p else -v
        basis.append(tuple(vec))
    return tuple(basis)


_rref_memo = lru_cache(maxsize=_MEMO_SIZE)(_eliminate)
_null_basis_memo = lru_cache(maxsize=_MEMO_SIZE)(_null_basis)


def _rref_rows(p: int, rows: tuple, c: int) -> tuple[tuple, tuple[int, ...]]:
    """Mat.rref on the rows of an r x c matrix: its echelon rows and pivots."""
    if not rows or not c:
        return rows, ()
    return (_rref_memo if len(rows) * c <= _MEMO_CELLS else _eliminate)(p, rows, c)


def _null_rows(p: int, rows: tuple, c: int) -> tuple[tuple, ...]:
    """Mat.nullspace on rows: basis vector i ends in a 1 at the i-th free column, 0 at the others."""
    return () if not c else (_null_basis_memo if len(rows) * c <= _MEMO_CELLS else _null_basis)(p, rows, c)


def _quotient(p: int, gens: tuple, gc: int, dim: int) -> tuple[tuple, tuple[int, ...]]:
    """The rows and pivots of the projection k^dim -> k^dim / span(gens) in
    reduced echelon form, for the rows gens of a dim x gc matrix.

    They are the reduced echelon basis of the functionals killing gens, which
    depends only on the span of gens: the nullspace of gens transposed, reduced.
    """
    null = _null_basis(p, _cols(gens, gc), dim)
    return _eliminate(p, null, dim) if null else ((), ())


_quotient_memo = lru_cache(maxsize=_MEMO_SIZE)(_quotient)


def _quotient_rows(p: int, gens: tuple, gc: int, dim: int) -> tuple[tuple, tuple[int, ...]]:
    """_quotient on the rows gens of a dim x gc matrix, memoized when small."""
    if not dim:
        return (), ()
    return (_quotient_memo if dim * (gc + dim) <= _MEMO_CELLS else _quotient)(p, gens, gc, dim)


def _units(n: int) -> tuple:
    return tuple([(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)])


_UNITS = tuple(_units(n) for n in range(9))  # every size with n * n <= _MEMO_CELLS


def _unit_rows(n: int) -> tuple:
    """The rows of the n x n identity, the unit vectors of k^n: built once
    for the sizes of at most _MEMO_CELLS entries."""
    return _UNITS[n] if n < len(_UNITS) else _units(n)


def _cols(rows: tuple, c: int) -> tuple:
    """The columns of an r x c matrix given by its rows."""
    return tuple(zip(*rows)) if rows else ((),) * c


def _at(rows, cols) -> tuple:
    """The rows read at the given columns."""
    return tuple([tuple([row[c] for c in cols]) for row in rows])


def _reduce(p: int, rows):
    """Rows reduced mod p; over the rationals (p == 0) with integral entries as ints."""
    if p:
        return tuple([tuple([v % p for v in row]) for row in rows])
    return tuple([tuple([v if v.__class__ is int else _canon(v) for v in row]) for row in rows])


def _divide_row(p: int, row, piv):
    """An echelon row scaled to pivot 1: times the inverse of piv mod p, or
    over the rationals (p == 0) an integer row divided exactly by piv."""
    if p:
        inv = pow(piv, p - 2, p)
        return tuple([v * inv % p for v in row])
    return tuple(row) if piv == 1 else tuple([_div(v, piv) if v else 0 for v in row])


def _dots(vec, rows, field: Field) -> tuple:
    """Dot products of `vec` with each of `rows`, skipping zeros of `vec`."""
    p = field.p
    nz = [(k, a) for k, a in enumerate(vec) if a]
    out = []
    for row in rows:
        acc = 0
        for k, a in nz:
            b = row[k]
            if b:
                acc += a * b
        out.append(acc % p if p else acc if acc.__class__ is int else _canon(acc))
    return tuple(out)


def _primitive(row: list[int]) -> list[int]:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g < 2 else [v // g for v in row]


def _integer_row(row) -> list[int]:
    """A row of rationals scaled to coprime integers, a nonzero multiple of it."""
    for v in row:
        if v.__class__ is not int:
            break
    else:
        return _primitive(list(row))
    d = lcm(*[v.denominator for v in row])
    return _primitive([v.numerator * (d // v.denominator) for v in row])


def span_basis(field: Field, vectors, dim: int) -> Mat:
    """Column basis of the span of the given vectors inside k^dim."""
    if not vectors:
        return Mat.zero(field, dim, 0)
    A = Mat.from_columns(field, list(vectors), dim)
    R, pivots = A.rref()
    return Mat.from_columns(field, [A.column(j) for j in pivots], dim)