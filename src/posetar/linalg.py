"""Dense exact linear algebra over the rationals or a prime field.

Everything downstream (representations, resolutions, knitting) reduces to
rank/kernel/solve questions on small dense matrices, so this module keeps the
arithmetic exact and the interface minimal.  Matrices are immutable; rows are
tuples of field elements (Fraction for the rationals, reduced ints mod p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """Field descriptor: the rationals (p == 0) or GF(p) for prime p."""

    p: int = 0

    def __post_init__(self) -> None:
        if self.p and not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_rationals(self) -> bool:
        return self.p == 0

    @property
    def zero(self):
        return Fraction(0) if self.p == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.p == 0 else 1

    def of_int(self, n: int):
        return Fraction(n) if self.p == 0 else n % self.p

    def add(self, a, b):
        return a + b if self.p == 0 else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p == 0 else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p == 0 else (a * b) % self.p

    def neg(self, a):
        return -a if self.p == 0 else (-a) % self.p

    def inv(self, a):
        if self.p == 0:
            return Fraction(1) / a
        return pow(a, self.p - 2, self.p)

    def parse(self, text: str):
        """Parse 'p/q' (rationals) or an integer literal."""
        if self.p == 0:
            return Fraction(text)
        return int(text) % self.p

    def __str__(self) -> str:
        return "rationals" if self.p == 0 else f"gf({self.p})"


QQ = Field(0)


class Mat:
    """Immutable dense matrix with explicit shape (rows may be empty)."""

    __slots__ = ("field", "r", "c", "rows")

    def __init__(self, field: Field, rows, r: int | None = None, c: int | None = None):
        rows = tuple(tuple(row) for row in rows)
        if r is None:
            r = len(rows)
        if c is None:
            c = len(rows[0]) if rows else 0
        if len(rows) != r or any(len(row) != c for row in rows):
            raise ValueError("inconsistent matrix shape")
        self.field = field
        self.r = r
        self.c = c
        self.rows = rows

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: Field, r: int, c: int) -> "Mat":
        z = field.zero
        return Mat(field, [[z] * c for _ in range(r)], r, c)

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        z, o = field.zero, field.one
        return Mat(field, [[o if i == j else z for j in range(n)] for i in range(n)], n, n)

    @staticmethod
    def from_int_rows(field: Field, rows, r: int | None = None, c: int | None = None) -> "Mat":
        return Mat(field, [[field.of_int(v) for v in row] for row in rows], r, c)

    @staticmethod
    def from_columns(field: Field, cols, nrows: int) -> "Mat":
        if not cols:
            return Mat.zero(field, nrows, 0)
        return Mat(field, [[col[i] for col in cols] for i in range(nrows)], nrows, len(cols))

    # -- basic algebra -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.r == other.r
            and self.c == other.c
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.r, self.c, self.rows))

    def __repr__(self) -> str:
        return f"Mat({self.r}x{self.c})"

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(v == z for row in self.rows for v in row)

    def add(self, other: "Mat") -> "Mat":
        f = self.field
        return Mat(
            f,
            [
                [f.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.r,
            self.c,
        )

    def sub(self, other: "Mat") -> "Mat":
        f = self.field
        return Mat(
            f,
            [
                [f.sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.r,
            self.c,
        )

    def scale(self, s) -> "Mat":
        f = self.field
        return Mat(f, [[f.mul(s, v) for v in row] for row in self.rows], self.r, self.c)

    def mul(self, other: "Mat") -> "Mat":
        if self.c != other.r:
            raise ValueError(f"shape mismatch {self.r}x{self.c} @ {other.r}x{other.c}")
        f = self.field
        z = f.zero
        out = []
        bt = other.transpose().rows
        for row in self.rows:
            orow = []
            for col in bt:
                acc = z
                for a, b in zip(row, col):
                    if a != z and b != z:
                        acc = f.add(acc, f.mul(a, b))
                orow.append(acc)
            out.append(orow)
        return Mat(f, out, self.r, other.c)

    def apply(self, vec):
        """Matrix times column vector (a plain tuple)."""
        f, z = self.field, self.field.zero
        out = []
        for row in self.rows:
            acc = z
            for a, b in zip(row, vec):
                if a != z and b != z:
                    acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Mat":
        return Mat(
            self.field,
            [[self.rows[i][j] for i in range(self.r)] for j in range(self.c)],
            self.c,
            self.r,
        )

    def hstack(self, other: "Mat") -> "Mat":
        if self.r != other.r:
            raise ValueError("row mismatch in hstack")
        return Mat(
            self.field,
            [list(a) + list(b) for a, b in zip(self.rows, other.rows)],
            self.r,
            self.c + other.c,
        )

    def vstack(self, other: "Mat") -> "Mat":
        if self.c != other.c:
            raise ValueError("column mismatch in vstack")
        return Mat(self.field, list(self.rows) + list(other.rows), self.r + other.r, self.c)

    def column(self, j: int):
        return tuple(self.rows[i][j] for i in range(self.r))

    def columns(self):
        return [self.column(j) for j in range(self.c)]

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        """Reduced row echelon form and pivot column indices."""
        f = self.field
        z = f.zero
        rows = [list(r) for r in self.rows]
        pivots = []
        pr = 0
        for col in range(self.c):
            piv = None
            for i in range(pr, self.r):
                if rows[i][col] != z:
                    piv = i
                    break
            if piv is None:
                continue
            rows[pr], rows[piv] = rows[piv], rows[pr]
            inv = f.inv(rows[pr][col])
            rows[pr] = [f.mul(inv, v) for v in rows[pr]]
            for i in range(self.r):
                if i != pr and rows[i][col] != z:
                    factor = rows[i][col]
                    rows[i] = [f.sub(a, f.mul(factor, b)) for a, b in zip(rows[i], rows[pr])]
            pivots.append(col)
            pr += 1
            if pr == self.r:
                break
        return Mat(f, rows, self.r, self.c), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list[tuple]:
        """Basis of the right kernel, as column vectors."""
        f = self.field
        z, o = f.zero, f.one
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.c) if j not in pivset]
        basis = []
        for j in free:
            vec = [z] * self.c
            vec[j] = o
            for pi, pc in enumerate(pivots):
                vec[pc] = f.neg(R.rows[pi][j])
            basis.append(tuple(vec))
        return basis

    def solve(self, B: "Mat") -> "Mat | None":
        """Return one X with self @ X = B, or None if inconsistent."""
        f = self.field
        z = f.zero
        aug = self.hstack(B)
        R, pivots = aug.rref()
        # Inconsistent iff a pivot falls in the B block.
        for p in pivots:
            if p >= self.c:
                return None
        X = [[z] * B.c for _ in range(self.c)]
        for pi, pc in enumerate(pivots):
            for j in range(B.c):
                X[pc][j] = R.rows[pi][self.c + j]
        return Mat(f, X, self.c, B.c)

    def inverse(self) -> "Mat | None":
        if self.r != self.c:
            return None
        X = self.solve(Mat.identity(self.field, self.r))
        if X is None:
            return None
        if X.mul(self).rows != Mat.identity(self.field, self.r).rows:
            return None
        return X

    def is_invertible(self) -> bool:
        return self.r == self.c and self.rank() == self.r

    def trace(self):
        f = self.field
        acc = f.zero
        for i in range(min(self.r, self.c)):
            acc = f.add(acc, self.rows[i][i])
        return acc


def span_basis(field: Field, vectors, dim: int) -> Mat:
    """Column basis of the span of the given vectors inside k^dim."""
    if not vectors:
        return Mat.zero(field, dim, 0)
    A = Mat.from_columns(field, list(vectors), dim)
    R, pivots = A.rref()
    return Mat.from_columns(field, [A.column(j) for j in pivots], dim)