"""Exact linear algebra over prime fields GF(p).

Field elements are plain ints reduced mod p; matrices are immutable
row-major tuples of such ints. Everything here is pure and exact (no
floats), and operations with a free choice (underdetermined solves,
kernel witnesses, kernel bases) break ties lexicographically so
identical inputs always produce identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

MAX_MODULUS = 257


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """The prime field GF(p), 2 <= p <= 257.

    The cap keeps downstream exhaustive simulation (state dimension
    p**d) feasible; extension fields are deliberately unsupported.
    """

    p: int

    def __post_init__(self) -> None:
        if not 2 <= self.p <= MAX_MODULUS:
            raise ValueError(f"field modulus must lie in [2, {MAX_MODULUS}], got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"field modulus must be prime, got {self.p}")

    def element(self, a: int) -> int:
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("zero is not invertible")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def dot(self, u: Sequence[int], v: Sequence[int]) -> int:
        if len(u) != len(v):
            raise ValueError(f"dot product of vectors with lengths {len(u)} and {len(v)}")
        return sum(a * b for a, b in zip(u, v)) % self.p


@dataclass(frozen=True)
class Matrix:
    """Immutable matrix over a prime field.

    The column count is stored explicitly so matrices with zero rows
    keep their width (they arise as submatrices for empty player sets).
    """

    field: Field
    data: tuple[tuple[int, ...], ...]
    cols: int

    def __post_init__(self) -> None:
        if self.cols < 0:
            raise ValueError("negative column count")
        p = self.field.p
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError(f"row of length {len(row)} in a {self.cols}-column matrix")
            if any(not 0 <= x < p for x in row):
                raise ValueError("matrix entry not reduced mod p")

    @staticmethod
    def from_rows(field: Field, rows: Iterable[Sequence[int]], cols: int | None = None) -> "Matrix":
        data = tuple(tuple(x % field.p for x in row) for row in rows)
        if cols is None:
            if not data:
                raise ValueError("column count required for a matrix with no rows")
            cols = len(data[0])
        return Matrix(field, data, cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix(field, tuple((0,) * cols for _ in range(rows)), cols)

    @property
    def rows(self) -> int:
        return len(self.data)

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def transpose(self) -> "Matrix":
        data = tuple(tuple(r[j] for r in self.data) for j in range(self.cols))
        return Matrix(self.field, data, self.rows)

    def take_rows(self, indices: Sequence[int]) -> "Matrix":
        return Matrix(self.field, tuple(self.data[i] for i in indices), self.cols)

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        """m @ v for a length-cols vector; returns a length-rows vector."""
        if len(v) != self.cols:
            raise ValueError(f"matvec of {self.rows}x{self.cols} matrix with length-{len(v)} vector")
        p = self.field.p
        return tuple(sum(a * b for a, b in zip(row, v)) % p for row in self.data)

    def left_mul(self, u: Sequence[int]) -> tuple[int, ...]:
        """u^T @ m for a length-rows vector; returns a length-cols vector."""
        if len(u) != self.rows:
            raise ValueError(f"left_mul of {self.rows}x{self.cols} matrix with length-{len(u)} vector")
        p = self.field.p
        return tuple(sum(u[i] * self.data[i][j] for i in range(self.rows)) % p for j in range(self.cols))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.data) + "]"


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form of m and its pivot columns."""
    p = m.field.p
    rows = [list(r) for r in m.data]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(m.field, tuple(tuple(row) for row in rows), m.cols), tuple(pivots)


def rank(m: Matrix) -> int:
    """Rank of m over its field, by exact row reduction."""
    return len(rref(m)[1])


def det(m: Matrix) -> int:
    """Determinant of a square matrix."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    p = m.field.p
    rows = [list(r) for r in m.data]
    result = 1
    for c in range(m.cols):
        pr = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            return 0
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            result = -result
        result = (result * rows[c][c]) % p
        inv = pow(rows[c][c], p - 2, p)
        for i in range(c + 1, len(rows)):
            if rows[i][c] != 0:
                f = (rows[i][c] * inv) % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[c])]
    return result % p


def solve_left(m: Matrix, target: Sequence[int]) -> tuple[int, ...] | None:
    """A vector u with u^T m = target^T, or None if none exists.

    Equivalent to solving m^T u = target. When the solution space has
    positive dimension the free coordinates are set to zero, which is
    the lexicographically smallest assignment under 0 < 1 < ... < p-1.
    """
    if len(target) != m.cols:
        raise ValueError(f"target length {len(target)} does not match column count {m.cols}")
    mt = m.transpose()
    aug_rows = [mt.data[i] + (target[i] % m.field.p,) for i in range(mt.rows)]
    reduced, pivots = rref(Matrix(m.field, tuple(aug_rows), m.rows + 1))
    if m.rows in pivots:
        return None
    u = [0] * m.rows
    for i, pc in enumerate(pivots):
        u[pc] = reduced.data[i][-1]
    return tuple(u)


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of the right kernel {v : m v = 0}, as rows in reduced echelon form.

    A trivial kernel yields a matrix with zero rows. The reduced form
    (pivots ascending, leading ones, zeros above pivots) makes every
    consumer of this basis deterministic.
    """
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    if not free:
        return Matrix(m.field, (), m.cols)
    p = m.field.p
    vecs = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-reduced.data[i][f]) % p
        vecs.append(v)
    basis, _ = rref(Matrix.from_rows(m.field, vecs, m.cols))
    return basis


def kernel_witness(m: Matrix, eps: Sequence[int]) -> tuple[int, ...] | None:
    """A vector v with m v = 0 and eps . v != 0, or None if none exists.

    Deterministic choice: the lexicographically smallest such v whose
    first nonzero entry is 1. With the kernel basis in reduced echelon
    form this is the basis row with the largest pivot among rows not
    orthogonal to eps, so no enumeration is needed.
    """
    if len(eps) != m.cols:
        raise ValueError(f"eps length {len(eps)} does not match column count {m.cols}")
    basis = kernel_basis(m)
    for i in range(basis.rows - 1, -1, -1):
        row = basis.data[i]
        if m.field.dot(eps, row) != 0:
            return row
    return None
