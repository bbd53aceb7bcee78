"""Exact linear algebra over prime fields GF(p).

Field elements are plain ints reduced mod p; matrices are immutable
row-major tuples of such ints. Everything here is pure and exact (no
floats), and operations with a free choice (underdetermined solves,
kernel witnesses, kernel bases) break ties lexicographically so
identical inputs always produce identical outputs.

``span_table`` decides, for a matrix with labeled rows, whether the
target (1, 0, ..., 0) lies in the span of the rows of every label set
at once. It runs both criteria, the left solve and the kernel witness,
incrementally on int64 arrays, one label's rows at a time: a reduced
echelon basis of the row space grows, and a kernel basis is cut down
from the identity. Every set's two answers are cross-checked.

``left_solve_and_kernel`` reduces [m^T | target] once, on plain int
lists, and reads off the rank, the left solve and a left-kernel basis
that ``solve_left`` and ``kernel_basis`` of m^T would take three row
reductions to give; ``msp`` builds an MSP's dual form from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MAX_MODULUS = 257

# Cap on masks x e x e entries of one chunk's basis stack, per criterion.
_STACK_ENTRIES = 1 << 16


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


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form of m and its pivot columns."""
    rows = [list(r) for r in m.data]
    pivots = _reduce(rows, m.cols, m.field.p)
    return Matrix(m.field, tuple(tuple(row) for row in rows), m.cols), pivots


def _reduce(rows: list[list[int]], cols: int, p: int) -> tuple[int, ...]:
    """Bring plain rows of reduced ints to reduced row echelon form over
    the first cols columns, in place; returns the pivot columns."""
    pivots: list[int] = []
    r = 0
    for c in range(cols):
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
    return tuple(pivots)


def rank(m: Matrix) -> int:
    """Rank of m over its field, by exact row reduction."""
    return len(rref(m)[1])


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
    vecs = _free_vectors(reduced.data, pivots, m.cols, m.field.p)
    if not vecs:
        return Matrix(m.field, (), m.cols)
    basis, _ = rref(Matrix.from_rows(m.field, vecs, m.cols))
    return basis


def _free_vectors(reduced: Sequence[Sequence[int]], pivots: Sequence[int], cols: int,
                  p: int) -> list[tuple[int, ...]]:
    """The kernel of reduced rows restricted to their first cols columns:
    one vector per free column f, with a 1 at f and a 0 at every other
    free column."""
    pivot_set = set(pivots)
    vecs = []
    for f in range(cols):
        if f not in pivot_set:
            v = [0] * cols
            v[f] = 1
            for i, pc in enumerate(pivots):
                v[pc] = -reduced[i][f] % p
            vecs.append(tuple(v))
    return vecs


def left_solve_and_kernel(
    m: Matrix, target: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...] | None, tuple[tuple[int, ...], ...]]:
    """One row reduction of [m^T | target]: the pivot rows of m, a u with
    u^T m = target^T or None, and a basis of the left kernel {v : v^T m = 0}.

    The pivots are the rows of m that rref(m^T) picks, so their count is
    the rank. u sets its free coordinates to zero, as ``solve_left``
    does. The kernel has one vector per free row f of m: a 1 at f and a
    0 at every other free row, so its reduced form is ``kernel_basis(m^T)``.
    """
    if len(target) != m.cols:
        raise ValueError(f"target length {len(target)} does not match column count {m.cols}")
    p, d = m.field.p, m.rows
    aug = [[row[j] for row in m.data] + [target[j] % p] for j in range(m.cols)]
    pivots = _reduce(aug, d + 1, p)
    spanned = d not in pivots
    if not spanned:  # the target column is the last pivot
        pivots = pivots[:-1]
    u = [0] * d
    for i, pc in enumerate(pivots):
        u[pc] = aug[i][d]
    return pivots, tuple(u) if spanned else None, tuple(_free_vectors(aug, pivots, d, p))


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


def span_table(field: Field, m: np.ndarray, labels: Sequence[int], n: int) -> np.ndarray:
    """1 or 0 for every mask B < 2**n: whether (1, 0, ..., 0) lies in the
    span of the rows of m whose label (1..n) is in B, bit i standing
    for label i + 1.

    Both criteria run on every mask. Span: a reduced echelon basis grows
    by each label's rows, so mask B | 2**i extends the basis of B by the
    rows of label i + 1, and the target is spanned iff it is the basis
    row of pivot 0. Kernel: a kernel basis is cut down from the identity
    by the same rows, and a witness exists iff some basis vector has a
    nonzero entry 0. Exactly one may hold; anything else raises. Masks
    that share their high bits share one prefix basis, and the low bits
    run in chunks whose stacks hold at most _STACK_ENTRIES entries each.
    """
    p, e = field.p, m.shape[1]
    inv = np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.int64)
    m, labels = np.asarray(m, dtype=np.int64) % p, np.asarray(labels)
    owned = [m[labels == i + 1] for i in range(n)]
    low = min(n, max(1, _STACK_ENTRIES // (e * e)).bit_length() - 1)
    out = np.empty(1 << n, dtype=np.uint8)

    def chunk(span: np.ndarray, kernel: np.ndarray, base: int) -> None:
        # entry B of each stack is the basis of the mask base | B
        spans, kernels = np.empty((2, 1 << low, e, e), dtype=np.int64)
        spans[0], kernels[0] = span, kernel
        for i in range(low):
            h = 1 << i
            spans[h:2 * h], kernels[h:2 * h] = spans[:h], kernels[:h]
            _add_rows(spans[h:2 * h], kernels[h:2 * h], owned[i], p, inv)
        target = spans[:, 0] % p
        spanned = (target[:, 0] == 1) & ~target[:, 1:].any(axis=1)
        witnessed = (kernels[:, :, 0] % p).any(axis=1)
        agree = spanned == witnessed
        if agree.any():
            bad = base + int(agree.argmax())
            raise RuntimeError(
                f"span and kernel criteria disagree on subset {bad:b}; "
                "the linear algebra layer is broken"
            )
        out[base:base + (1 << low)] = spanned

    def walk(bit: int, span: np.ndarray, kernel: np.ndarray, base: int) -> None:
        if bit < low:
            chunk(span, kernel, base)
            return
        walk(bit - 1, span, kernel, base)
        span, kernel = span.copy(), kernel.copy()
        _add_rows(span[None], kernel[None], owned[bit], p, inv)
        walk(bit - 1, span, kernel, base | 1 << bit)

    walk(n - 1, np.zeros((e, e), dtype=np.int64), np.eye(e, dtype=np.int64), 0)
    return out


def _add_rows(span: np.ndarray, kernel: np.ndarray, rows: np.ndarray, p: int,
              inv: np.ndarray) -> None:
    """Add the rows to every set of a stack, in place on both criteria's
    bases. ``span[k, c]`` is the reduced echelon row with pivot c, or a
    zero row; ``kernel[k]`` holds kernel basis vectors and zero rows.

    Both stacks hold their entries unreduced: rows are zero and reduced
    only mod p, and every test reduces first. Each added row subtracts
    products of reduced factors, so after d rows every entry stays below
    p + d * p**2 in size, and every product with a row below
    e * d * p**3, far inside int64 for any matrix that fits in memory.
    """
    at = np.arange(len(span))
    for v in rows:
        red = (v - v @ span) % p  # zero on every pivot column
        c = (red != 0).argmax(axis=1)
        red = red * inv[red[at, c]][:, None] % p  # zero where v was spanned
        span -= (span[at, :, c] % p)[:, :, None] * red[:, None, :]
        span[at, c] += red
        dots = kernel @ v % p
        j = (dots != 0).argmax(axis=1)
        dots = dots * inv[dots[at, j]][:, None] % p  # kernel row j cancels itself
        kernel -= dots[:, :, None] * (kernel[at, j] % p)[:, None, :]
