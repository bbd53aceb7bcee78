"""GF(p) helpers that only the tests use.

Constant matrices, u^T m and the determinant, kept here rather than in
``spanshare.galois``, whose callers need none of them. The scalar
arithmetic (``element`` to ``div``) was once ``Field``'s methods; only
the Lagrange oracle and the field tests call it.

``ref_transpose``, ``ref_rref``, ``ref_solve_left``, ``ref_kernel_basis``
and ``ref_kernel_witness`` are the library's former solve and kernel
path: a transposed, an augmented and a reduced ``Matrix`` per solve, and
two reductions through ``Matrix`` per kernel basis. The library now runs
each on plain rows; these, on their own copy of the reduction, stay as
the oracle its outputs must equal.
"""

from spanshare.galois import Matrix


def element(field, a):
    return a % field.p


def add(field, a, b):
    return (a + b) % field.p


def sub(field, a, b):
    return (a - b) % field.p


def neg(field, a):
    return (-a) % field.p


def mul(field, a, b):
    return (a * b) % field.p


def inv(field, a):
    if a % field.p == 0:
        raise ZeroDivisionError("zero is not invertible")
    return pow(a, field.p - 2, field.p)


def div(field, a, b):
    return mul(field, a, inv(field, b))


def identity(field, n):
    return Matrix(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)


def zeros(field, rows, cols):
    return Matrix(field, tuple((0,) * cols for _ in range(rows)), cols)


def left_mul(m, u):
    """u^T @ m for a length-rows vector; returns a length-cols vector."""
    if len(u) != m.rows:
        raise ValueError(f"left_mul of {m.rows}x{m.cols} matrix with length-{len(u)} vector")
    p = m.field.p
    return tuple(sum(u[i] * m.data[i][j] for i in range(m.rows)) % p for j in range(m.cols))


def det(m):
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


def ref_transpose(m):
    data = tuple(tuple(r[j] for r in m.data) for j in range(m.cols))
    return Matrix(m.field, data, m.rows)


def ref_rref(m):
    """Reduced row echelon form of m and its pivot columns."""
    p = m.field.p
    rows = [list(r) for r in m.data]
    pivots = []
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


def ref_solve_left(m, target):
    """u with u^T m = target^T, free coordinates 0, or None: the
    augmented [m^T | target] reduced as a ``Matrix``."""
    if len(target) != m.cols:
        raise ValueError(f"target length {len(target)} does not match column count {m.cols}")
    mt = ref_transpose(m)
    aug_rows = [mt.data[i] + (target[i] % m.field.p,) for i in range(mt.rows)]
    reduced, pivots = ref_rref(Matrix(m.field, tuple(aug_rows), m.rows + 1))
    if m.rows in pivots:
        return None
    u = [0] * m.rows
    for i, pc in enumerate(pivots):
        u[pc] = reduced.data[i][-1]
    return tuple(u)


def ref_kernel_basis(m):
    """Basis of {v : m v = 0} as rows in reduced echelon form."""
    reduced, pivots = ref_rref(m)
    vecs = []
    for f in sorted(set(range(m.cols)) - set(pivots)):
        v = [0] * m.cols
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -reduced.data[i][f] % m.field.p
        vecs.append(v)
    if not vecs:
        return Matrix(m.field, (), m.cols)
    basis, _ = ref_rref(Matrix.from_rows(m.field, vecs, m.cols))
    return basis


def ref_kernel_witness(m, eps):
    """The basis row with the largest pivot not orthogonal to eps, or None."""
    basis = ref_kernel_basis(m)
    for row in reversed(basis.data):
        if m.field.dot(eps, row) != 0:
            return row
    return None
