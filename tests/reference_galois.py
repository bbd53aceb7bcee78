"""GF(p) helpers that only the tests use.

Constant matrices, u^T m and the determinant, kept here rather than in
``spanshare.galois``, whose callers need none of them. The scalar
arithmetic (``element`` to ``div``) was once ``Field``'s methods; only
the Lagrange oracle and the field tests call it.
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
