import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from spanshare.galois import (
    Field,
    Matrix,
    kernel_basis,
    kernel_witness,
    left_solve_and_kernel,
    rank,
    solve_left,
)

from reference_galois import (
    add,
    div,
    element,
    identity,
    inv,
    left_mul,
    mul,
    neg,
    ref_kernel_basis,
    ref_kernel_witness,
    ref_rref,
    ref_solve_left,
    ref_transpose,
    sub,
    zeros,
)

GF5 = Field(5)
GF7 = Field(7)


def M(field, rows, cols=None):
    return Matrix.from_rows(field, rows, cols)


def test_field_rejects_composite_and_out_of_range():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        Field(1)
    with pytest.raises(ValueError):
        Field(263)
    Field(257)
    Field(2)


@pytest.mark.parametrize("call, message", [
    (lambda: GF5.dot((1,), (1, 2)), "dot product of vectors with lengths 1 and 2"),
    (lambda: Matrix(GF5, (), -1), "negative column count"),
    (lambda: M(GF5, [[1, 2]]).matvec((1,)), "matvec of 1x2 matrix with length-1 vector"),
    (lambda: kernel_witness(M(GF5, [[1, 2]]), (1,)), "eps length 1 does not match column count 2"),
    (lambda: left_solve_and_kernel(M(GF5, [[1, 2]]), (1,)), "target length 1 does not match column count 2"),
], ids=["dot", "negative-cols", "matvec", "kernel-witness-eps", "left-solve-and-kernel-target"])
def test_refusals_name_the_mismatch(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_field_arithmetic():
    f = GF5
    assert element(f, 7) == 2
    assert add(f, 3, 4) == 2
    assert sub(f, 1, 3) == 3
    assert mul(f, 3, 4) == 2
    assert neg(f, 2) == 3
    assert inv(f, 3) == 2
    assert div(f, 1, 2) == 3
    with pytest.raises(ZeroDivisionError):
        inv(f, 0)


def test_rank_examples():
    assert rank(M(GF5, [[1, 2], [2, 4]])) == 1
    assert rank(identity(GF5, 2)) == 2
    assert rank(zeros(GF7, 2, 3)) == 0


def test_solve_left_examples():
    assert solve_left(M(GF5, [[1, 2], [1, 3]]), (1, 0)) == (3, 3)
    assert solve_left(identity(GF5, 2), (1, 0)) == (1, 0)
    assert solve_left(M(GF5, [[1, 1]]), (1, 0)) is None


def test_solve_left_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_left(M(GF5, [[1, 2], [1, 3]]), (1, 0, 0))


def test_solve_left_zero_row_matrix():
    empty = Matrix(GF5, (), 2)
    assert solve_left(empty, (0, 0)) == ()
    assert solve_left(empty, (1, 0)) is None


def test_kernel_witness_examples():
    assert kernel_witness(M(GF5, [[1, 1]]), (1, 0)) == (1, 4)
    assert kernel_witness(Matrix(GF5, (), 2), (1, 0)) == (1, 0)
    assert kernel_witness(M(GF5, [[1, 1], [1, 2]]), (1, 0)) is None


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Matrix(GF5, ((1, 2), (3,)), 2)
    with pytest.raises(ValueError):
        Matrix(GF5, ((1, 7),), 2)
    with pytest.raises(ValueError):
        Matrix.from_rows(GF5, [])


def test_transpose_of_degenerate_shapes():
    empty = Matrix(GF5, (), 3)
    t = ref_transpose(empty)
    assert (t.rows, t.cols) == (3, 0)
    assert ref_transpose(t).data == empty.data


small_prime = st.sampled_from([2, 3, 5, 7])


@st.composite
def matrices(draw, max_dim=5):
    p = draw(small_prime)
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(1, max_dim))
    field = Field(p)
    rows = [[draw(st.integers(0, p - 1)) for _ in range(c)] for _ in range(r)]
    return Matrix(field, tuple(tuple(x) for x in rows), c)


@given(matrices())
@settings(max_examples=200)
def test_rank_equals_rank_of_transpose(m):
    assert rank(m) == rank(ref_transpose(m))


@given(matrices(), st.data())
@settings(max_examples=200)
def test_solve_left_is_exact(m, data):
    target = tuple(data.draw(st.integers(0, m.field.p - 1)) for _ in range(m.cols))
    u = solve_left(m, target)
    if u is not None:
        assert left_mul(m, u) == tuple(t % m.field.p for t in target)


@given(matrices(), st.data())
@settings(max_examples=200)
def test_kernel_witness_is_exact(m, data):
    eps = tuple(data.draw(st.integers(0, m.field.p - 1)) for _ in range(m.cols))
    v = kernel_witness(m, eps)
    if v is not None:
        assert m.matvec(v) == (0,) * m.rows
        assert m.field.dot(eps, v) != 0
    else:
        # cross-check by the rank criterion: eps lies in the row space
        if any(e % m.field.p for e in eps):
            assert solve_left(m, eps) is not None


@given(matrices())
@settings(max_examples=200)
def test_kernel_basis_spans_the_kernel(m):
    basis = kernel_basis(m)
    assert basis.rows == m.cols - rank(m)
    for row in basis.data:
        assert m.matvec(row) == (0,) * m.rows


@given(matrices())
@settings(max_examples=50)
def test_operations_are_deterministic(m):
    eps = (1,) + (0,) * (m.cols - 1)
    assert kernel_witness(m, eps) == kernel_witness(m, eps)
    assert solve_left(m, eps) == solve_left(m, eps)
    assert kernel_basis(m) == kernel_basis(m)


def seeded_cases(seed=28, per_field=40):
    """(m, target) over GF(2, 3, 5, 7, 11): uniform matrices, products
    of lower rank, targets in the row space and uniform ones."""
    rng = random.Random(seed)
    for p in (2, 3, 5, 7, 11):
        field = Field(p)
        for i in range(per_field):
            d, e = rng.randint(0, 7), rng.randint(1, 6)
            vec = lambda k: [rng.randrange(p) for _ in range(k)]
            if i % 2:  # rank at most r: a d x r times an r x e product
                right = M(field, [vec(e) for _ in range(rng.randint(0, min(d, e)))], e)
                m = M(field, [left_mul(right, vec(right.rows)) for _ in range(d)], e)
            else:
                m = M(field, [vec(e) for _ in range(d)], e)
            yield m, tuple(vec(e))
            yield m, left_mul(m, vec(d))


def assert_matches_the_reference(m, target):
    """Every solve, kernel and rank of m, value for value with the
    former path through transposed, augmented and reduced matrices."""
    eps = (1,) + (0,) * (m.cols - 1)
    assert rank(m) == len(ref_rref(m)[1])
    assert solve_left(m, target) == ref_solve_left(m, target)
    assert kernel_basis(m) == ref_kernel_basis(m)
    assert kernel_witness(m, target) == ref_kernel_witness(m, target)
    assert kernel_witness(m, eps) == ref_kernel_witness(m, eps)
    pivots, u, kernel = left_solve_and_kernel(m, target)
    transposed = ref_transpose(m)
    assert pivots == ref_rref(transposed)[1]
    assert u == ref_solve_left(m, target)
    assert ref_rref(M(m.field, kernel, m.rows))[0] == ref_kernel_basis(transposed)


def test_left_solve_and_kernel_matches_solve_left_and_kernel_basis():
    deficient = unspanned = empty = 0
    for m, target in seeded_cases():
        assert_matches_the_reference(m, target)
        pivots, u, _ = left_solve_and_kernel(m, target)
        deficient += len(pivots) < min(m.rows, m.cols)
        unspanned += u is None
        empty += m.rows == 0
    assert deficient > 50 and unspanned > 50 and empty > 10


@given(matrices(), st.data())
@settings(max_examples=200)
def test_solves_and_kernels_match_the_reference(m, data):
    target = tuple(data.draw(st.integers(0, m.field.p - 1)) for _ in range(m.cols))
    assert_matches_the_reference(m, target)
