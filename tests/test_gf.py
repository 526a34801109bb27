import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compc.errors import DimensionMismatch, DivisionByZero, IndivisibleSplit
from compc.gf import (DEFAULT_PRIME, FMatrix, fe_inv, fe_mul, hconcat,
                      is_field_array, mat_mul, nullspace_raw, rref,
                      solve_particular)


def brute_nullspace(a, p):
    """Oracle: enumerate all vectors for tiny p and dimension."""
    a = np.asarray(a) % p
    n = a.shape[1]
    out = []
    for idx in range(p ** n):
        v = []
        k = idx
        for _ in range(n):
            v.append(k % p)
            k //= p
        v = np.array(v)
        if not (a @ v % p).any():
            out.append(tuple(v))
    return set(out)


def span(basis, p):
    basis = [np.array(b) for b in basis]
    n = basis[0].shape[0] if basis else 0
    vecs = {tuple([0] * n)}
    for _ in range(len(basis)):
        new = set()
        for v in vecs:
            for b in basis:
                for c in range(p):
                    new.add(tuple((np.array(v) + c * b) % p))
        vecs |= new
    return vecs


def test_scalar_examples():
    assert fe_mul(3, 5, 7) == 1
    assert fe_inv(3, 7) == 5


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        fe_inv(0, 7)
    with pytest.raises(DivisionByZero):
        fe_inv(14, 7)


@given(st.integers(1, DEFAULT_PRIME - 1))
@settings(max_examples=20, deadline=None)
def test_inv_roundtrip_default_prime(a):
    assert fe_mul(a, fe_inv(a, DEFAULT_PRIME), DEFAULT_PRIME) == 1


def test_nullspace_example():
    basis = nullspace_raw([[1, 1, 1], [1, 2, 3]], 7)
    assert basis.shape == (1, 3)
    # proportional to (1, 5, 1)
    v = basis[0]
    assert tuple(v * fe_inv(int(v[0]), 7) % 7) == (1, 5, 1)


def test_nullspace_identity_empty():
    assert nullspace_raw(np.eye(3, dtype=np.int64), 7).shape == (0, 3)


def test_nullspace_zero_matrix_full_rank():
    a = np.zeros((2, 3), dtype=np.int64)
    basis = nullspace_raw(a, 7)
    assert basis.shape == (3, 3)
    assert span(basis, 7) == brute_nullspace(a, 7)


@given(st.integers(0, 3 ** 6 - 1))
@settings(max_examples=12, deadline=None)
def test_nullspace_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 3, size=(2, 3))
    basis = nullspace_raw(a, 3)
    assert span(basis, 3) == brute_nullspace(a, 3)
    for row in basis:
        assert not (np.asarray(a) @ row % 3).any()


def test_matmul_matches_python_bigints():
    p = DEFAULT_PRIME
    rng = np.random.default_rng(0)
    a = rng.integers(0, p, size=(5, 7), dtype=np.int64)
    b = rng.integers(0, p, size=(7, 4), dtype=np.int64)
    got = mat_mul(a, b, p)
    want = np.array([[sum(int(a[i, k]) * int(b[k, j]) for k in range(7)) % p
                      for j in range(4)] for i in range(5)])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("inner", [99, 2 ** 16])
def test_matmul_exact_at_full_entries(inner):
    # every entry p - 1 gives the largest sums; 99 is N at m = t = 20
    # (AC01's sweep row) and 2**16 the inner dimension the int64 bound
    # in mat_mul's docstring allows
    p = DEFAULT_PRIME
    a = np.full((2, inner), p - 1, dtype=np.int64)
    b = np.full((inner, 3), p - 1, dtype=np.int64)
    want = inner * (p - 1) * (p - 1) % p
    assert mat_mul(a, b, p).tolist() == [[want] * 3] * 2


def test_fmatrix_ops():
    a = FMatrix([[1, 2], [3, 4]], 7)
    b = FMatrix([[5, 6], [0, 1]], 7)
    assert (a + b).to_lists() == [[6, 1], [3, 5]]
    assert (a - b).to_lists() == [[3, 3], [3, 3]]
    assert (a @ b).to_lists() == [[5, 1], [1, 1]]
    assert a.T.to_lists() == [[1, 3], [2, 4]]


def test_fmatrix_shape_errors():
    a = FMatrix([[1, 2]], 7)
    b = FMatrix([[1], [2]], 7)
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        b @ b
    with pytest.raises(DimensionMismatch):
        FMatrix(np.zeros((65, 1)), 7)


def test_block_split_and_concat():
    a = FMatrix([[1, 2, 3, 4], [5, 6, 7, 8]], 11)
    left, right = a.block_split(2)
    assert left.to_lists() == [[1, 2], [5, 6]]
    assert right.to_lists() == [[3, 4], [7, 8]]
    assert hconcat([left, right]) == a
    top, bottom = a.block_split(2, axis=0)
    assert np.array_equal(np.concatenate([top.a, bottom.a]), a.a)
    with pytest.raises(IndivisibleSplit):
        a.block_split(3)


def test_solve_particular():
    p = 7
    a = [[1, 1, 1], [1, 2, 3]]
    b = [4, 2]
    x = solve_particular(a, b, p)
    assert x is not None
    assert np.array_equal(np.array(a) @ x % p, np.array(b))
    # inconsistent system
    bad = solve_particular([[1, 1], [2, 2]], [1, 3], p)
    assert bad is None


def test_rref_idempotent():
    r1, piv1 = rref([[2, 4, 1], [1, 2, 3]], 7)
    r2, piv2 = rref(r1, 7)
    assert np.array_equal(r1, r2) and piv1 == piv2


def test_is_field_array_one_rule():
    p = 7
    good = np.array([[0, 6], [3, 1]], dtype=np.int64)
    assert is_field_array(good, (2, 2), p)
    assert is_field_array(np.zeros((0, 2), dtype=np.int64), (0, 2), p)
    # one dtype rule: int64 only, whatever the entries
    for dtype in (bool, float, object, np.uint8, np.int32):
        assert not is_field_array(good.astype(dtype), (2, 2), p), dtype
    assert not is_field_array(good.tolist(), (2, 2), p)
    neg, top = good.copy(), good.copy()
    neg[0, 0] = -1
    top[1, 1] = p
    assert not is_field_array(neg, (2, 2), p)
    assert not is_field_array(top, (2, 2), p)
    assert not is_field_array(good, (4,), p)
    assert not is_field_array(good, (2, 2, 1), p)
    assert not is_field_array(np.zeros((0,), dtype=np.int64), (2, 2), p)
    assert not is_field_array(np.zeros((0, 2)), (0, 2), p)
    # a leading None matches any length, in the leading dimension only
    assert is_field_array(good, (None, 2), p)
    assert is_field_array(np.zeros((0, 2), dtype=np.int64), (None, 2), p)
    assert not is_field_array(good, (None, 3), p)
    assert not is_field_array(good, (None,), p)
    assert not is_field_array(good, (2, None), p)
