import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compc.errors import DuplicatePoints, InsufficientPoints, ShapeMismatch
from compc.gf import DEFAULT_PRIME, FMatrix
from compc.poly import (MatPoly, coeff_extraction_combo, horner, interpolate,
                        lagrange_coeffs, powers, vandermonde)


def poly_of(coeff_lists, p):
    return MatPoly([FMatrix(c, p) for c in coeff_lists], p)


def test_trailing_zeros_trimmed():
    f = poly_of([[[3]], [[0]], [[0]]], 7)
    assert f.degree == 0
    z = poly_of([[[0]]], 7)
    assert z.degree == -1
    assert z.eval_many([5])[0].tolist() == [[0]]


def test_eval_horner_matches_direct():
    p = 11
    f = poly_of([[[1, 2]], [[3, 4]], [[5, 6]]], p)
    for x in range(p):
        direct = (np.array([[1, 2]]) + x * np.array([[3, 4]])
                  + x * x * np.array([[5, 6]])) % p
        assert f.eval_many([x])[0].tolist() == direct.tolist()
    many = f.eval_many(list(range(p)))
    for x in range(p):
        assert many[x].tolist() == f.eval_many([x])[0].tolist()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 7, 97, DEFAULT_PRIME]), st.integers(0, 3),
       st.integers(-1, 6), st.lists(st.integers(0, 2 ** 62), max_size=3),
       st.integers(0, 10 ** 6))
def test_horner_matches_termwise_sum(p, ndim, degree, extra, seed):
    rng = np.random.default_rng(seed)
    tail = tuple(int(x) for x in rng.integers(1, 4, size=ndim))
    coeffs = rng.integers(0, p, size=(degree + 1,) + tail)
    xs = [0, p - 1, p, 3 * p + 1] + extra
    got = horner(coeffs, xs, p)
    assert got.shape == (len(xs),) + tail and got.dtype == np.int64
    for ix, x in enumerate(xs):
        for pos in np.ndindex(*tail):
            want = sum(int(coeffs[(k,) + pos]) * x ** k
                       for k in range(degree + 1)) % p
            assert int(got[(ix,) + pos]) == want


def test_poly_ring_ops():
    p = 7
    f = poly_of([[[1]], [[2]]], p)      # 1 + 2x
    g = poly_of([[[3]], [[4]]], p)      # 3 + 4x
    assert (f + g).c[:, 0, 0].tolist() == [4, 6]
    assert (f - g).c[:, 0, 0].tolist() == [5, 5]
    prod = f.mul(g)                     # 3 + 10x + 8x^2
    assert prod.c[:, 0, 0].tolist() == [3, 3, 1]
    assert f.shift(2).c[:, 0, 0].tolist() == [0, 0, 1, 2]


def test_matrix_coeff_product_uses_matmul():
    p = 11
    a = poly_of([[[1, 2], [3, 4]]], p)
    b = poly_of([[[0, 1], [1, 0]]], p)
    prod = a.mul(b)
    assert prod.coeff(0).to_lists() == [[2, 1], [4, 3]]
    assert a.transpose_coeffs().coeff(0).to_lists() == [[1, 3], [2, 4]]


def test_lagrange_examples():
    assert lagrange_coeffs([1, 2], 0, 7) == (2, 6)
    assert lagrange_coeffs([1, 2], 3, 7) == (6, 2)
    with pytest.raises(DuplicatePoints):
        lagrange_coeffs([1, 8], 0, 7)


def test_interpolate_example():
    f = interpolate([1, 2], [FMatrix([[4]], 7), FMatrix([[6]], 7)], 7)
    assert f.degree == 1
    assert f.coeff(0).to_lists() == [[2]]
    assert f.coeff(1).to_lists() == [[2]]


def test_interpolate_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        interpolate([1, 2], [FMatrix([[1]], 7), FMatrix([[1, 2]], 7)], 7)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=10, deadline=None)
def test_interpolate_roundtrip(seed):
    p = 101
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(0, 4))
    coeffs = rng.integers(0, p, size=(deg + 1, 2, 3))
    f = MatPoly(coeffs, p)
    pts = list(range(1, deg + 2))
    g = interpolate(pts, list(f.eval_many(pts)), p)
    assert g == f or (f.degree == -1 and g.degree == -1)


def test_lagrange_agrees_with_interpolation_oracle():
    p = 13
    rng = np.random.default_rng(7)
    coeffs = rng.integers(0, p, size=(3, 1, 1))
    f = MatPoly(coeffs, p)
    pts = [2, 5, 7]
    for target in range(p):
        lam = lagrange_coeffs(pts, target, p)
        acc = sum(l * int(f.eval_many([x])[0, 0, 0])
                  for l, x in zip(lam, pts)) % p
        assert acc == int(f.eval_many([target])[0, 0, 0])


@given(st.integers(0, 10 ** 6), st.integers(2, 4), st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_coeff_extraction_property(seed, npts_extra, index):
    p = 97
    rng = np.random.default_rng(seed)
    degree = int(rng.integers(index, 4))
    pts = list(range(1, degree + npts_extra))
    if len(pts) < degree + 1:
        pts = list(range(1, degree + 2))
    lam = coeff_extraction_combo(pts, degree, index, p)
    coeffs = rng.integers(0, p, size=(degree + 1, 1, 1))
    f = MatPoly(coeffs, p)
    acc = sum(l * int(f.eval_many([x])[0, 0, 0]) for l, x in zip(lam, pts)) % p
    assert acc == int(coeffs[index, 0, 0])


def test_coeff_extraction_too_few_points():
    with pytest.raises(InsufficientPoints):
        coeff_extraction_combo([1, 2], 2, 1, 7)


def test_powers_and_vandermonde():
    assert powers(3, 4, 7).tolist() == [1, 3, 2, 6]
    assert vandermonde([1, 2, 3], 2, 7).tolist() == [[1, 1], [1, 2], [1, 3]]
