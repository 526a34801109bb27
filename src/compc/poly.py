"""Matrix-coefficient polynomials, interpolation, and extraction combos.

A MatPoly is a univariate polynomial whose coefficients are equally
shaped matrices over GF(p). Coefficients are stored as one int64 numpy
array with the degree axis first, trailing zero coefficients trimmed.

horner is the package's one evaluator of polynomials whose
coefficients are stacked along a leading degree axis.
"""

import numpy as np

from .errors import (DuplicatePoints, InsufficientPoints, ShapeMismatch)
from .gf import FMatrix, arr, fe_inv, fe_mul, mat_mul, solve_particular


def powers(x, count, p):
    """[x**0, x**1, ..., x**(count-1)] mod p as int64 array."""
    out = np.empty(count, dtype=np.int64)
    acc = 1
    for i in range(count):
        out[i] = acc
        acc = acc * (x % p) % p
    return out


def vandermonde(points, width, p):
    """Matrix V with V[i][j] = points[i]**j, shape (len(points), width)."""
    v = np.empty((len(points), width), dtype=np.int64)
    for i, x in enumerate(points):
        v[i] = powers(x, width, p)
    return v


def horner(coeffs, xs, p):
    """Evaluate stacked polynomials at every point of xs.

    coeffs has the degree axis first, shape (d+1, *tail), entries in
    [0, p); returns (len(xs), *tail) with sum_k coeffs[k] x**k per x,
    reduced mod p after every step (exact for p < 2**31). Empty coeffs
    (degree -1) give zeros.
    """
    xs = arr(xs, p).reshape((-1,) + (1,) * (coeffs.ndim - 1))
    acc = np.zeros(xs.shape[:1] + coeffs.shape[1:], dtype=np.int64)
    for c in coeffs[::-1]:
        acc = (acc * xs + c) % p
    return acc


def _check_distinct(points, p):
    canon = [x % p for x in points]
    if len(set(canon)) != len(canon):
        raise DuplicatePoints(f"points not distinct mod {p}: {points}")
    return canon


class MatPoly:
    """Polynomial with FMatrix coefficients; the zero polynomial has
    degree -1 and an empty coefficient array."""

    __slots__ = ("c", "p")

    def __init__(self, coeffs, p, shape=None):
        if isinstance(coeffs, np.ndarray):
            c = coeffs.astype(np.int64, copy=True) % p
        else:
            mats = [m.a if isinstance(m, FMatrix) else np.asarray(m) for m in coeffs]
            if mats and len({m.shape for m in mats}) != 1:
                raise ShapeMismatch("coefficient shapes differ")
            if mats:
                c = np.stack(mats).astype(np.int64) % p
            else:
                c = np.zeros((0,) + (shape or (1, 1)), dtype=np.int64)
        if c.ndim != 3:
            raise ShapeMismatch(f"expected (deg+1, rows, cols), got {c.shape}")
        last = c.shape[0]
        while last > 0 and not c[last - 1].any():
            last -= 1
        self.c = c[:last]
        self.p = p

    @classmethod
    def zero(cls, rows, cols, p):
        return cls(np.zeros((0, rows, cols), dtype=np.int64), p)

    @property
    def degree(self):
        return self.c.shape[0] - 1

    @property
    def shape(self):
        return self.c.shape[1:]

    def coeff(self, j):
        if 0 <= j < self.c.shape[0]:
            return FMatrix(self.c[j], self.p)
        return FMatrix(np.zeros(self.shape, dtype=np.int64), self.p)

    def eval_many(self, xs):
        """Evaluate at several points; returns (len(xs), rows, cols)."""
        return horner(self.c, xs, self.p)

    def _aligned(self, other):
        if self.p != other.p:
            raise ValueError("mixed moduli")
        if self.shape != other.shape and self.c.size and other.c.size:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")
        n = max(self.c.shape[0], other.c.shape[0])
        shape = self.shape if self.c.size else other.shape
        a = np.zeros((n,) + shape, dtype=np.int64)
        b = np.zeros((n,) + shape, dtype=np.int64)
        a[:self.c.shape[0]] = self.c
        b[:other.c.shape[0]] = other.c
        return a, b

    def __add__(self, other):
        a, b = self._aligned(other)
        return MatPoly((a + b) % self.p, self.p)

    def __sub__(self, other):
        a, b = self._aligned(other)
        return MatPoly((a - b) % self.p, self.p)

    def mul(self, other):
        """Polynomial product; coefficient pairs are matrix-multiplied."""
        if self.degree < 0 or other.degree < 0:
            return MatPoly.zero(self.shape[0] or 1, other.shape[1] or 1, self.p)
        da, db = self.degree, other.degree
        out = np.zeros((da + db + 1, self.shape[0], other.shape[1]),
                       dtype=np.int64)
        for i in range(da + 1):
            for j in range(db + 1):
                out[i + j] = (out[i + j] +
                              mat_mul(self.c[i], other.c[j], self.p)) % self.p
        return MatPoly(out, self.p)

    def shift(self, k):
        """Multiply by x**k."""
        if self.degree < 0 or k == 0:
            return self if k == 0 else MatPoly(self.c, self.p)
        out = np.zeros((self.c.shape[0] + k,) + self.shape, dtype=np.int64)
        out[k:] = self.c
        return MatPoly(out, self.p)

    def transpose_coeffs(self):
        return MatPoly(np.swapaxes(self.c, 1, 2), self.p)

    def __eq__(self, other):
        if not isinstance(other, MatPoly):
            return NotImplemented
        return self.p == other.p and self.c.shape == other.c.shape and bool(
            np.array_equal(self.c, other.c))

    def __repr__(self):
        return f"MatPoly(deg={self.degree}, shape={self.shape}, p={self.p})"


def lagrange_coeffs(points, target, p):
    """Weights w with sum(w[i] * f(points[i])) = f(target) for every
    polynomial f of degree < len(points)."""
    pts = _check_distinct(points, p)
    target %= p
    out = []
    for i, xi in enumerate(pts):
        num, den = 1, 1
        for j, xj in enumerate(pts):
            if i == j:
                continue
            num = num * ((target - xj) % p) % p
            den = den * ((xi - xj) % p) % p
        out.append(fe_mul(num, fe_inv(den, p), p))
    return tuple(out)


def interpolate(points, values, p):
    """Unique MatPoly of degree < len(points) through the given values."""
    pts = _check_distinct(points, p)
    if len(values) != len(pts):
        raise ShapeMismatch("one value per point required")
    mats = [v.a if isinstance(v, FMatrix) else np.asarray(v) for v in values]
    if len({m.shape for m in mats}) != 1:
        raise ShapeMismatch("value shapes differ")
    shape = mats[0].shape
    n = len(pts)
    v = vandermonde(pts, n, p)
    rhs = np.stack(mats).reshape(n, -1) % p
    coeffs = solve_particular(v, rhs, p)
    return MatPoly(coeffs.reshape((n,) + shape), p)


def coeff_extraction_combo(points, degree, index, p):
    """Weights w with sum(w[i] * f(points[i])) equal to the coefficient
    of x**index in f, for every f of degree <= degree.

    Needs len(points) >= degree + 1; with more points than necessary
    the extra weights are pinned by setting free variables to zero, so
    the answer is deterministic.
    """
    pts = _check_distinct(points, p)
    if not 0 <= index <= degree:
        raise InsufficientPoints(f"coefficient {index} outside degree {degree}")
    if len(pts) < degree + 1:
        raise InsufficientPoints(
            f"{len(pts)} points cannot pin degree {degree}")
    a = vandermonde(pts, degree + 1, p).T  # (degree+1) x n
    e = np.zeros(degree + 1, dtype=np.int64)
    e[index] = 1
    w = solve_particular(a, e, p)
    assert w is not None  # distinct points give a full-rank Vandermonde
    return tuple(int(x) for x in w)
