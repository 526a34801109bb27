"""Prime-field arithmetic and dense matrices over GF(p).

Field elements are canonical Python ints in [0, p). Matrices are dense
row-major int64 numpy arrays, reduced mod p after every operation. The
default prime 2**31 - 1 keeps any single product of two canonical
elements below 2**62, so int64 intermediates are safe as long as sums
are reduced before they accumulate more than two raw products; the
helpers below take care of that.
"""

import numpy as np

from .errors import (DimensionMismatch, DivisionByZero, IndivisibleSplit,
                     ParameterViolation)

DEFAULT_PRIME = 2_147_483_647  # 2**31 - 1

MAX_DIM = 64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for anything below 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p):
    """p itself, if it is a prime the int64 kernels handle exactly."""
    if not is_prime(p):
        raise ParameterViolation(f"modulus {p} is not prime")
    if p >= 2 ** 31:
        raise ParameterViolation(
            f"prime {p} is not below 2**31, the int64 arithmetic bound")
    return p


# -- scalar ops ---------------------------------------------------------

def fe_mul(a, b, p):
    return a * b % p


def fe_inv(a, p):
    """Multiplicative inverse by Fermat's little theorem (p prime)."""
    a %= p
    if a == 0:
        raise DivisionByZero("cannot invert 0")
    return pow(a, p - 2, p)


# -- raw ndarray helpers (internal fast path) ---------------------------

def arr(values, p):
    """Canonicalize to an int64 array reduced mod p."""
    return np.asarray(values, dtype=np.int64) % p


_INT64 = np.dtype(np.int64)


def is_field_array(a, shape, p):
    """Whether a received payload entry is an int64 ndarray of `shape`
    (a tuple; a leading None matches any length) with every entry in
    [0, p). Every inbox array is judged by this one rule."""
    return (isinstance(a, np.ndarray) and a.dtype == _INT64
            and (a.shape == shape or shape[:1] == (None,)
                 and a.ndim == len(shape) and a.shape[1:] == shape[1:])
            # one reduction: a negative entry read as unsigned exceeds p
            and (a.size == 0 or a.view(np.uint64).max() < p))


def mat_mul(a, b, p):
    """Exact modular matmul via a 16-bit split of the left operand.

    Every weighted sum over parties or blocks is one call. For entries
    in [0, p), p < 2**31 and inner dimension k <= 2**16 = 65 536, the
    int64 value (hi @ b % p) * 2**16 + lo @ b never wraps: it is at
    most (p - 1) * (2**16 + k * (2**16 - 1)) <= (p - 1) * 2**32 < 2**63.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    hi, lo = a >> 16, a & 0xFFFF
    return ((hi @ b % p) * 65536 + lo @ b) % p


def rref(a, p):
    """Reduced row echelon form mod p. Returns (R, pivot_columns)."""
    r = arr(a, p).copy()
    rows, cols = r.shape
    pivots = []
    lead = col = 0
    while lead < rows and col < cols:
        if not r[lead, col]:
            # jump to the next column with a nonzero entry at or below
            # lead and swap that entry's row up
            live = r[lead:, col:].any(axis=0)
            skip = int(live.argmax())
            if not live[skip]:
                break
            col += skip
            piv = lead + int((r[lead:, col] != 0).argmax())
            r[[lead, piv]] = r[[piv, lead]]
        r[lead] = r[lead] * fe_inv(int(r[lead, col]), p) % p
        # eliminate col from every other row at once; each product is
        # below p**2 < 2**62, so int64 never wraps
        factors = r[:, col].copy()
        factors[lead] = 0
        r -= factors[:, None] * r[lead]
        r %= p
        pivots.append(col)
        lead += 1
        col += 1
    return r, pivots


def nullspace_raw(a, p):
    """Basis (rows) of {x : a @ x = 0 mod p}, canonical rref form."""
    a = arr(a, p)
    _, cols = a.shape
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fcol in enumerate(free):
        basis[k, fcol] = 1
        for i, pcol in enumerate(pivots):
            basis[k, pcol] = (-r[i, fcol]) % p
    return basis


def solve_particular(a, b, p):
    """One exact solution x of a @ x = b mod p, or None if inconsistent.

    b may have multiple right-hand sides (2-D). Free variables are set
    to zero, which makes the answer deterministic.
    """
    a = arr(a, p)
    b = arr(b, p)
    single = b.ndim == 1
    if single:
        b = b[:, None]
    rows, cols = a.shape
    aug = np.concatenate([a, b], axis=1)
    r, pivots = rref(aug, p)
    # a pivot inside the RHS block means an inconsistent system
    for pc in pivots:
        if pc >= cols:
            return None
    x = np.zeros((cols, b.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, cols:]
    return x[:, 0] if single else x


# -- matrices -----------------------------------------------------------

class FMatrix:
    """Dense matrix over GF(p). Immutable by convention."""

    __slots__ = ("a", "p")

    def __init__(self, values, p):
        a = np.asarray(values, dtype=np.int64)
        if a.ndim != 2:
            raise DimensionMismatch(f"expected 2-D data, got {a.ndim}-D")
        if a.shape[0] > MAX_DIM or a.shape[1] > MAX_DIM:
            raise DimensionMismatch(f"dimension above {MAX_DIM}: {a.shape}")
        self.a = a % p
        self.p = p

    @classmethod
    def random(cls, rows, cols, p, rng):
        return cls(rng.integers(0, p, size=(rows, cols), dtype=np.int64), p)

    @property
    def shape(self):
        return self.a.shape

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    def _check(self, other, op):
        if self.p != other.p:
            raise ValueError(f"mixed moduli {self.p} and {other.p}")
        if op in ("add", "sub") and self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} vs {other.shape}")
        if op == "mul" and self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")

    def __add__(self, other):
        self._check(other, "add")
        return FMatrix((self.a + other.a) % self.p, self.p)

    def __sub__(self, other):
        self._check(other, "sub")
        return FMatrix((self.a - other.a) % self.p, self.p)

    def __matmul__(self, other):
        self._check(other, "mul")
        return FMatrix(mat_mul(self.a, other.a, self.p), self.p)

    @property
    def T(self):
        return FMatrix(self.a.T, self.p)

    def __eq__(self, other):
        if not isinstance(other, FMatrix):
            return NotImplemented
        return self.p == other.p and self.shape == other.shape and bool(
            np.array_equal(self.a, other.a))

    def __hash__(self):
        return hash((self.p, self.shape, self.a.tobytes()))

    def block_split(self, m, axis=1):
        """Split into m equal blocks along axis (1 = columns)."""
        size = self.shape[axis]
        if m <= 0 or size % m:
            raise IndivisibleSplit(f"{m} blocks of dimension {size}")
        return [FMatrix(piece, self.p)
                for piece in np.split(self.a, m, axis=axis)]

    def to_lists(self):
        return self.a.tolist()

    def __repr__(self):
        return f"FMatrix({self.a.tolist()}, p={self.p})"


def hconcat(mats):
    if not mats:
        raise DimensionMismatch("nothing to concatenate")
    p = mats[0].p
    if any(m.p != p for m in mats) or len({m.rows for m in mats}) != 1:
        raise DimensionMismatch("row counts or moduli differ")
    return FMatrix(np.concatenate([m.a for m in mats], axis=1), p)

