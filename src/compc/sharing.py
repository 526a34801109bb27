"""Block-partitioned polynomial sharing of matrices.

A secret z x v matrix is split into m column blocks and embedded into
the low coefficients of a share polynomial; a zero gap of length delta
may separate the data coefficients from t uniformly random masks:

    direct:  X_0 + X_1 x + ... + X_{m-1} x^{m-1} + 0*x^m ... + R_0 x^{m+delta} + ...
    reverse: same block values in reversed order at powers 0..m-1.

Party n holds the evaluation at its point alpha_n. Any m+delta+t shares
reconstruct the secret; any t shares reveal nothing about it. The
reverse orientation exists so that the product of a direct and a
reverse sharing carries the full matrix product in one retrievable
coefficient.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DuplicatePoints, InconsistentShares, InsufficientShares,
                     ParameterViolation)
from .gf import FMatrix, hconcat, solve_particular
from .poly import MatPoly, vandermonde
from .rscode import decode

DIRECT = "direct"
REVERSE = "reverse"


@dataclass(frozen=True)
class ShareLabel:
    m: int
    t: int
    delta: int = 0
    dir: str = DIRECT

    def __post_init__(self):
        if self.m < 1 or self.t < 0 or self.delta < 0:
            raise ParameterViolation(f"bad share label {self}")
        if self.dir not in (DIRECT, REVERSE):
            raise ParameterViolation(f"unknown direction {self.dir!r}")

    @property
    def degree(self):
        return self.m + self.delta + self.t - 1

    @property
    def threshold(self):
        """Number of shares that determine the polynomial."""
        return self.m + self.delta + self.t

    @property
    def mask_lo(self):
        """Exponent of the first random mask coefficient."""
        return self.m + self.delta


@dataclass(frozen=True)
class Share:
    label: ShareLabel
    owner: int
    point: int
    value: FMatrix


def make_share_poly(x, label, rng):
    """Share polynomial for secret x under the given label."""
    blocks = x.block_split(label.m)
    if label.dir == REVERSE:
        blocks = blocks[::-1]
    r, c = blocks[0].shape
    coeffs = np.zeros((label.degree + 1, r, c), dtype=np.int64)
    for j, b in enumerate(blocks):
        coeffs[j] = b.a
    for q in range(label.t):
        coeffs[label.mask_lo + q] = rng.integers(0, x.p, size=(r, c))
    return MatPoly(coeffs, x.p)


def issue_shares(poly, label, owners):
    """Evaluate at alpha_n = n for each owner; returns Share records."""
    owners = list(owners)
    if any(o % poly.p == 0 for o in owners):
        raise ParameterViolation("share point 0 would expose the data slice")
    vals = poly.eval_many(owners)
    return [Share(label, o, o, FMatrix(vals[i], poly.p))
            for i, o in enumerate(owners)]


def _data_matrix(coeffs, label, p):
    """Reassemble the secret from interpolated coefficients."""
    blocks = [FMatrix(coeffs[j], p) for j in range(label.m)]
    if label.dir == REVERSE:
        blocks = blocks[::-1]
    return hconcat(blocks)


def _check_uniform(shares):
    label = shares[0].label
    p = shares[0].value.p
    shape = shares[0].value.shape
    for s in shares:
        if s.label != label or s.value.p != p or s.value.shape != shape:
            raise InconsistentShares("mixed labels or shapes")
    pts = [s.point % p for s in shares]
    if len(set(pts)) != len(pts):
        raise DuplicatePoints("repeated share points")
    return label, p


def reconstruct(shares, label=None):
    """Secret from at least threshold shares; verifies the gap.

    With more than threshold shares the whole set must be consistent
    with one polynomial of the declared degree.
    """
    got, p = _check_uniform(shares)
    if label is None:
        label = got
    elif label != got:
        raise InconsistentShares("shares carry a different label")
    if len(shares) < label.threshold:
        raise InsufficientShares(
            f"{len(shares)} shares, need {label.threshold}")
    pts = [s.point for s in shares]
    flat = np.stack([s.value.a for s in shares]).reshape(len(shares), -1)
    v = vandermonde(pts, label.degree + 1, p)
    sol = solve_particular(v, flat, p)
    if sol is None:
        raise InconsistentShares("shares do not fit one polynomial")
    coeffs = sol.reshape((label.degree + 1,) + shares[0].value.shape)
    if coeffs[label.m:label.mask_lo].any():
        raise InconsistentShares("gap coefficients are nonzero")
    return _data_matrix(coeffs, label, p)


def robust_reconstruct(shares, label, t):
    """Secret despite up to t corrupted share values.

    Returns (secret, frozenset of flagged owners). Needs
    len(shares) >= threshold + 2t for unique decoding.
    """
    got, p = _check_uniform(shares)
    if label != got:
        raise InconsistentShares("shares carry a different label")
    n = len(shares)
    if n < label.threshold + 2 * t:
        raise ParameterViolation(
            f"{n} shares below {label.threshold + 2 * t} for budget {t}")
    pts = [s.point for s in shares]
    word = np.stack([s.value.a for s in shares])
    poly, bad_pts = decode(label.degree, pts, word, t, p)
    coeffs = np.zeros((label.degree + 1,) + shares[0].value.shape,
                      dtype=np.int64)
    coeffs[:poly.c.shape[0]] = poly.c
    if coeffs[label.m:label.mask_lo].any():
        raise InconsistentShares("decoded gap coefficients are nonzero")
    flagged = frozenset(s.owner for s in shares if s.point % p in bad_pts)
    return _data_matrix(coeffs, label, p), flagged
