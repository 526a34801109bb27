"""Sharing round trips, gap enforcement, robustness, and privacy."""

from itertools import combinations, product

import numpy as np
import pytest

from compc.errors import (InconsistentShares, InsufficientShares,
                          ParameterViolation)
from compc.gf import FMatrix
from compc.poly import MatPoly
from compc.sharing import (DIRECT, REVERSE, Share, ShareLabel, issue_shares,
                           make_share_poly, reconstruct, robust_reconstruct)

P = 2_147_483_647


def rng_of(seed):
    return np.random.default_rng(seed)


def random_secret(rows, cols, p, rng):
    return FMatrix(rng.integers(0, p, size=(rows, cols)), p)


def test_label_validation_and_derived_fields():
    lab = ShareLabel(m=2, t=3, delta=1)
    assert lab.degree == 5 and lab.threshold == 6 and lab.mask_lo == 3
    with pytest.raises(ParameterViolation):
        ShareLabel(m=0, t=1)
    with pytest.raises(ParameterViolation):
        ShareLabel(m=1, t=1, dir="sideways")


def test_deterministic_when_no_masks():
    x = FMatrix([[1, 2, 3, 4], [5, 6, 7, 8]], P)
    pd = make_share_poly(x, ShareLabel(m=2, t=0), rng_of(0))
    x0, x1 = x.block_split(2)
    assert pd.coeff(0) == x0 and pd.coeff(1) == x1 and pd.degree == 1

    pr = make_share_poly(x, ShareLabel(m=2, t=0, dir=REVERSE), rng_of(0))
    assert pr.coeff(0) == x1 and pr.coeff(1) == x0


def test_gap_slice_is_zero():
    x = random_secret(2, 2, P, rng_of(1))
    poly = make_share_poly(x, ShareLabel(m=2, t=2, delta=3), rng_of(2))
    for j in range(2, 5):
        assert not poly.coeff(j).a.any()
    assert poly.degree <= 2 + 3 + 2 - 1


def test_single_share_is_uniform_over_mask():
    # m=1, t=1: at any fixed point the share value cycles through the
    # whole field as the mask does
    p = 5
    x = FMatrix([[3]], p)
    seen = set()
    for r in range(p):
        poly = MatPoly(np.array([[[3]], [[r]]], dtype=np.int64), p)
        seen.add(int(poly.eval_many([2])[0, 0, 0]))
    assert seen == set(range(p))


def test_m1_t0_share_equals_secret():
    x = random_secret(3, 2, P, rng_of(3))
    poly = make_share_poly(x, ShareLabel(m=1, t=0), rng_of(4))
    for a in (1, 5, 12):
        assert FMatrix(poly.eval_many([a])[0], P) == x


def test_round_trip_grid():
    rng = rng_of(7)
    for m, t, delta, d in product((1, 2, 3), (0, 1, 2), (0, 1, 2),
                                  (DIRECT, REVERSE)):
        lab = ShareLabel(m=m, t=t, delta=delta, dir=d)
        x = random_secret(2, 2 * m, P, rng)
        poly = make_share_poly(x, lab, rng)
        shares = issue_shares(poly, lab, range(1, lab.threshold + 1))
        assert reconstruct(shares) == x


def test_reconstruct_rejects_too_few_and_inconsistent():
    rng = rng_of(11)
    lab = ShareLabel(m=2, t=1)
    x = random_secret(2, 4, P, rng)
    shares = issue_shares(make_share_poly(x, lab, rng), lab, range(1, 6))
    with pytest.raises(InsufficientShares):
        reconstruct(shares[:2])
    bent = list(shares)
    bent[4] = Share(lab, 5, 5, shares[4].value + FMatrix([[1, 0], [0, 0]], P))
    with pytest.raises(InconsistentShares):
        reconstruct(bent)


def test_reconstruct_rejects_gap_violation():
    # polynomial with data at 0, nonzero where the gap should be
    lab = ShareLabel(m=1, t=1, delta=1)
    poly = MatPoly(np.array([[[4]], [[9]], [[2]]], dtype=np.int64), P)
    shares = issue_shares(poly, lab, range(1, 4))
    with pytest.raises(InconsistentShares):
        reconstruct(shares)


def test_robust_reconstruct_clean():
    rng = rng_of(13)
    lab = ShareLabel(m=2, t=1)
    x = random_secret(2, 4, P, rng)
    shares = issue_shares(make_share_poly(x, lab, rng), lab, range(1, 7))
    got, flagged = robust_reconstruct(shares, lab, 1)
    assert got == x and flagged == frozenset()


def test_robust_reconstruct_corrects_and_flags():
    rng = rng_of(17)
    for m, t, delta in ((1, 1, 0), (2, 1, 0), (2, 2, 1), (1, 2, 2)):
        lab = ShareLabel(m=m, t=t, delta=delta)
        n = 3 * t + m + delta
        x = random_secret(2, 2 * m, P, rng)
        shares = issue_shares(make_share_poly(x, lab, rng), lab,
                              range(1, n + 1))
        bad = rng.choice(n, size=t, replace=False)
        for i in bad:
            junk = random_secret(2, 2, P, rng)
            shares[i] = Share(lab, shares[i].owner, shares[i].point, junk)
        got, flagged = robust_reconstruct(shares, lab, t)
        assert got == x
        # a junk value can coincide with the true one only with
        # negligible probability at this prime; require exact flags
        assert flagged == frozenset(int(i) + 1 for i in bad)


def test_robust_reconstruct_precondition():
    rng = rng_of(19)
    lab = ShareLabel(m=2, t=2)
    x = random_secret(2, 4, P, rng)
    shares = issue_shares(make_share_poly(x, lab, rng), lab, range(1, 7))
    with pytest.raises(ParameterViolation):
        robust_reconstruct(shares, lab, 2)


def enumerate_share_views(x, lab, p, subset):
    """Distribution of the value tuple at `subset` over all masks."""
    blocks = x.block_split(lab.m)
    if lab.dir == REVERSE:
        blocks = blocks[::-1]
    r, c = blocks[0].shape
    counts = {}
    mask_cells = lab.t * r * c
    for assign in product(range(p), repeat=mask_cells):
        coeffs = np.zeros((lab.degree + 1, r, c), dtype=np.int64)
        for j, b in enumerate(blocks):
            coeffs[j] = b.a
        flat = np.array(assign, dtype=np.int64).reshape(lab.t, r, c)
        for q in range(lab.t):
            coeffs[lab.mask_lo + q] = flat[q]
        poly = MatPoly(coeffs, p)
        key = tuple(int(v) for v in poly.eval_many(list(subset)).ravel())
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("shape,m,t", [
    ((1, 1), 1, 1), ((1, 1), 1, 2), ((1, 2), 1, 1), ((1, 2), 2, 1),
    ((1, 2), 1, 2),
])
def test_t_subset_views_uniform_and_secret_independent(shape, m, t):
    # GF(5) admits at most 4 distinct nonzero points, so the subsets
    # range over those rather than a full party set
    p = 5
    lab = ShareLabel(m=m, t=t)
    xa = FMatrix(np.arange(shape[0] * shape[1]).reshape(shape) % p, p)
    xb = FMatrix((np.arange(shape[0] * shape[1]).reshape(shape) + 3) % p, p)
    for subset in combinations(range(1, p), t):
        ca = enumerate_share_views(xa, lab, p, subset)
        cb = enumerate_share_views(xb, lab, p, subset)
        assert ca == cb
        assert len(set(ca.values())) == 1  # uniform over its support
        cells = shape[0] * (shape[1] // m)
        assert len(ca) == p ** (t * cells)  # support is everything
