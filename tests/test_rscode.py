"""Decoder tests against brute-force oracles on small fields."""

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compc.errors import DecodingFailure, ParameterViolation
from compc.gf import mat_mul
from compc.rscode import (ExponentSet, RSCode, build_code, decode,
                          syndrome_decode)


def eval_ref(coeffs, x, p):
    return sum(c * pow(x, j, p) for j, c in enumerate(coeffs)) % p


def proportional(u, v, p):
    """u == c*v for some nonzero c, elementwise mod p."""
    u, v = list(u), list(v)
    for uu, vv in zip(u, v):
        if vv:
            c = uu * pow(vv, p - 2, p) % p
            return all(x % p == c * y % p for x, y in zip(u, v)) and c != 0
    return not any(u)


def test_exponent_set_normalizes():
    e = ExponentSet([3, 0, 3, 1])
    assert tuple(e) == (0, 1, 3)
    assert not e.contiguous
    assert ExponentSet([2, 3, 4]).contiguous
    assert ExponentSet([]).contiguous
    with pytest.raises(ValueError):
        ExponentSet([-1, 0])


def test_generator_and_parity_examples():
    code = build_code((1, 2, 3), {0, 1}, 7)
    assert code.G.tolist() == [[1, 1, 1], [1, 2, 3]]
    assert code.H.shape == (1, 3)
    assert proportional(code.H[0], [1, 5, 1], 7)

    code = build_code((1, 2), {0}, 7)
    assert proportional(code.H[0], [1, 6], 7)

    # full-dimension code has an empty parity check
    code = build_code((1, 2, 3), {0, 1, 2}, 7)
    assert code.H.shape[0] == 0


def test_encode_syndrome_roundtrip():
    rng = np.random.default_rng(5)
    code = build_code(range(1, 8), {0, 1, 4, 5}, 101)
    coeffs = rng.integers(0, 101, size=(4, 6))
    word = mat_mul(code.G.T, coeffs, 101)
    assert not mat_mul(code.H, word, 101).any()
    word[3] = (word[3] + 17) % 101
    assert mat_mul(code.H, word, 101).any()


def test_decode_majority_constant():
    poly, errs = decode(0, (1, 2, 3), (5, 5, 2), 1, 7)
    assert poly.coeff(0).to_lists() == [[5]]
    assert errs == frozenset({3})


def test_decode_exact_line():
    # f = 2 + 2x over GF(7)
    poly, errs = decode(1, (1, 2, 3), (4, 6, 1), 0, 7)
    assert poly.coeff(0).to_lists() == [[2]] and poly.coeff(1).to_lists() == [[2]]
    assert errs == frozenset()


def test_decode_corrects_planted_zero():
    poly, errs = decode(1, (1, 2, 3, 4, 5), (4, 6, 1, 0, 5), 1, 7)
    assert poly.coeff(0).to_lists() == [[2]] and poly.coeff(1).to_lists() == [[2]]
    assert errs == frozenset({4})


def test_decode_matrix_word_entrywise_errors():
    # errors hit different entries at different points: the one
    # locator must vanish on the union of the entries' supports
    p = 101
    rng = np.random.default_rng(9)
    xs = list(range(1, 9))
    coeffs = rng.integers(0, p, size=(3, 2, 2))
    truth = np.array(
        [sum(int(c[r, s]) * pow(x, j, p) for j, c in enumerate(coeffs)) % p
         for x in xs for r in range(2) for s in range(2)],
        dtype=np.int64).reshape(8, 2, 2)
    word = truth.copy()
    word[1, 1, 1] = (word[1, 1, 1] + 40) % p
    word[6, 0, 0] = (word[6, 0, 0] + 3) % p
    poly, errs = decode(2, xs, word, 2, p)
    assert np.array_equal(poly.c, coeffs % p)
    assert errs == frozenset({2, 7})


def test_decode_rejects_overloaded_word():
    p = 11
    xs = list(range(1, 6))
    truth = [eval_ref([3, 1], x, p) for x in xs]
    word = list(truth)
    for i in range(3):
        word[i] = (word[i] + 1 + i) % p
    with pytest.raises(DecodingFailure):
        decode(1, xs, word, 1, p)


def test_decode_preconditions():
    with pytest.raises(ParameterViolation):
        decode(2, (1, 2, 3), (0, 0, 0), 1, 7)
    with pytest.raises(ParameterViolation):
        decode(0, (1, 2), (0, 0, 0), 0, 7)


def exhaustive_error_sweep(n, deg, p, rng):
    """Check every error pattern within the unique-decoding budget."""
    xs = list(range(1, n + 1))
    coeffs = [int(rng.integers(0, p)) for _ in range(deg + 1)]
    truth = [eval_ref(coeffs, x, p) for x in xs]
    e_max = (n - deg - 1) // 2
    want = np.array(coeffs, dtype=np.int64).reshape(-1, 1, 1) % p
    for werr in range(e_max + 1):
        for pos in combinations(range(n), werr):
            for vals in product(range(1, p), repeat=werr):
                word = list(truth)
                for i, v in zip(pos, vals):
                    word[i] = (word[i] + v) % p
                poly, errs = decode(deg, xs, word, e_max, p)
                got = np.zeros((deg + 1, 1, 1), dtype=np.int64)
                got[:poly.c.shape[0]] = poly.c
                assert np.array_equal(got, want)
                assert errs == frozenset(xs[i] for i in pos)


def test_exhaustive_small_codes():
    rng = np.random.default_rng(20240811)
    for n in range(1, 6):
        for deg in range(0, min(3, n)):
            exhaustive_error_sweep(n, deg, 11, rng)


def test_beyond_budget_failure_or_nearest():
    p = 11
    rng = np.random.default_rng(77)
    for n, deg in ((5, 0), (6, 1), (7, 2)):
        xs = list(range(1, n + 1))
        e_max = (n - deg - 1) // 2
        every = [[eval_ref(c, x, p) for x in xs]
                 for c in product(range(p), repeat=deg + 1)]
        for _ in range(40):
            word = [int(v) for v in rng.integers(0, p, size=n)]
            dist_min = min(sum(a != b for a, b in zip(word, cw))
                           for cw in every)
            try:
                poly, errs = decode(deg, xs, word, e_max, p)
            except DecodingFailure:
                assert dist_min > e_max
                continue
            got = poly.eval_many(xs)[:, 0, 0].tolist()
            achieved = sum(a != b for a, b in zip(word, got))
            assert achieved == len(errs) == dist_min <= e_max


@pytest.mark.parametrize("n", [4, 5, 6])
def test_matrix_words_against_every_pair_of_codewords(n):
    """Words of shape (n, 1, 2) at degree <= 1 over GF(7), random or
    with the two entries wrong on different rows, up to two rows beyond
    the budget: decode returns a polynomial exactly when some pair of
    codewords lies within e_max rows, and corrects exactly those rows."""
    p, deg = 7, 1
    xs = list(range(1, n + 1))
    e_max = (n - deg - 1) // 2
    polys = list(product(range(p), repeat=deg + 1))
    table = np.array([[eval_ref(c, x, p) for x in xs] for c in polys])
    rng = np.random.default_rng(n)
    words = [rng.integers(0, p, size=(n, 1, 2)) for _ in range(150)]
    for _ in range(300):
        pair = rng.integers(0, len(polys), size=2)
        word = table[pair].T.reshape(n, 1, 2).copy()
        rows = rng.choice(n, size=min(n, int(rng.integers(1, e_max + 3))),
                          replace=False)
        # entry 0 is wrong on a nonempty prefix of the rows, entry 1 on
        # a nonempty suffix, so the two supports differ when rows > 1
        cut = int(rng.integers(1, len(rows) + 1))
        for entry, hit in ((0, rows[:cut]), (1, rows[cut - 1:])):
            word[hit, 0, entry] = (word[hit, 0, entry]
                                   + rng.integers(1, p, size=len(hit))) % p
        words.append(word)
    for word in words:
        wrong = ((table[:, None, :] != word[:, 0, 0])
                 | (table[None, :, :] != word[:, 0, 1]))    # (49, 49, n)
        near = np.argwhere(wrong.sum(axis=2) <= e_max)
        if len(near) == 0:
            with pytest.raises(DecodingFailure):
                decode(deg, xs, word, e_max, p)
            continue
        (a, b), = near
        poly, errs = decode(deg, xs, word, e_max, p)
        got = np.zeros((deg + 1, 1, 2), dtype=np.int64)
        got[:poly.c.shape[0]] = poly.c
        assert got[:, 0, 0].tolist() == list(polys[a])
        assert got[:, 0, 1].tolist() == list(polys[b])
        assert errs == frozenset(x for x, w in zip(xs, wrong[a, b]) if w)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3), st.integers(0, 2))
def test_decode_recovers_random_planted(seed, deg, werr):
    p = 97
    rng = np.random.default_rng(seed)
    n = deg + 1 + 2 * werr + int(rng.integers(0, 3))
    xs = list(range(1, n + 1))
    coeffs = [int(v) for v in rng.integers(0, p, size=deg + 1)]
    word = [eval_ref(coeffs, x, p) for x in xs]
    pos = rng.choice(n, size=werr, replace=False)
    for i in pos:
        word[i] = (word[i] + int(rng.integers(1, p))) % p
    poly, errs = decode(deg, xs, word, werr, p)
    for j, c in enumerate(coeffs):
        assert int(poly.coeff(j).a[0, 0]) == c % p
    assert errs == frozenset(xs[i] for i in pos)


def test_syndrome_decode_contiguous():
    p = 101
    code = build_code(range(1, 10), {0, 1, 2, 3}, p)
    rng = np.random.default_rng(3)
    word = mat_mul(code.G.T, rng.integers(0, p, size=(4, 4)),
                   p).reshape(9, 2, 2)
    err_val = np.array([[7, 0], [0, 99]], dtype=np.int64)
    word[4] = (word[4] + err_val) % p
    syn = mat_mul(code.H, word.reshape(9, -1), p).reshape(-1, 2, 2)
    got = syndrome_decode(code, syn, 2)
    assert set(got) == {5}
    assert np.array_equal(got[5], err_val)

    clean = mat_mul(code.G.T, rng.integers(0, p, size=(4, 4)), p)
    assert syndrome_decode(code, mat_mul(code.H, clean, p).reshape(-1, 2, 2),
                           2) == {}


def test_syndrome_decode_refuses_gapped_codes():
    code = build_code(range(1, 10), {0, 3, 4}, 101)
    with pytest.raises(ParameterViolation):
        syndrome_decode(code, np.zeros(6, dtype=np.int64), 2)
