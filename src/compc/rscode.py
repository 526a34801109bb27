"""Reed-Solomon codes on chosen exponent sets, with error decoding.

A codeword here is the evaluation vector of a polynomial whose support
is restricted to a set of exponents: for exponents {e_1, ..., e_k} and
evaluation points (alphas), the generator has G[i][j] = alphas[j]**e_i.
Contiguous exponent sets {0..d} give the classic polynomial-evaluation
code; gapped sets (forced-zero interior coefficients) appear when share
polynomials carry a zero run between data and mask coefficients.

Decoding is Berlekamp-Welch: find a nonzero pair (Q, E) with
deg E <= e_max, deg Q <= d_f + e_max and Q(x_i) = y_i * E(x_i) at every
point; then f = Q / E exactly. Any nonzero solution of the linear
system yields the same ratio, and a zero E part would force Q to vanish
at more points than its degree allows, so the first nullspace basis
vector always works. Matrix-valued words are decoded by a pilot entry
first, with the candidate error set verified across all entries; if the
pilot misses errors that other entries have, a per-entry fallback
unions the error positions.

Failure is surfaced as DecodingFailure and is always an abort signal:
no best-effort answer is ever returned.
"""

import numpy as np

from .errors import DecodingFailure, ParameterViolation
from .gf import arr, fe_inv, nullspace_raw, solve_particular
from .poly import MatPoly, vandermonde


class ExponentSet(tuple):
    """Sorted, duplicate-free exponent tuple."""

    def __new__(cls, exps):
        exps = sorted(set(int(e) for e in exps))
        if exps and exps[0] < 0:
            raise ValueError("negative exponent")
        return super().__new__(cls, exps)

    @property
    def contiguous(self):
        return len(self) == 0 or self[-1] - self[0] == len(self) - 1


class RSCode:
    """Evaluation code for one exponent set over fixed points.

    G has one row per exponent and generates the code; the rows of H
    span its dual, so w is a codeword iff mat_mul(H, w) is zero.
    """

    def __init__(self, alphas, exps, p):
        alphas = [a % p for a in alphas]
        if 0 in alphas or len(set(alphas)) != len(alphas):
            raise ParameterViolation("points must be distinct and nonzero")
        exps = exps if isinstance(exps, ExponentSet) else ExponentSet(exps)
        if len(exps) > len(alphas):
            raise ParameterViolation("more exponents than points")
        self.alphas = tuple(alphas)
        self.exps = exps
        self.p = p
        n = len(alphas)
        if exps:
            full = vandermonde(alphas, exps[-1] + 1, p)
            self.G = full[:, list(exps)].T.copy()
            self.H = nullspace_raw(self.G, p)
        else:
            self.G = np.zeros((0, n), dtype=np.int64)
            self.H = np.eye(n, dtype=np.int64)

    @property
    def n(self):
        return len(self.alphas)


def build_code(alphas, exps, p):
    return RSCode(alphas, exps, p)


def _polydiv_exact(num, den, p):
    """Quotient of num/den as a coefficient list, or None if inexact."""
    num = [int(x) % p for x in num]
    den = [int(x) % p for x in den]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        return None
    inv_lead = fe_inv(den[-1], p)
    q = [0] * max(len(num) - len(den) + 1, 0)
    rem = list(num)
    for k in range(len(q) - 1, -1, -1):
        coef = rem[len(den) + k - 1] * inv_lead % p
        q[k] = coef
        if coef:
            for i, d in enumerate(den):
                rem[i + k] = (rem[i + k] - coef * d) % p
    if any(rem):
        return None
    return q


def _bw_scalar(xs, ys, d_f, e_max, p):
    """Berlekamp-Welch for one scalar word.

    Returns (coeff list, mismatch index set); raises DecodingFailure
    when the word is not within e_max of any degree-d_f codeword.
    """
    n = len(xs)
    vq = vandermonde(xs, d_f + e_max + 1, p)
    ve = vandermonde(xs, e_max + 1, p)
    ys = np.asarray(ys, dtype=np.int64) % p
    a = np.concatenate([vq, (-(ys[:, None] * ve % p)) % p], axis=1)
    basis = nullspace_raw(a, p)
    if basis.shape[0] == 0:
        raise DecodingFailure("no Berlekamp-Welch solution")
    sol = basis[0]
    q, e = sol[:d_f + e_max + 1], sol[d_f + e_max + 1:]
    f = _polydiv_exact(q, e, p)
    if f is None:
        raise DecodingFailure("locator does not divide the numerator")
    if any(f[d_f + 1:]):
        raise DecodingFailure("quotient degree exceeds the declared bound")
    f = f[:d_f + 1] or [0]
    fp = MatPoly(np.array(f, dtype=np.int64).reshape(-1, 1, 1), p)
    vals = fp.eval_many(xs)[:, 0, 0]
    bad = {i for i in range(n) if vals[i] != ys[i]}
    if len(bad) > e_max:
        raise DecodingFailure(f"{len(bad)} mismatches exceed budget {e_max}")
    return f, bad


def _fit_exact(xs, flat, d_f, p):
    """Exact degree-d_f fit of all columns, or None if inconsistent."""
    v = vandermonde(xs, d_f + 1, p)
    return solve_particular(v, flat, p)


def decode(d_f, alphas, received, e_max, p):
    """Decode a (possibly matrix-valued) word against degree d_f.

    received: (N,) or (N, r, c) array-like, one value per point with
    missing values already replaced by zeros. Returns (MatPoly,
    frozenset of the points at which errors were corrected). Requires
    N >= d_f + 1 + 2*e_max so that decoding within budget is unique.
    """
    word = arr(received, p)
    if word.ndim == 1:
        word = word[:, None, None]
    n = word.shape[0]
    if len(alphas) != n:
        raise ParameterViolation("one received value per point required")
    if n < d_f + 1 + 2 * e_max:
        raise ParameterViolation(
            f"N={n} below {d_f + 1 + 2 * e_max} for degree {d_f}, e_max {e_max}")
    shape = word.shape[1:]
    flat = word.reshape(n, -1)
    xs = [a % p for a in alphas]

    coeffs = _fit_exact(xs, flat, d_f, p)
    if coeffs is not None:
        return MatPoly(coeffs.reshape((d_f + 1,) + shape), p), frozenset()

    # pilot entry, then cross-entry verification of its error support
    try:
        _, bad = _bw_scalar(xs, flat[:, 0], d_f, e_max, p)
        keep = [i for i in range(n) if i not in bad]
        kept = _fit_exact([xs[i] for i in keep], flat[keep], d_f, p)
        if kept is not None:
            poly = MatPoly(kept.reshape((d_f + 1,) + shape), p)
            evals = poly.eval_many(xs).reshape(n, -1)
            mism = {i for i in range(n) if (evals[i] != flat[i]).any()}
            if len(mism) <= e_max:
                return poly, frozenset(xs[i] for i in mism)
    except DecodingFailure:
        pass

    # fallback: per-entry decoding, union of error supports
    union = set()
    for col in range(flat.shape[1]):
        _, bad = _bw_scalar(xs, flat[:, col], d_f, e_max, p)
        union |= bad
    if len(union) > e_max:
        raise DecodingFailure("entries disagree on more points than the budget")
    keep = [i for i in range(n) if i not in union]
    kept = _fit_exact([xs[i] for i in keep], flat[keep], d_f, p)
    if kept is None:
        raise DecodingFailure("no single polynomial explains all entries")
    poly = MatPoly(kept.reshape((d_f + 1,) + shape), p)
    evals = poly.eval_many(xs).reshape(n, -1)
    mism = {i for i in range(n) if (evals[i] != flat[i]).any()}
    if len(mism) > e_max:
        raise DecodingFailure("corrected word still too far from the code")
    return poly, frozenset(xs[i] for i in mism)


def syndrome_decode(code, syn, e_max):
    """Attribute a syndrome to an error vector of bounded support.

    code must have a contiguous exponent set starting at 0. Finds e
    with e . H^T = syn and at most e_max nonzero positions, and returns
    it as {point: error value}; zero-valued positions are dropped.
    Returns None when no such vector exists. It is unique whenever the
    code distance exceeds 2*e_max, which every call site guarantees by
    construction. The search reduces to ordinary decoding of a
    particular solution.
    """
    p = code.p
    if not (code.exps.contiguous and code.exps and code.exps[0] == 0):
        raise ParameterViolation(
            "syndrome decoding needs exponents 0..d without a gap")
    syn = arr(syn, p)
    scalar = syn.ndim == 1
    shape = syn.shape[1:]
    w = solve_particular(code.H, syn.reshape(code.H.shape[0], -1), p)
    if w is None:
        return None
    word = w.reshape((code.n,) + shape)
    try:
        poly, _ = decode(code.exps[-1], code.alphas, word, e_max, p)
    except (DecodingFailure, ParameterViolation):
        return None
    evals = poly.eval_many(code.alphas).reshape((code.n,) + shape)
    err = (word - evals) % p
    out = {}
    for i, a in enumerate(code.alphas):
        if err[i].any() if not scalar else err[i]:
            out[a] = int(err[i]) if scalar else err[i]
    return out
