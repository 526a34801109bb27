"""Reed-Solomon codes on chosen exponent sets, with error decoding.

A codeword here is the evaluation vector of a polynomial whose support
is restricted to a set of exponents: for exponents {e_1, ..., e_k} and
evaluation points (alphas), the generator has G[i][j] = alphas[j]**e_i.
Contiguous exponent sets {0..d} give the classic polynomial-evaluation
code; gapped sets (forced-zero interior coefficients) appear when share
polynomials carry a zero run between data and mask coefficients.

Decoding corrects up to e_max wrong rows of a word. The errors of a
matrix-valued word belong to the parties that sent its rows, so all
entries share one error support, and decode finds it with one error
locator for the whole word: interleaved Reed-Solomon decoding
(Bleichenbacher, Kiayias and Yung, ICALP 2003). syndrome_decode
reduces attributing a syndrome to ordinary decoding.

Failure is surfaced as DecodingFailure and is always an abort signal:
no best-effort answer is ever returned.
"""

import numpy as np

from .errors import DecodingFailure, ParameterViolation
from .gf import arr, mat_mul, nullspace_raw, solve_particular
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


def _fit_exact(xs, flat, d_f, p):
    """Exact degree-d_f fit of all columns, or None if inconsistent."""
    return solve_particular(vandermonde(xs, d_f + 1, p), flat, p)


def decode(d_f, alphas, received, e_max, p):
    """Decode a (possibly matrix-valued) word against degree d_f.

    received: (N,) or (N, r, c) array-like, one value per point with
    missing values already replaced by zeros. Returns (MatPoly,
    frozenset of the points at which errors were corrected): the unique
    codeword within e_max rows of the word, or DecodingFailure when
    there is none. Requires N >= d_f + 1 + 2*e_max so that it is unique.

    A word that is a codeword is fitted exactly. Otherwise one error
    locator serves every entry c of the word: E is the first nonzero
    polynomial of degree <= e_max such that E*y_c agrees, at every
    point, with some polynomial R_c of degree <= d_f + e_max, which is
    one nullspace over the stacked rows H diag(y_c) V_E. If a codeword
    f lies within e_max rows, E*f_c has that degree too and agrees with
    E*y_c off the error rows, at N - e_max >= d_f + e_max + 1 points, so
    R_c = E*f_c; hence E vanishes wherever some y_c is wrong. The points
    where E does not vanish are then error-free and at least d_f + 1 in
    number, and their exact fit is f. Conversely, a nonzero E of degree
    <= e_max vanishes at no more than e_max of the distinct points, so
    any exact fit of the others is a codeword within e_max rows: when
    no such codeword exists, the fit fails.
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

    # H spans the dual of the degree-(d_f + e_max) code on xs, and
    # scaled[i, c, j] = y_c(x_i) * x_i**j
    vq = vandermonde(xs, d_f + e_max + 1, p)
    h = nullspace_raw(vq.T, p)
    ve = vq[:, :e_max + 1]
    scaled = flat[:, :, None] * ve[:, None, :] % p
    rows = mat_mul(h, scaled.reshape(n, -1), p).reshape(-1, e_max + 1)
    locators = nullspace_raw(rows, p)
    if not len(locators):
        raise DecodingFailure("no error locator fits every entry")
    keep = np.flatnonzero(mat_mul(ve, locators[0], p))
    kept = _fit_exact([xs[i] for i in keep], flat[keep], d_f, p)
    if kept is None:
        raise DecodingFailure("the points the locator keeps fit no codeword")
    poly = MatPoly(kept.reshape((d_f + 1,) + shape), p)
    evals = poly.eval_many(xs).reshape(n, -1)
    return poly, frozenset(x for x, got, want in zip(xs, flat, evals)
                           if (got != want).any())


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
