"""Composable verification phases between sharing and multiplication.

Four subroutines run over the simulated network, each one protocol
phase with eliminations applied at its end:

  - shares_times_matrix: every party broadcasts its row of Y = [x]·Hpub
    evaluated at its own point, and the constant row Y(0) is decoded
    publicly. Lying rows are corrected by the decoder, not eliminated.
  - subshare_of_shares: every party re-shares its share of a
    degree-bounded polynomial through EVSS, then the constant vector's
    syndrome against the degree code is computed publicly and decoded;
    parties whose constant is off the codeword are eliminated.
  - verify_gap_form: checks that accepted subshare polynomials keep
    their interior zero run, from the EVSS cross polynomials alone.
    Origin o's subshare Q_o(y) = S_o(0, y) sits in a bivariate S_o of
    degree d = zeta+t-1 of which party i holds g_i(y) = S_o(alpha_i, y).
    With H the parity matrix of the gapped code over the live points,
    P_o(x) = sum_j H_j S_o(x, alpha_j) has degree d and P_o(0) is the
    gap parity of Q_o. Each party broadcasts P_o(alpha_i), computed
    locally from g_i, and the word is decoded publicly: a nonzero
    constant eliminates the origin, and a row off the decoded codeword
    eliminates its sender. Honest rows lie on P_o once the origin's
    EVSS is accepted. For an honest origin P_o(0) = 0, and what any t
    parties see of the deal and the rows does not depend on Q_o(0)
    (the test suite checks this exactly with a rank test).
  - eval_shared_poly: collaborative public evaluation of a shared
    polynomial at an arbitrary point, built from a zero-gap
    subshare_of_shares and one decoded recombination broadcast.

Eliminated parties carry exactly one of four reason codes; the first
reason sticks. Per-subroutine participant bounds are documentation
only: the scenario-wide recovery threshold checked at configuration
time covers every call site.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (DecodingFailure, ParameterViolation, TooFewSurvivors)
from .evss import BatchInstance, evss_deal, run_evss_batch
from .gf import FMatrix, mat_mul
from .net import BCAST, rng_for
from .poly import lagrange_coeffs, vandermonde
from .rscode import build_code, decode, syndrome_decode
from .sharing import ShareLabel

BAD_SUBSHARE = "BadSubshareValue"
BAD_GAP = "BadGapForm"
BAD_PRODUCT = "BadProductRelation"
EVSS_REJECTED = "EvssRejectedDealer"
REASONS = (BAD_SUBSHARE, BAD_GAP, BAD_PRODUCT, EVSS_REJECTED)


@dataclass
class ActiveSet:
    """Ordered worker roster with monotone, reason-tagged eliminations."""

    parties: tuple
    eliminated: dict = field(default_factory=dict)   # party -> reason

    @property
    def active(self):
        return tuple(i for i in self.parties if i not in self.eliminated)

    def eliminate(self, party, reason):
        if reason not in REASONS:
            raise ParameterViolation(f"unknown elimination reason {reason!r}")
        if party not in self.parties:
            raise ParameterViolation(f"unknown party {party}")
        # first reason sticks; later phases may re-blame the same party
        self.eliminated.setdefault(party, reason)

    def budget(self, t):
        """Adversaries possibly still active (eliminations are sound)."""
        return max(0, t - len(self.eliminated))

    def require(self, count):
        if len(self.active) < count:
            raise TooFewSurvivors(
                f"{len(self.active)} active parties, need {count}")
        return self


class SubshareBundle(NamedTuple):
    origin: int
    values: dict        # recipient -> ndarray, Q_origin(alpha_recipient)
    zeta: int
    degree_claim: int
    g: dict             # recipient -> (d+1, r, c) coeffs of S_origin(alpha, y)


def _record_eliminations(network, phase, before, active):
    for party, reason in sorted(active.eliminated.items()):
        if party not in before:
            network.transcript.add_event("eliminate", phase, party, reason)


def _broadcast_rows(network, adv, scenario, phase, live, rows, k, shape):
    """One broadcast exchange of per-party (k, r, c) stacks.

    Returns the word (len(live), k, r, c) with malformed or missing
    rows replaced by zeros.
    """
    p = scenario.p
    outboxes = {j: [(BCAST, -1, ("stm", rows[j]))] for j in live}
    ctx = {"phase": phase, "instances": {}, "states": {},
           "scenario": scenario}
    outboxes = adv.filter(ctx, outboxes)
    inboxes = network.exchange(phase, outboxes)
    adv.observe(phase, inboxes)

    got = {}
    for sender, channel, payload in inboxes[0]:
        if channel != BCAST or not isinstance(payload, tuple) \
                or len(payload) != 2 or payload[0] != "stm":
            continue
        if sender not in live or sender in got:
            continue
        y = payload[1]
        if isinstance(y, np.ndarray) and y.shape == (k,) + tuple(shape) \
                and np.issubdtype(y.dtype, np.integer) \
                and (y.size == 0 or (y.min() >= 0 and y.max() < p)):
            got[sender] = y
    zero = np.zeros((k,) + tuple(shape), dtype=np.int64)
    return np.stack([got.get(j, zero) for j in live])


def _combine(holdings, origins, hpub, shape, p):
    """hpub-weighted sum of one party's held values, missing -> 0."""
    acc = np.zeros((hpub.shape[1],) + tuple(shape), dtype=np.int64)
    for ix, o in enumerate(origins):
        v = holdings.get(o)
        if v is not None:
            acc = (acc + hpub[ix][:, None, None] * v) % p
    return acc


def shares_times_matrix(network, adv, scenario, phase, active, holdings,
                        origins, hpub, q_degree, e_max, shape):
    """Publicly compute [x_origin1 .. x_originK] . hpub, one broadcast.

    holdings: {party: {origin: (r, c) ndarray}} with each party's value
    of the origin polynomial at its own point; absent entries enter the
    sum as zero. hpub: (len(origins), k). Every honest party obtains
    the same (k, r, c) result; rows further than e_max errors from a
    degree-q_degree codeword abort with DecodingFailure.
    """
    p = scenario.p
    live = active.active
    if hpub.shape[0] != len(origins):
        raise ParameterViolation("one hpub row per origin required")
    k = hpub.shape[1]
    rows = {j: _combine(holdings.get(j, {}), origins, hpub, shape, p)
            for j in live}
    word = _broadcast_rows(network, adv, scenario, phase, live, rows,
                           k, shape)
    out = np.empty((k,) + tuple(shape), dtype=np.int64)
    for col in range(k):
        poly, _ = decode(q_degree, live, word[:, col], e_max, p)
        out[col] = poly.coeff(0).a
    return out


def subshare_of_shares(network, adv, scenario, prefix, active, f_values,
                       p_deg, zeta, kind="subshare"):
    """Verified re-sharing of every active party's share of F.

    f_values: {party: (r, c) ndarray} holding F(alpha_party) for a
    polynomial of degree p_deg. Each party deals
    Q_n(x) = F(alpha_n) + R_1 x^zeta + ... + R_t x^(zeta+t-1) through
    one EVSS batch; rejected dealers are eliminated and their values
    replaced by zeros. The constant vector (Q_1(0), ..) is then checked
    against the degree-p_deg code: its syndrome is computed publicly
    with shares_times_matrix and decoded, and every decoded error
    position is eliminated with BadSubshareValue. Returns
    ({origin: SubshareBundle}, active); each bundle keeps every
    party's g polynomial of the origin's deal for verify_gap_form.
    """
    s, p, t = scenario, scenario.p, scenario.t
    live = active.active
    before = set(active.eliminated)
    shape = np.asarray(f_values[live[0]]).shape
    lab = ShareLabel(1, t, zeta - 1)

    instances = [
        BatchInstance(f"q{n:03d}", n, lab,
                      evss_deal(FMatrix(np.asarray(f_values[n]), p), lab,
                                rng_for(s.seed, n, f"{prefix}:q")))
        for n in live]
    outcomes = run_evss_batch(network, adv, s, f"{prefix}:q", instances,
                              kinds={b.iid: kind for b in instances})

    zero = np.zeros(shape, dtype=np.int64)
    rejected = []
    holdings = {j: {} for j in live}
    bundles = {}
    for n, b in zip(live, instances):
        res = outcomes[b.iid]
        if not res.accepted:
            rejected.append(n)
        vals = {}
        for j in live:
            v = res.shares[j]
            vals[j] = zero if v is None else v
            holdings[j][n] = vals[j]
        bundles[n] = SubshareBundle(n, vals, zeta, zeta + t - 1, res.g)

    code = build_code(live, range(p_deg + 1), p)
    errs = {}
    if code.H.shape[0]:
        syn = shares_times_matrix(
            network, adv, s, f"{prefix}:syn", active, holdings, live,
            code.H.T.copy(), zeta + t - 1, active.budget(t), shape)
        if syn.any():
            errs = syndrome_decode(code, syn, active.budget(t))
            if errs is None:
                raise DecodingFailure(
                    "subshare constants beyond the error budget")

    for n in rejected:
        active.eliminate(n, EVSS_REJECTED)
    for pt in sorted(errs):
        active.eliminate(int(pt), BAD_SUBSHARE)
    _record_eliminations(network, prefix, before, active)
    return bundles, active


def verify_gap_form(network, adv, scenario, prefix, active, bundles):
    """Check each origin's subshare polynomial for its interior zero run.

    bundles: {origin: SubshareBundle} from one subshare_of_shares call.
    Nothing runs when the bundles carry no gap. Otherwise one broadcast
    on <prefix>:par carries every live party's parity rows
    P_o(alpha_i) for all checked origins, computed from the g
    polynomials the origins' own EVSS deals gave it (see the module
    docstring), and each origin's word is decoded once at degree
    zeta+t-1 within the remaining adversary budget. A nonzero constant
    eliminates the origin with BadGapForm; every corrected position
    eliminates its sender with BadSubshareValue. A word beyond the
    budget raises DecodingFailure and blames nobody. Returns the
    updated ActiveSet.
    """
    s, p, t = scenario, scenario.p, scenario.t
    checked = [o for o in active.active if o in bundles]
    if not checked or bundles[checked[0]].zeta < 2:
        return active
    zeta = bundles[checked[0]].zeta
    live = active.active
    before = set(active.eliminated)
    shape = next(iter(bundles[checked[0]].values.values())).shape
    # P_o(alpha_i) = sum_j H_j g_i(alpha_j) = (H V) @ (g_i's coefficients)
    h = build_code(live, (0,) + tuple(range(zeta, zeta + t)), p).H
    weights = mat_mul(h, vandermonde(live, zeta + t, p), p)
    k, d1 = weights.shape

    # g[i, o] = party i's g coefficients for origin o, missing -> 0
    g = np.zeros((len(live), len(checked), d1) + shape, dtype=np.int64)
    for ox, o in enumerate(checked):
        for ix, i in enumerate(live):
            gi = bundles[o].g.get(i)
            if gi is not None:
                g[ix, ox] = gi
    par = mat_mul(weights, np.moveaxis(g, 2, 0).reshape(d1, -1), p)
    par = np.moveaxis(par.reshape((k, len(live), len(checked)) + shape), 0, 2)
    rows = {i: par[ix].reshape((len(checked) * k,) + shape)
            for ix, i in enumerate(live)}
    word = _broadcast_rows(network, adv, s, f"{prefix}:par", live, rows,
                           len(checked) * k, shape)

    budget = active.budget(t)
    for ox, o in enumerate(checked):
        part = word[:, ox * k:(ox + 1) * k].reshape(
            (len(live), k * shape[0]) + shape[1:])
        poly, errs = decode(zeta + t - 1, live, part, budget, p)
        if poly.c[:1].any():      # the constant P_o(0); c is trimmed
            active.eliminate(o, BAD_GAP)
        for pt in sorted(errs):
            active.eliminate(int(pt), BAD_SUBSHARE)
    _record_eliminations(network, prefix, before, active)
    return active


def eval_shared_poly(network, adv, scenario, prefix, active, f_values,
                     p_deg, target):
    """Everyone learns F(target) from the shares F(alpha_n).

    Re-shares through subshare_of_shares with zeta = 1 (no gap), which
    also eliminates wrong constants, then recombines with Lagrange
    weights over the surviving points and decodes the broadcast
    degree-t word. Returns the (r, c) value of F at target.
    """
    s, p, t = scenario, scenario.p, scenario.t
    if len(active.active) < p_deg + 1:
        raise ParameterViolation(
            f"{len(active.active)} active parties cannot fix degree {p_deg}")
    bundles, active = subshare_of_shares(
        network, adv, s, f"{prefix}:sub", active, f_values, p_deg, 1)
    live = active.active
    if len(live) < p_deg + 1:
        raise TooFewSurvivors(
            f"{len(live)} surviving parties cannot fix degree {p_deg}")
    shape = next(iter(bundles[live[0]].values.values())).shape
    lam = lagrange_coeffs(live, target, p)
    hpub = np.array(lam, dtype=np.int64).reshape(-1, 1)
    holdings = {j: {o: bundles[o].values[j] for o in live} for j in live}
    out = shares_times_matrix(
        network, adv, s, f"{prefix}:mix", active, holdings, live, hpub,
        t, active.budget(t), shape)
    return out[0]
