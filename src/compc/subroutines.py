"""Composable verification phases between sharing and multiplication.

Four subroutines run over the simulated network. Each takes every
family, part or polynomial of one protocol step at once and handles
them in shared rounds, so a step's round count does not grow with the
number of values it checks:

  - shares_times_matrix: every party broadcasts, for every part, its
    rows of Y = [x]·Hpub evaluated at its own point, all parts in one
    message, and each part's constant row Y(0) is decoded publicly.
    Lying rows are corrected by the decoder, not eliminated; their
    senders are recorded as "correct" events.
  - subshare_of_shares: for every family, every party re-shares its
    share of a degree-bounded polynomial through EVSS. Families of one
    (gap, value shape) share an EVSS batch; a dealer a batch rejects is
    eliminated at once and deals in no later batch. Then one syndrome
    broadcast carries every family's constant-vector syndrome against
    its degree code, and each is decoded; parties whose constant is off
    the codeword are eliminated.
  - verify_gap_form and eval_shared_poly open values of EVSS-dealt
    polynomials from the cross polynomials alone, in one broadcast
    (_open_cross). A dealer embeds Q in a bivariate
    S(x, y) = sum_a S_a(x) y^a of degree d with S(0, y) = Q(y), and
    party i holds g_i(y) = S(alpha_i, y), whose y^a coefficient is
    S_a(alpha_i). For a weight row w over those coefficients, party i
    broadcasts sum_a w_a S_a(alpha_i): over the live parties a word of
    P(x) = sum_a w_a S_a(x), of degree d, with P(0) = sum_a w_a Q_a.
    Honest rows lie on P once the EVSS is accepted; the word is decoded
    publicly, and a row off it eliminates its sender.
    verify_gap_form takes the unit rows 1..zeta-1: P(0) is the gap
    coefficient Q_a of an origin's subshare, and a nonzero one
    eliminates the origin. For an honest origin every P(0) = 0, and
    what any t parties see of the deal and the rows does not depend on
    Q(0) (the test suite checks this exactly with a rank test).
    eval_shared_poly takes the powers of the one point `target`: the
    word is f_target(x) = S(x, target), which the party at target holds
    already, and P(0) = Q(target).

Within a shared round every word is decoded against the same active
set and budget, so a cheater caught there keeps dealing in the step's
other families until that round. Eliminated parties carry exactly one
of four reason codes; the first reason sticks. Per-subroutine
participant bounds are documentation only: the scenario-wide recovery
threshold checked at configuration time covers every call site.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (DecodingFailure, ParameterViolation, TooFewSurvivors)
from .evss import BatchInstance, evss_deal_poly, run_evss_batch
from .gf import FMatrix, mat_mul
from .net import BCAST, Field, rng_for, tagged
from .poly import vandermonde
from .rscode import build_code, decode, syndrome_decode
from .sharing import ShareLabel, make_share_poly

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
    g: dict             # recipient -> (d+1, r, c) coeffs of S_origin(alpha, y)
    q: object           # the MatPoly Q_origin the origin dealt


def _record_eliminations(network, phase, before, active):
    for party, reason in sorted(active.eliminated.items()):
        if party not in before:
            network.transcript.add_event("eliminate", phase, party, reason)


def _deal_batch(network, scenario, phase, active, instances, record_as):
    """Run one EVSS batch on `phase`, eliminate every dealer it rejects
    with EvssRejectedDealer and record those eliminations under
    record_as. Returns {iid: EvssOutcome}."""
    before = set(active.eliminated)
    outcomes = run_evss_batch(network, scenario=scenario, prefix=phase,
                              instances=instances)
    for b in instances:
        if not outcomes[b.iid].accepted:
            active.eliminate(b.dealer, EVSS_REJECTED)
    _record_eliminations(network, record_as, before, active)
    return outcomes


def _broadcast_rows(network, scenario, phase, live, rows, shapes):
    """One broadcast exchange of per-party stacks, one stack per part.

    rows: {party: [stack per part]}; shapes: each part's stack shape.
    A party broadcasts ("stm", (stack, ...)). Returns one word
    (len(live),) + shape per part; a party whose payload is missing or
    does not fit contributes zeros to every part.
    """
    outboxes = {j: [(BCAST, -1, ("stm", tuple(rows[j])))] for j in live}
    inboxes = network.exchange(phase, outboxes)

    stacks = tuple(Field(shape, scenario.p) for shape in shapes)
    got = {}
    for sender, (_, body) in tagged(inboxes[0], BCAST, ("stm", stacks)):
        if sender in live:
            got.setdefault(sender, body)
    zeros = [np.zeros(shape, dtype=np.int64) for shape in shapes]
    return [np.stack([got[j][k] if j in got else zero for j in live])
            for k, zero in enumerate(zeros)]


def _padded(values_by_party, roster, zero):
    """Shares over the roster with missing or discarded entries zeroed."""
    return {i: zero if values_by_party.get(i) is None else values_by_party[i]
            for i in roster}


def _combine(holdings, origins, hpub, shape, p):
    """hpub-weighted sum of one party's held values, missing -> 0."""
    held = _padded(holdings, origins, np.zeros(shape, dtype=np.int64))
    flat = np.stack(list(held.values())).reshape(len(origins), -1)
    return mat_mul(hpub.T, flat, p).reshape((hpub.shape[1],) + tuple(shape))


def shares_times_matrix(network, scenario, phase, active, parts, e_max):
    """Publicly compute [x_origin1 .. x_originK] . hpub for every part,
    all parts in one broadcast.

    parts: [(holdings, origins, hpub, degree, shape)]. holdings:
    {party: {origin: shape ndarray}} with each party's value of the
    origin polynomial at its own point; absent entries enter the sum
    as zero. hpub: (len(origins), k). Returns one (k,) + shape result
    per part, the same for every honest party. Each part's word is
    decoded once at the part's degree (an error belongs to its sender's
    row); one further than e_max rows from a codeword aborts with
    DecodingFailure, and fewer than
    degree + 1 + 2 e_max live parties with TooFewSurvivors. A
    corrected row eliminates nobody: its sender is recorded as a
    ("correct", phase, party) event.
    """
    p = scenario.p
    live = active.active
    shapes = []
    for holdings, origins, hpub, _, shape in parts:
        if hpub.shape[0] != len(origins):
            raise ParameterViolation("one hpub row per origin required")
        shapes.append((hpub.shape[1],) + tuple(shape))
    rows = {j: [_combine(holdings.get(j, {}), origins, hpub, shape, p)
                for holdings, origins, hpub, _, shape in parts]
            for j in live}
    words = _broadcast_rows(network, scenario, phase, live, rows, shapes)
    out = []
    corrected = set()
    for (_, _, _, degree, _), word in zip(parts, words):
        active.require(degree + 1 + 2 * e_max)
        # (N, k, r, c) -> (N, k*r, c): MatPoly needs 3-D coefficients
        flat = word.reshape(len(live), -1, word.shape[-1])
        poly, errs = decode(degree, live, flat, e_max, p)
        # the constant term; c is trimmed, and an empty c sums to zero
        out.append(poly.c[:1].sum(axis=0).reshape(word.shape[1:]))
        corrected |= errs
    for party in sorted(corrected):
        network.transcript.add_event("correct", phase, int(party))
    return out


def subshare_of_shares(network, scenario, prefix, active, families):
    """Verified re-sharing of every active party's share of several F.

    families: [(tag, f_values, p_deg, zeta)], f_values {party: (r, c)
    ndarray} holding F(alpha_party) for a polynomial of degree p_deg.
    For every family each live party deals
    Q_n(x) = F(alpha_n) + R_1 x^zeta + ... + R_t x^(zeta+t-1) through
    EVSS. Families of one (zeta, value shape) share a batch, and the
    batches run in order of first appearance; a batch of one family
    runs on <tag>:q. Dealers a batch rejects are eliminated at once
    and deal in no later batch. Then one broadcast on <prefix>:syn
    carries, for every family, the syndrome of the constant vector
    (Q_1(0), ..) against the degree-p_deg code over the survivors
    (computed with shares_times_matrix); each syndrome is decoded and
    every error position is eliminated with BadSubshareValue. Returns
    ([{origin: SubshareBundle} per family], active); each bundle keeps
    every party's g polynomial of the origin's deal for
    verify_gap_form, and the polynomial Q_n the origin dealt.
    """
    s, p, t = scenario, scenario.p, scenario.t
    shapes = [np.shape(vals[active.active[0]]) for _, vals, _, _ in families]
    groups = {}
    for fx, (_, _, _, zeta) in enumerate(families):
        groups.setdefault((zeta, shapes[fx]), []).append(fx)

    bundles = [{} for _ in families]
    for (zeta, shape), members in groups.items():
        live = active.active
        lab = ShareLabel(1, t, zeta - 1)
        owner = {}
        instances = []
        for fx in members:
            tag, f_values = families[fx][:2]
            for n in live:
                iid = f"q{n:03d}" if len(members) == 1 \
                    else f"q{n:03d}f{fx:02d}"
                rng = rng_for(s.seed, n, f"{tag}:q")
                q = make_share_poly(FMatrix(np.asarray(f_values[n]), p),
                                    lab, rng)
                owner[iid] = (fx, n, q)
                instances.append(BatchInstance(
                    iid, n, lab, evss_deal_poly(q, lab, rng)))
        tag = families[members[0]][0]
        outcomes = _deal_batch(network, s, f"{tag}:q", active,
                               instances, tag)
        zero = np.zeros(shape, dtype=np.int64)
        for iid, (fx, n, q) in owner.items():
            res = outcomes[iid]
            vals = {j: zero if res.shares[j] is None else res.shares[j]
                    for j in live}
            bundles[fx][n] = SubshareBundle(n, vals, zeta, res.g, q)

    live = active.active
    before = set(active.eliminated)
    budget = active.budget(t)
    by_degree, codes, parts = {}, [], []
    for fx, (_, _, p_deg, zeta) in enumerate(families):
        if len(live) < p_deg + 1:
            raise TooFewSurvivors(
                f"{len(live)} surviving parties cannot fix degree {p_deg}")
        if p_deg not in by_degree:
            by_degree[p_deg] = build_code(live, range(p_deg + 1), p)
        code = by_degree[p_deg]
        if code.H.shape[0]:
            holdings = {j: {n: bundles[fx][n].values[j] for n in live}
                        for j in live}
            codes.append(code)
            parts.append((holdings, live, code.H.T.copy(), zeta + t - 1,
                          shapes[fx]))
    errs = set()
    if parts:
        syns = shares_times_matrix(network, s, f"{prefix}:syn", active,
                                   parts, budget)
        for code, syn in zip(codes, syns):
            if not syn.any():
                continue
            found = syndrome_decode(code, syn, budget)
            if found is None:
                raise DecodingFailure(
                    "subshare constants beyond the error budget")
            errs |= set(found)
    for pt in sorted(errs):
        active.eliminate(int(pt), BAD_SUBSHARE)
    _record_eliminations(network, prefix, before, active)
    return bundles, active


def _open_cross(network, scenario, phase, active, parts):
    """Open weighted cross values on `phase` (see the module docstring).

    parts: [(gs, weights, degree, shape)], gs one {party: g_i
    coefficients or None} per polynomial dealt at label degree
    `degree`, weights (k, degree+1) applied to each g_i (missing -> 0).
    Each polynomial's k rows are decoded as one word with budget
    min(active.budget(t), (len(live) - degree - 1) // 2). Once all
    decode, corrected senders are eliminated with BadSubshareValue; a
    word beyond its budget raises DecodingFailure and blames nobody,
    and fewer than degree + 1 live parties raise TooFewSurvivors.
    Returns, per part, the (k,) + shape constant of each polynomial.
    """
    p = scenario.p
    live = active.active
    if not parts:
        return []
    active.require(max(degree for _, _, degree, _ in parts) + 1)
    rows = {i: [] for i in live}
    for gs, weights, _, shape in parts:
        k, d1 = weights.shape
        # g[i, o] = party i's g for polynomial o; np.array copies once
        zero = np.zeros((d1,) + shape, dtype=np.int64)
        g = np.array([[zero if held.get(i) is None else held[i]
                       for held in gs] for i in live])
        out = mat_mul(weights, np.moveaxis(g, 2, 0).reshape(d1, -1), p)
        out = np.moveaxis(out.reshape((k, len(live), len(gs)) + shape), 0, 2)
        for ix, i in enumerate(live):
            rows[i].append(out[ix].reshape((len(gs) * k,) + shape))
    words = _broadcast_rows(
        network, scenario, phase, live, rows,
        [(len(gs) * w.shape[0],) + shape for gs, w, _, shape in parts])

    budget = active.budget(scenario.t)
    consts, errs = [], set()
    for (gs, weights, degree, shape), word in zip(parts, words):
        k = weights.shape[0]
        e_max = min(budget, (len(live) - degree - 1) // 2)
        blocks = word.reshape((len(live), len(gs), k * shape[0]) + shape[1:])
        consts.append([])
        for ox in range(len(gs)):
            poly, found = decode(degree, live, blocks[:, ox], e_max, p)
            # the constant term; c is trimmed, and an empty c sums to zero
            consts[-1].append(poly.c[:1].sum(axis=0).reshape((k,) + shape))
            errs |= found
    for pt in sorted(errs):
        active.eliminate(int(pt), BAD_SUBSHARE)
    return consts


def verify_gap_form(network, scenario, prefix, active, families):
    """Check each origin's subshare polynomial for its interior zero run.

    families: [{origin: SubshareBundle}] from one subshare_of_shares
    call; families without a gap (zeta < 2) are skipped, and nothing
    runs when none is left. Otherwise each live party broadcasts on
    <prefix>:par coefficients 1..zeta-1 of the g it holds from every
    checked origin's deal; each word opens at degree zeta+t-1 to a gap
    coefficient of the origin's subshare, and a nonzero one eliminates
    the origin with BadGapForm. Returns the updated ActiveSet.
    """
    t = scenario.t
    live = active.active
    checks, parts = [], []
    for bundles in families:
        checked = [o for o in live if o in bundles]
        if not checked or bundles[checked[0]].zeta < 2:
            continue
        zeta = bundles[checked[0]].zeta
        shape = next(iter(bundles[checked[0]].values.values())).shape
        parts.append(([bundles[o].g for o in checked],
                      np.eye(zeta + t, dtype=np.int64)[1:zeta],
                      zeta + t - 1, shape))
        checks.append(checked)

    before = set(active.eliminated)
    consts = _open_cross(network, scenario, f"{prefix}:par", active, parts)
    for checked, const in zip(checks, consts):
        for o, gap in zip(checked, const):
            if gap.any():
                active.eliminate(o, BAD_GAP)
    _record_eliminations(network, prefix, before, active)
    return active


def eval_shared_poly(network, scenario, phase, active, polys):
    """Everyone learns Q(target) for several EVSS-dealt Q, in one
    broadcast on `phase`; polys: [(g, degree, shape, target)], g the
    {party: g_i coefficients} of Q's accepted deal at label degree
    `degree`. Returns each (r, c) value Q(target), in order.
    """
    parts = [([g], vandermonde([target], degree + 1, scenario.p), degree,
              shape) for g, degree, shape, target in polys]
    return [const[0][0] for const in
            _open_cross(network, scenario, phase, active, parts)]
