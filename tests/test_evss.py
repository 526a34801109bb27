"""Verifiable sharing: state machine, batch runner, and their agreement.

The state-machine tests drive EvssParty instances (evss_machine.py,
the reference for run_evss_batch) through a scripted router with an
optional tamper hook standing in for the adversary. The batch runner
is then cross-validated by replaying its wire transcript into the
state machine and demanding identical verdicts and shares.
"""

from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import compc.evss
from compc.errors import ParameterViolation
from compc.evss import (BatchInstance, EvssDeal, _pair_form,
                        complaints_for, evss_deal, evss_deal_poly,
                        reveals_for, run_evss_batch, vote_for)
from compc.gf import FMatrix, solve_particular
from compc.net import BCAST, PRIV, Network, Scenario, Transcript, rng_for
from compc.poly import MatPoly, horner, vandermonde
from compc.sharing import ShareLabel, make_share_poly
from evss_machine import EvssMsg, EvssParty, evss_finalize, evss_round

P = 97


def fit_poly(points, values, degree, p):
    """Least-degree fit oracle; None when the values are inconsistent."""
    v = vandermonde(points, degree + 1, p)
    flat = np.stack([np.asarray(x) for x in values]).reshape(len(points), -1)
    sol = solve_particular(v, flat, p)
    if sol is None:
        return None
    return sol.reshape((degree + 1,) + np.asarray(values[0]).shape)


def rand_matrix(rng, rows, cols, p=P):
    return FMatrix(rng.integers(0, p, size=(rows, cols)), p)


def grid_value(deal, x, y):
    """S(x, y) summed term by term from the coefficient grid."""
    p = deal.p
    acc = np.zeros(deal.shape, dtype=np.int64)
    for a in range(deal.d1):
        for b in range(deal.d1):
            w = pow(x, a, p) * pow(y, b, p) % p
            acc = (acc + deal.grid[a, b] * w) % p
    return acc


# ---------------------------------------------------------------------------
# dealing


def test_deal_structure_and_crosspoints():
    rng = np.random.default_rng(7)
    lab = ShareLabel(2, 1, 1)
    w = rand_matrix(rng, 2, 4)
    deal = evss_deal(w, lab, np.random.default_rng(3))
    assert deal.d1 == lab.degree + 1 == 4
    q = deal.grid[0]
    assert np.array_equal(q[0], w.a[:, :2])
    assert np.array_equal(q[1], w.a[:, 2:])
    assert not q[2].any()          # the gap slot
    for i in range(1, 8):
        fc, gc = deal.polys_for(i)
        assert np.array_equal(fc[0], horner(q, [i], P)[0])
        for j in range(1, 8):
            assert np.array_equal(horner(fc, [j], P)[0],
                                  grid_value(deal, j, i))
            assert np.array_equal(horner(gc, [j], P)[0],
                                  grid_value(deal, i, j))


def test_deal_poly_degree_bound():
    q = MatPoly(np.arange(8, dtype=np.int64).reshape(4, 2, 1), P)
    with pytest.raises(ParameterViolation):
        evss_deal_poly(q, ShareLabel(1, 1, 0), np.random.default_rng(0))


def test_deal_rng_draw_order():
    # masks first (one call per level), then the full grid in one call
    class Scripted:
        def __init__(self, vals):
            self.vals = list(vals)

        def integers(self, lo, hi, size=None):
            n = int(np.prod(size))
            out = np.array(self.vals[:n], dtype=np.int64).reshape(size)
            del self.vals[:n]
            return out

    lab = ShareLabel(1, 1, 0)
    w = FMatrix(np.array([[4]]), 5)
    rng = Scripted([2, 9, 9, 3, 1])      # R, discarded row 0, s10, s11
    deal = evss_deal(w, lab, rng)
    assert np.array_equal(deal.grid.reshape(2, 2),
                          np.array([[4, 2], [3, 1]]))


# ---------------------------------------------------------------------------
# decision rules


def _pair_for(deal, i):
    return deal.polys_for(i)


def test_complaints_missing_and_mismatched_senders():
    # party 2 holds instances "a" and "b", dealt by neither it nor any j
    # below, and sent j the points (f_2(a_j), g_2(a_j)) of both; an
    # honest j sends it back (g_2(a_j), f_2(a_j)) = (S(a_2, a_j),
    # S(a_j, a_2)), here in the order ("b", "a") to exercise the
    # alignment, and in the sent order from 4
    deals = [evss_deal(FMatrix(np.array([[w]]), P), ShareLabel(1, 1, 0),
                       np.random.default_rng(w)) for w in (5, 6)]
    held, others = ("a", "b"), (1, 3, 4)
    sent = {j: (held,) + tuple(np.stack([horner(d.polys_for(2)[c], [j], P)[0]
                                         for d in deals]) for c in (0, 1))
            for j in others}

    def stack(j, iids):
        ds = [deals[held.index(iid)] for iid in iids]
        return (iids, np.stack([grid_value(d, 2, j) for d in ds]),
                np.stack([grid_value(d, j, 2) for d in ds]))

    good = {j: stack(j, ("b", "a") if j != 4 else held) for j in others}
    assert complaints_for(sent, good) == []
    bad = dict(good)
    del bad[1]                      # 1 sent nothing
    bad[3] = stack(3, ("b",))       # 3 lacks "a"
    iids, us, vs = bad[4]           # 4's value for "b" is off
    us = us.copy()
    us[iids.index("b")] = (us[iids.index("b")] + 1) % P
    bad[4] = (iids, us, vs)
    got = complaints_for(sent, bad)
    assert [(iid, j) for iid, j, _, _ in got] == \
        [("a", 1), ("a", 3), ("b", 1), ("b", 4)]
    for iid, j, cu, cv in got:
        fc, gc = deals[held.index(iid)].polys_for(2)
        assert np.array_equal(cu, horner(fc, [j], P)[0])
        assert np.array_equal(cv, horner(gc, [j], P)[0])
        assert cu.base is None and cv.base is None    # copies, not views
    # points from j on instances the party sent j none of (here: 3
    # dealt both) are never read, however wrong
    iids, us, vs = good[3]
    del sent[3]
    assert complaints_for(sent, {**good, 3: (iids, (us + 1) % P, vs)}) == []


def test_reveals_only_for_wrong_claims_and_self():
    deal = evss_deal(FMatrix(np.array([[5]]), P), ShareLabel(1, 1, 0),
                     np.random.default_rng(2))
    right = (grid_value(deal, 3, 2), grid_value(deal, 2, 3))
    wrong = ((grid_value(deal, 3, 4) + 1) % P, grid_value(deal, 4, 3))
    ans = reveals_for(deal, {1}, {(2, 3): right, (4, 3): wrong})
    assert sorted(ans) == [1, 4]
    assert np.array_equal(ans[4][0], deal.polys_for(4)[0])


def test_vote_rules():
    deal = evss_deal(FMatrix(np.array([[9]]), P), ShareLabel(1, 1, 0),
                     np.random.default_rng(3))
    polys = _pair_for(deal, 1)
    cross = {j: (grid_value(deal, 1, j), grid_value(deal, j, 1)) for j in (2, 3, 4)}

    # no complaints that matter, everything consistent
    ok, _ = vote_for(1, polys, cross, set(), {}, {}, P)
    assert ok

    # unanswered self-complaint blocks
    ok, _ = vote_for(1, polys, cross, {3}, {}, {}, P)
    assert not ok
    # answered self-complaint with a consistent reveal passes
    ok, _ = vote_for(1, polys, cross, {3}, {}, {3: deal.polys_for(3)}, P)
    assert ok

    # bidirectional pair, mutually consistent claims: false accusation
    c23 = (grid_value(deal, 3, 2), grid_value(deal, 2, 3))
    c32 = (grid_value(deal, 2, 3), grid_value(deal, 3, 2))
    ok, _ = vote_for(1, polys, cross, set(), {(2, 3): c23, (3, 2): c32},
                     {}, P)
    assert ok
    # mutually inconsistent claims, nothing revealed: withhold
    c32_bad = ((grid_value(deal, 2, 3) + 1) % P, grid_value(deal, 3, 2))
    clash = {(2, 3): c23, (3, 2): c32_bad}
    ok, _ = vote_for(1, polys, cross, set(), clash, {}, P)
    assert not ok
    # same clash but one side revealed consistently: pair rule is off
    ok, _ = vote_for(1, polys, cross, set(), clash, {3: deal.polys_for(3)},
                     P)
    assert ok

    # reveal conflicting with own pair
    rf, rg = deal.polys_for(3)
    ok, _ = vote_for(1, polys, cross, {3}, {}, {3: ((rf + 1) % P, rg)}, P)
    assert not ok

    # own reveal: adopted, vote iff it matches crosses
    mine = deal.polys_for(1)
    ok, adopted = vote_for(1, None, cross, {1}, {}, {1: mine}, P)
    assert ok and adopted is mine
    ok, _ = vote_for(1, None, cross, {1}, {},
                     {1: ((mine[0] + 1) % P, mine[1])}, P)
    assert not ok


# ---------------------------------------------------------------------------
# state machine end to end


def run_machine(n, t, label, shape, p, dealer, deal, tamper=None):
    ids = sorted(set(range(1, n + 1)) | {dealer})
    parties = {i: EvssParty(i, dealer, n, t, label, shape, p,
                            deal=deal if i == dealer else None)
               for i in ids}
    pending = []
    sent = []
    for rnd in range(6):
        inboxes = {i: [] for i in ids}
        for msg in pending:
            if msg.channel == PRIV:
                if msg.body[0] in inboxes:
                    inboxes[msg.body[0]].append(msg)
            else:
                for i in ids:
                    inboxes[i].append(msg)
        pending = []
        for i in ids:
            _, out = evss_round(parties[i], inboxes[i])
            if tamper is not None:
                out = tamper(rnd, i, out)
            pending.extend(out)
            sent.extend(out)
    return {i: evss_finalize(parties[i]) for i in ids}, parties, sent


def check_shares_form_secret(verdicts, label, w, n, p):
    pts = list(range(1, n + 1))
    vals = [verdicts[i].share for i in pts]
    assert all(v is not None for v in vals)
    coeffs = fit_poly(pts, vals, label.degree, p)
    assert coeffs is not None
    m = label.m
    assert np.array_equal(coeffs[:m].transpose(1, 0, 2).reshape(w.shape[0], -1),
                          w.a)
    assert not coeffs[m:label.mask_lo].any()


@pytest.mark.parametrize("m,t,delta", [(1, 1, 0), (2, 1, 0), (1, 2, 1)])
def test_machine_honest_accepts_with_minimum_messages(m, t, delta):
    n = 3 * t + m + delta + 1
    lab = ShareLabel(m, t, delta)
    rng = np.random.default_rng(17)
    w = rand_matrix(rng, 2 * m, 2 * m)
    deal = evss_deal(w, lab, rng)
    verdicts, _, sent = run_machine(n, t, lab, (2 * m, 2), P, 1, deal)
    assert all(v.accepted for v in verdicts.values())
    check_shares_form_secret(verdicts, lab, w, n, P)
    # early accept: deals + crosses only, and no cross message has the
    # dealer at either end
    assert len(sent) == (n - 1) + (n - 1) * (n - 2)


def test_machine_external_source_dealer():
    n, t = 4, 1
    lab = ShareLabel(1, 1, 0)
    rng = np.random.default_rng(5)
    w = rand_matrix(rng, 2, 2)
    deal = evss_deal(w, lab, rng)
    verdicts, _, _ = run_machine(n, t, lab, (2, 2), P, n + 1, deal)
    assert all(v.accepted for v in verdicts.values())
    assert verdicts[n + 1].share is None
    check_shares_form_secret({i: verdicts[i] for i in range(1, n + 1)},
                             lab, w, n, P)


def test_machine_byzantine_crosses_and_false_complaint_still_accept():
    n, t, bad = 5, 1, 3
    lab = ShareLabel(2, 1, 0)
    rng = np.random.default_rng(23)
    w = rand_matrix(rng, 2, 2)
    deal = evss_deal(w, lab, rng)

    def tamper(rnd, sender, out):
        if sender != bad:
            return out
        if rnd == 1:    # garbage cross values
            return [EvssMsg("cross", sender, PRIV,
                            (m.body[0], (m.body[1] + 11) % P,
                             (m.body[2] + 29) % P)) for m in out]
        if rnd == 2:    # false accusation against party 1, wrong claims
            fc, gc = deal.polys_for(bad)
            return [EvssMsg("complain", sender, BCAST,
                            (False, {1: ((horner(fc, [1], P)[0] + 1) % P,
                                         horner(gc, [1], P)[0])}))]
        return out

    verdicts, _, _ = run_machine(n, t, lab, (2, 1), P, 1, deal, tamper)
    honest = [i for i in range(1, n + 1) if i != bad]
    assert all(verdicts[i].accepted for i in honest)
    pts = honest
    coeffs = fit_poly(pts, [verdicts[i].share for i in pts], lab.degree, P)
    assert coeffs is not None


def test_machine_silent_dealer_rejected_unanimously():
    n, t = 4, 1
    lab = ShareLabel(1, 1, 0)
    rng = np.random.default_rng(31)
    deal = evss_deal(rand_matrix(rng, 2, 2), lab, rng)

    def tamper(rnd, sender, out):
        return [] if sender == 1 and rnd in (0, 3) else out

    verdicts, _, _ = run_machine(n, t, lab, (2, 2), P, 1, deal, tamper)
    assert not any(v.accepted for v in verdicts.values())


def test_machine_two_faced_dealer_agreement():
    # dealer 1 deals from a second grid to parties 4 and 5
    n, t = 5, 1
    lab = ShareLabel(1, 1, 0)
    rng = np.random.default_rng(41)
    deal = evss_deal(rand_matrix(rng, 2, 2), lab, rng)
    other = evss_deal(rand_matrix(rng, 2, 2), lab, rng)

    def tamper(rnd, sender, out):
        if sender == 1 and rnd == 0:
            fresh = []
            for m in out:
                if m.body[0] in (4, 5):
                    fc, gc = other.polys_for(m.body[0])
                    m = EvssMsg("deal", sender, PRIV, (m.body[0], fc, gc))
                fresh.append(m)
            return fresh
        return out

    verdicts, _, _ = run_machine(n, t, lab, (2, 2), P, 1, deal, tamper)
    flags = {verdicts[i].accepted for i in range(1, n + 1)}
    assert flags == {False}


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 2), st.integers(0, 2), st.integers(0, 1),
       st.integers(0, 10 ** 6))
def test_machine_honest_property(m, t, delta, seed):
    n = 3 * t + m + delta + 1
    lab = ShareLabel(m, t, delta)
    rng = np.random.default_rng(seed)
    w = rand_matrix(rng, m, m)
    deal = evss_deal(w, lab, rng)
    verdicts, _, _ = run_machine(n, t, lab, (m, 1), P, 1, deal)
    assert all(v.accepted for v in verdicts.values())
    check_shares_form_secret(verdicts, lab, w, n, P)


# ---------------------------------------------------------------------------
# batch runner


def batch_scenario(n=5, t=1, m=1, p=P, seed=0, z=2, adversaries=(),
                   inputs=()):
    return Scenario(n=n, t=t, m=m, p=p, seed=seed, z=z, program=(),
                    adversaries=adversaries, inputs=inputs).validate()


def fresh_net(scenario):
    return Network(scenario, Transcript())


def test_batch_honest_multi_dealer_early_accept():
    rng = np.random.default_rng(3)
    s = batch_scenario(inputs=(rand_matrix(rng, 2, 2),))
    net = fresh_net(s)
    lab = ShareLabel(1, 1, 0)
    deals = {}
    instances = []
    for iid, dealer in (("a", 2), ("b", 4), ("c", 6)):   # 6 is a source
        deals[iid] = evss_deal(rand_matrix(rng, 2, 2), lab,
                               rng_for(s.seed, dealer, f"x:{iid}"))
        instances.append(BatchInstance(iid, dealer, lab, deals[iid]))
    out = run_evss_batch(net, scenario=s, prefix="x", instances=instances)
    assert net.round == 3          # deal, cross, complain only
    for iid, res in out.items():
        assert res.accepted
        for i in s.workers:
            expect = horner(deals[iid].grid[0], [i], s.p)[0]
            assert np.array_equal(res.shares[i], expect)
    # nobody complains, so only deal and cross traffic exists
    phases = {e.phase for e in net.transcript.envelopes}
    assert phases == {"x:deal", "x:cross"}


def test_batch_validates_instances():
    s = batch_scenario()
    net = fresh_net(s)
    lab = ShareLabel(1, 1, 0)
    rng = np.random.default_rng(0)
    d1 = evss_deal(rand_matrix(rng, 2, 2), lab, rng)
    d2 = evss_deal(rand_matrix(rng, 2, 1), lab, rng)
    with pytest.raises(ParameterViolation):
        run_evss_batch(net, scenario=s, prefix="x",
                       instances=[BatchInstance("a", 1, lab, d1),
                                  BatchInstance("a", 2, lab, d1)])
    with pytest.raises(ParameterViolation):
        run_evss_batch(net, scenario=s, prefix="x",
                       instances=[BatchInstance("a", 1, lab, d1),
                                  BatchInstance("b", 2, lab, d2)])


class OneBadRow:
    """Sets one row of dealer 2's deal stack for party 3 to p, which is
    outside the field, and passes every other message on unchanged."""

    def __init__(self, p):
        self.p = p

    def filter(self, ctx, outboxes):
        if ctx["phase"].endswith(":deal"):
            fresh = []
            for channel, to, (tag, iids, fs, gs) in outboxes[2]:
                if to == 3:
                    fs = fs.copy()
                    fs[0, 0] = self.p
                fresh.append((channel, to, (tag, iids, fs, gs)))
            outboxes[2] = fresh
        return outboxes


def test_batch_drops_a_malformed_deal_stack_whole():
    s = batch_scenario()
    net = fresh_net(s)
    net.adversary = OneBadRow(s.p)
    lab = ShareLabel(1, 1, 0)
    rng = np.random.default_rng(12)
    instances = [BatchInstance(iid, 2, lab,
                               evss_deal(rand_matrix(rng, 2, 2), lab, rng))
                 for iid in ("a", "b")]
    run_evss_batch(net, scenario=s, prefix="x", instances=instances)
    # party 3 holds neither instance, so it complains about both itself
    said = [e.payload[1] for e in net.transcript.envelopes
            if e.phase == "x:complain" and e.sender == 3]
    assert said == [("a", "b")]


class DropDealSpoilReveal:
    """Drops dealer 2's deal stack to party 3, so party 3 self-complains
    and dealer 2 reveals party 3's pairs; with `spoil`, sets one entry
    of the pair revealed for instance "a" to p, outside the field."""

    def __init__(self, p, spoil):
        self.p, self.spoil = p, spoil

    def filter(self, ctx, outboxes):
        if ctx["phase"].endswith(":deal"):
            outboxes[2] = [s for s in outboxes[2] if s[1] != 3]
        if self.spoil and ctx["phase"].endswith(":resolve"):
            fresh = []
            for channel, to, (tag, items) in outboxes[2]:
                items = tuple((iid, who, rf.copy() if iid == "a" else rf, rg)
                              for iid, who, rf, rg in items)
                for iid, _, rf, _ in items:
                    if iid == "a":
                        rf[0, 0, 0] = self.p
                fresh.append((channel, to, (tag, items)))
            outboxes[2] = fresh
        return outboxes


@pytest.mark.parametrize("spoil", [False, True])
def test_batch_validates_each_reveal_once(spoil, monkeypatch):
    s = batch_scenario()
    evr_form = ("evr", [(str, int) + _pair_form(2, (2, 2), s.p)])
    checked = []
    real = compc.net._fits
    monkeypatch.setattr(
        compc.net, "_fits",
        lambda obj, form: (form != evr_form or checked.append(obj)
                           or real(obj, form)))
    net = fresh_net(s)
    net.adversary = DropDealSpoilReveal(s.p, spoil)
    lab = ShareLabel(1, 1, 0)
    rng = np.random.default_rng(14)
    instances = [BatchInstance(iid, 2, lab,
                               evss_deal(rand_matrix(rng, 2, 2), lab, rng))
                 for iid in ("a", "b")]
    out = run_evss_batch(net, scenario=s, prefix="x", instances=instances)
    # one reveal payload per instance, each checked once for all voters
    assert len(checked) == 2
    # a malformed reveal payload is dropped whole: the self-complaint
    # stays unanswered and every party withholds, so only its instance
    # is rejected
    assert out["a"].accepted is not spoil
    assert out["b"].accepted and out["b"].shares[3] is not None
    votes = {e.sender: e.payload[1] for e in net.transcript.envelopes
             if e.phase == "x:vote"}
    assert all(bits == (("a", int(not spoil)), ("b", 1))
               for bits in votes.values())


def spoil_first_array(payload, spoil):
    """payload with its first array, in payload order, passed through
    spoil; whatever the layout, that is the first claimed value of a
    complaint broadcast."""
    done = []

    def walk(x):
        if isinstance(x, np.ndarray) and not done:
            done.append(x)
            return spoil(x)
        return tuple(map(walk, x)) if isinstance(x, tuple) else x
    return walk(payload)


class CrossCutClaim:
    """Drops the cross points between parties 2 and 3 both ways, so each
    complains about the other, and dealer 1's answers. Party 3's
    complaint broadcast goes out with its first claimed value passed
    through `spoil`, or not at all when spoil is None."""

    def __init__(self, spoil):
        self.spoil = spoil

    def filter(self, ctx, outboxes):
        phase = ctx["phase"]
        if phase.endswith(":cross"):
            for a, b in ((2, 3), (3, 2)):
                outboxes[a] = [x for x in outboxes[a] if x[1] != b]
        if phase.endswith(":complain"):
            outboxes[3] = [] if self.spoil is None else [
                (ch, to, spoil_first_array(pl, self.spoil))
                for ch, to, pl in outboxes[3]]
        if phase.endswith(":resolve"):
            outboxes[1] = []
        return outboxes


def test_complaint_claims_must_be_field_arrays(monkeypatch):
    """A complaint whose claim is not a field array (float64, or out of
    range) is dropped whole: the batch ends as if its sender had sent
    no complaint. (Read leniently, the claim would clash with party
    2's complaint about party 3, which the silent dealer never settles,
    and everyone would withhold.)"""
    seen = []
    real = compc.evss.reveals_for
    monkeypatch.setattr(compc.evss, "reveals_for",
                        lambda deal, selfs, claims:
                        seen.append(selfs | {c for c, _ in claims})
                        or real(deal, selfs, claims))

    def run(spoil):
        s = batch_scenario()
        net = fresh_net(s)
        net.adversary = CrossCutClaim(spoil)
        lab = ShareLabel(1, 1, 0)
        rng = np.random.default_rng(15)
        return run_evss_batch(net, scenario=s, prefix="x", instances=[
            BatchInstance("a", 1, lab, evss_deal(rand_matrix(rng, 2, 2), lab,
                                                 rng))])["a"]

    silent = run(None)
    assert silent.accepted
    for spoil in (lambda a: a.astype(np.float64),
                  lambda a: np.full_like(a, P)):
        spoiled = run(spoil)
        assert spoiled.accepted
        for i in (1, 2, 4, 5):
            assert np.array_equal(spoiled.shares[i], silent.shares[i])
    # party 3's complaint reached nobody; party 2's did
    assert [sorted(c) for c in seen] == [[2], [2], [2]]


class RevealForANonWorker:
    """Drops dealer 2's deal stack to party 3, so that dealer 2 reveals
    party 3's pair; with `who` set, also appends to that reveal a
    well-formed pair of random values addressed to `who`."""

    def __init__(self, who, pair):
        self.who, self.pair = who, pair

    def filter(self, ctx, outboxes):
        if ctx["phase"].endswith(":deal"):
            outboxes[2] = [s for s in outboxes[2] if s[1] != 3]
        if self.who is not None and ctx["phase"].endswith(":resolve"):
            outboxes[2] = [(ch, to, (tag, items + (("q", self.who)
                                                   + self.pair,)))
                           for ch, to, (tag, items) in outboxes[2]]
        return outboxes


@pytest.mark.parametrize("who", [0, 6, -3, 2 ** 40, 2 ** 70])
def test_reveals_for_non_workers_are_ignored(who):
    """A reveal item addressed to anyone outside the workers 1..5 is
    ignored by the batch and by the state machine alike: both end as in
    the same run without it. (Read, ids 0, 6 and -3 made every honest
    party withhold, and 2**70 raised OverflowError in vote_for.)"""
    s = batch_scenario()
    lab = ShareLabel(1, 1, 0)
    deal = evss_deal(rand_matrix(np.random.default_rng(16), 2, 2), lab,
                     np.random.default_rng(17))
    pair = tuple(np.random.default_rng(18).integers(0, P, size=(2, 2, 2, 2)))

    def run(who):
        net = fresh_net(s)
        net.adversary = RevealForANonWorker(who, pair)
        out = run_evss_batch(net, scenario=s, prefix="x", instances=[
            BatchInstance("q", 2, lab, deal)])["q"]
        sent = [it[1] for e in net.transcript.envelopes
                if e.phase == "x:resolve" for it in e.payload[1]]
        verdicts = replay_single_instance(
            net.transcript.envelopes, "q", s.n, s.t, lab, (2, 2), s.p, 2,
            deal)
        return out, verdicts, sent

    base, base_verdicts, _ = run(None)
    out, verdicts, sent = run(who)
    assert sent == [3, who]
    assert base.accepted and out.accepted
    for i in s.workers:
        assert np.array_equal(out.shares[i], base.shares[i])
        assert np.array_equal(out.g[i], base.g[i])
        assert verdicts[i].accepted == base_verdicts[i].accepted
        assert np.array_equal(verdicts[i].share, base_verdicts[i].share)
        assert np.array_equal(verdicts[i].share, out.shares[i])


def shift_f0(f):
    """f coefficients, one pair's (d+1, r, c) or a stack of them, with
    1 added to the constant coefficient f_0."""
    f = f.copy()
    f[..., 0, :, :] = (f[..., 0, :, :] + 1) % P
    return f


class OneVictimDealer:
    """Dealer 1 shifts f_0 of the pair it deals party `victim`, so that
    party alone holds a wrong share; with `answers` False it also
    leaves every complaint unanswered."""

    def __init__(self, victim, answers):
        self.victim, self.answers = victim, answers

    def filter(self, ctx, outboxes):
        if ctx["phase"].endswith(":deal"):
            outboxes[1] = [
                (ch, to, (tag, iids, shift_f0(fs), gs)) if to == self.victim
                else (ch, to, (tag, iids, fs, gs))
                for ch, to, (tag, iids, fs, gs) in outboxes[1]]
        if not self.answers and ctx["phase"].endswith(":resolve"):
            outboxes[1] = []
        return outboxes


def assert_rejected_or_fits(accepted, shares, label, honest):
    """AC03's outcome: the sharing is rejected, or every honest party
    holds a share and the shares fit one polynomial of the label's
    degree."""
    if accepted:
        vals = [shares[i] for i in honest]
        assert all(v is not None for v in vals)
        assert fit_poly(list(honest), vals, label.degree, P) is not None


@pytest.mark.parametrize("side", ["batch", "machine"])
@pytest.mark.parametrize("answers", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_victim_dealer_is_caught(side, answers, seed):
    """A dealer that shifts one honest party's f_0 cannot get that
    party's wrong share accepted, whether or not it answers the
    complaints; the victim's own cross check with each honest
    non-dealer is what catches it. (With only f_j(a_i) against
    g_i(a_j) compared, the victim sees nothing, and the batch and the
    machine accept the wrong share.)"""
    victim, honest = 3, (2, 3, 4, 5)
    lab = ShareLabel(1, 1, 0)
    rng = np.random.default_rng(seed)
    deal = evss_deal(rand_matrix(rng, 2, 2), lab, rng)
    s = batch_scenario(seed=seed)
    if side == "batch":
        net = fresh_net(s)
        net.adversary = OneVictimDealer(victim, answers)
        out = run_evss_batch(net, scenario=s, prefix="x", instances=[
            BatchInstance("q", 1, lab, deal)])["q"]
        accepted, shares = out.accepted, out.shares
    else:
        def tamper(rnd, sender, msgs):
            if sender == 1 and rnd == 0:
                return [m._replace(body=(victim, shift_f0(m.body[1]),
                                         m.body[2]))
                        if m.body[0] == victim else m for m in msgs]
            return [] if sender == 1 and rnd == 3 and not answers else msgs

        verdicts, _, _ = run_machine(s.n, s.t, lab, (2, 2), P, 1, deal,
                                     tamper)
        assert len({verdicts[i].accepted for i in honest}) == 1
        accepted = verdicts[victim].accepted
        shares = {i: verdicts[i].share for i in honest}
    assert_rejected_or_fits(accepted, shares, lab, honest)


def test_batch_deterministic_transcript():
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(9)
        s = batch_scenario(adversaries=((3, "RandomByzantine"),))
        net = fresh_net(s)
        lab = ShareLabel(1, 1, 0)
        instances = [
            BatchInstance(f"i{d}", d, lab,
                          evss_deal(rand_matrix(rng, 2, 2), lab,
                                    rng_for(s.seed, d, "x:deal")))
            for d in (1, 2, 3)]
        run_evss_batch(net, scenario=s, prefix="x", instances=instances)
        outs.append(net.transcript.serialize())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# batch runner vs state machine on identical wire traffic

KIND_BY_PHASE = {"deal": "deal", "cross": "cross", "complain": "complain",
                 "resolve": "reveal", "vote": "vote"}


def replay_single_instance(envelopes, iid, n, t, label, shape, p,
                           dealer, deal):
    """Feed a batch transcript through EvssParty instances."""
    rounds = {}
    for e in envelopes:
        kind = KIND_BY_PHASE[e.phase.rsplit(":", 1)[1]]
        body = None
        try:
            if kind == "deal":
                _, iids, fs, gs = e.payload
                if iid in iids:
                    k = iids.index(iid)
                    body = (e.recipient, fs[k], gs[k])
            elif kind == "cross":
                _, iids, us, vs = e.payload
                if iid in iids:
                    k = iids.index(iid)
                    body = (e.recipient, us[k], vs[k])
            elif kind == "complain":
                _, selfs, pairs = e.payload
                claims = {}
                for it in pairs:
                    if it[0] == iid:
                        claims.setdefault(it[1], it[2:])
                if iid in selfs or claims:
                    body = (iid in selfs, claims)
            elif kind == "reveal":
                items = tuple(it[1:] for it in e.payload[1] if it[0] == iid)
                body = items or None
            elif kind == "vote":
                bits = [it[1] for it in e.payload[1] if it[0] == iid]
                body = (bits[0],) if bits else None
        except (TypeError, ValueError, IndexError):
            continue
        if body is not None:
            rounds.setdefault(e.round, []).append(
                EvssMsg(kind, e.sender, e.channel, body))

    ids = sorted(set(range(1, n + 1)) | {dealer})
    parties = {i: EvssParty(i, dealer, n, t, label, shape, p,
                            deal=deal if i == dealer else None)
               for i in ids}
    for rnd in range(6):
        for i in ids:
            inbox = [m for m in rounds.get(rnd - 1, ())
                     if m.channel == BCAST or m.body[0] == i]
            evss_round(parties[i], inbox)
    return {i: evss_finalize(parties[i]) for i in ids}


CASES = [((2, "Silent"), 2), ((2, "InconsistentEvssDealer"), 2),
         ((2, "RandomByzantine"), 2), ((3, "RandomByzantine"), 1),
         ((2, "WrongSubshareConstant"), 2), (None, 1)]


@pytest.mark.parametrize("adversary,dealer", CASES)
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_batch_agrees_with_state_machine(adversary, dealer, seed):
    lab = ShareLabel(1, 1, 0)
    s = batch_scenario(n=4, t=1, m=1, p=13, seed=seed, z=2,
                       adversaries=(adversary,) if adversary else ())
    net = fresh_net(s)
    rng = np.random.default_rng(seed + 100)
    deal = evss_deal(rand_matrix(rng, 2, 2, 13), lab,
                     rng_for(s.seed, dealer, "x:deal"))
    # a ":q" prefix marks a subshare batch, where WrongSubshareConstant acts
    out = run_evss_batch(net, scenario=s, prefix="x:q", instances=[
        BatchInstance("q", dealer, lab, deal)])["q"]

    verdicts = replay_single_instance(
        net.transcript.envelopes, "q", s.n, s.t, lab, (2, 2), 13,
        dealer, deal)
    bad = adversary[0] if adversary else None
    for i in range(1, s.n + 1):
        assert verdicts[i].accepted == out.accepted
        if i == bad:
            continue    # a deviating dealer's own holdings may differ
        a, b = verdicts[i].share, out.shares[i]
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)


def test_batch_inconsistent_dealer_rejected():
    s = batch_scenario(n=4, t=1, m=1, p=P, seed=5, z=2,
                       adversaries=((2, "InconsistentEvssDealer"),))
    net = fresh_net(s)
    lab = ShareLabel(1, 1, 0)
    rng = np.random.default_rng(2)
    deal = evss_deal(rand_matrix(rng, 2, 2), lab, rng_for(s.seed, 2, "x:deal"))
    out = run_evss_batch(net, scenario=s, prefix="x",
                         instances=[BatchInstance("q", 2, lab, deal)])["q"]
    assert not out.accepted
    assert net.round == 5


# ---------------------------------------------------------------------------
# privacy: a single observer's view carries nothing about the secret


def test_single_view_distribution_independent_of_secret():
    # exhaustive over the dealer's state space at m=1, t=1, GF(5):
    # grid = [[w, R], [s10, s11]] with (R, s10, s11) free
    lab = ShareLabel(1, 1, 0)
    observer, others = 2, (1, 3, 4)
    dists = []
    for w in (0, 3):
        c = Counter()
        for r, s10, s11 in product(range(5), repeat=3):
            grid = np.array([[w, r], [s10, s11]],
                            dtype=np.int64).reshape(2, 2, 1, 1)
            deal = EvssDeal(grid, lab, 5)
            view = []
            fc, gc = deal.polys_for(observer)
            view += [int(x) for x in np.concatenate([fc, gc]).ravel()]
            for j in others:
                fj, gj = deal.polys_for(j)
                view.append(int(horner(fj, [observer], 5)[0][0, 0]))
                view.append(int(horner(gj, [observer], 5)[0][0, 0]))
            c[tuple(view)] += 1
        dists.append(c)
    assert dists[0] == dists[1]
    assert sum(dists[0].values()) == 5 ** 3
