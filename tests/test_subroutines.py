"""Verification subroutines: public products, verified subsharing,
gap-form checks, and shared-polynomial evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compc.errors import (DecodingFailure, ParameterViolation,
                          TooFewSurvivors)
from compc.evss import evss_deal_poly
from compc.gf import FMatrix
from compc.net import AdversaryController, Network, Scenario, Transcript
from compc.poly import MatPoly, horner
from compc.sharing import ShareLabel, make_share_poly
from compc.subroutines import (ActiveSet, BAD_GAP, BAD_SUBSHARE,
                               EVSS_REJECTED, SubshareBundle,
                               eval_shared_poly, shares_times_matrix,
                               subshare_of_shares, verify_gap_form)


def scen(n, t, p=97, seed=0, adversaries=(), m=1, z=2):
    return Scenario(n=n, t=t, m=m, p=p, seed=seed, z=z, program=(),
                    adversaries=adversaries, inputs=()).validate()


def net_for(s):
    return Network(s, Transcript())


def rand_poly(rng, degree, shape, p):
    return rng.integers(0, p, size=(degree + 1,) + shape)


def shares_of(coeffs, live, p):
    return {n: horner(coeffs, [n], p)[0] for n in live}


def honest_bundles(live, f_vals, zeta, t, p, seed=11):
    """Subshare bundles dealt through real bivariates, bypassing the
    network: recipient j holds f_j(0) and the coefficients of g_j."""
    lab = ShareLabel(1, t, zeta - 1)
    out = {}
    for n in live:
        rng = np.random.default_rng(seed + n)
        q = make_share_poly(FMatrix(f_vals[n], p), lab, rng)
        deal = evss_deal_poly(q, lab, rng)
        pairs = {j: deal.polys_for(j) for j in live}
        out[n] = SubshareBundle(n, {j: f[0] for j, (f, _) in pairs.items()},
                                zeta, {j: g for j, (_, g) in pairs.items()}, q)
    return out


def stm(net, s, active, holdings, hpub):
    """One (1, 1) part of degree 0 at budget 1 through
    shares_times_matrix."""
    return shares_times_matrix(net, s, "p", active,
                               [(holdings, s.workers, hpub, 0, (1, 1))],
                               1)[0]


def subshare(net, s, active, f_vals, p_deg, zeta):
    """One family through subshare_of_shares: (its bundles, active)."""
    bundles, active = subshare_of_shares(net, s, "sub", active,
                                         [("sub", f_vals, p_deg, zeta)])
    return bundles[0], active


def dealt_g(fc, degree, live, p, seed=0):
    """(g polynomials per party, EvssDeal) of an EVSS deal of the
    polynomial with coefficients fc at label degree `degree`, bypassing
    the network."""
    deal = evss_deal_poly(MatPoly(fc, p), ShareLabel(degree + 1, 0),
                          np.random.default_rng(seed))
    return {j: deal.polys_for(j)[1] for j in live}, deal


def evaluate(net, s, active, g, degree, target):
    """One dealt polynomial through eval_shared_poly."""
    shape = next(iter(g.values())).shape[1:]
    return eval_shared_poly(net, s, "ev", active,
                            [(g, degree, shape, target)])[0]


def sent_rows(transcript, phase):
    """Each sender's stacks on one stm broadcast phase."""
    return {e.sender: e.payload[1] for e in transcript.envelopes
            if e.phase == phase}


def parity_rows(transcript):
    """Each sender's rows of the one gapped family checked."""
    return {i: rows[0] for i, rows in sent_rows(transcript, "gap:par").items()}


# ---------------------------------------------------------------------------
# ActiveSet


def test_active_set_order_and_monotone_reasons():
    a = ActiveSet((1, 2, 3, 4, 5))
    assert a.active == (1, 2, 3, 4, 5)
    a.eliminate(3, BAD_SUBSHARE)
    a.eliminate(3, BAD_GAP)            # first reason sticks
    a.eliminate(5, EVSS_REJECTED)
    assert a.active == (1, 2, 4)
    assert a.eliminated == {3: BAD_SUBSHARE, 5: EVSS_REJECTED}
    assert a.budget(2) == 0
    with pytest.raises(ParameterViolation):
        a.eliminate(1, "NotAReason")
    with pytest.raises(ParameterViolation):
        a.eliminate(9, BAD_GAP)
    a.require(3)
    with pytest.raises(TooFewSurvivors):
        a.require(4)


# ---------------------------------------------------------------------------
# shares_times_matrix


def stm_setup(p=7, n=4, t=1, adversaries=(), values=(1, 2, 3, 4), seed=0):
    s = scen(n, t, p=p, adversaries=adversaries, seed=seed)
    net = net_for(s)
    active = ActiveSet(s.workers)
    holdings = {j: {i: np.array([[v]], dtype=np.int64)
                    for i, v in zip(s.workers, values)}
                for j in s.workers}
    return s, net, active, holdings


def test_stm_known_sum():
    # constants (1,2,3,4) against an all-ones column: 10 mod 7
    s, net, active, holdings = stm_setup()
    hpub = np.ones((4, 1), dtype=np.int64)
    out = stm(net, s, active, holdings, hpub)
    assert out.shape == (1, 1, 1) and out[0, 0, 0] == 3


def test_stm_zero_matrix_zero_output():
    s, net, active, holdings = stm_setup(
        adversaries=((2, "RandomByzantine"),))
    hpub = np.zeros((4, 2), dtype=np.int64)
    out = stm(net, s, active, holdings, hpub)
    assert not out.any()


@pytest.mark.parametrize("strategy", ["Silent", "RandomByzantine"])
def test_stm_bad_rows_corrected(strategy):
    for seed in range(4):
        s, net, active, holdings = stm_setup(
            adversaries=((3, strategy),), seed=seed)
        hpub = np.ones((4, 1), dtype=np.int64)
        out = stm(net, s, active, holdings, hpub)
        assert out[0, 0, 0] == 3


def test_stm_too_many_bad_rows_aborts():
    # two parties hold garbage at budget 1: nothing decodes
    s, net, active, holdings = stm_setup()
    holdings[2] = {i: np.array([[5]], dtype=np.int64) for i in s.workers}
    holdings[3] = {i: np.array([[2]], dtype=np.int64) for i in s.workers}
    hpub = np.ones((4, 1), dtype=np.int64)
    with pytest.raises(DecodingFailure):
        stm(net, s, active, holdings, hpub)


def test_stm_row_liars_not_eliminated():
    # a corrected row names its sender in a "correct" event, and the
    # sender stays active; every honest row is 1+2+3+4 = 3 mod 7
    named = 0
    for seed in range(6):
        s, net, active, holdings = stm_setup(
            adversaries=((3, "RandomByzantine"),), seed=seed)
        hpub = np.ones((4, 1), dtype=np.int64)
        assert stm(net, s, active, holdings, hpub)[0, 0, 0] == 3
        sent = {e.sender: e.payload[1][0] for e in net.transcript.envelopes}
        lied = 3 not in sent or sent[3][0, 0, 0] != 3
        assert net.transcript.events == ([("correct", "p", 3)] if lied
                                         else [])
        assert active.eliminated == {}
        named += lied
    assert named


def test_stm_parts_share_one_broadcast():
    # two parts of different shapes and degrees: one round, one
    # envelope per party, one result per part
    s, net, active, holdings = stm_setup()
    wide = {j: {i: np.full((2, 3), i, dtype=np.int64) for i in s.workers}
            for j in s.workers}
    out = shares_times_matrix(
        net, s, "p", active,
        [(holdings, s.workers, np.ones((4, 1), dtype=np.int64), 0, (1, 1)),
         (wide, s.workers, np.eye(4, dtype=np.int64)[:, :2], 0, (2, 3))],
        1)
    assert net.round == 1 and len(net.transcript.envelopes) == 4
    assert out[0].shape == (1, 1, 1) and out[0][0, 0, 0] == 3
    assert out[1].shape == (2, 2, 3)
    assert (out[1][0] == 1).all() and (out[1][1] == 2).all()


def test_stm_part_wider_than_max_dim():
    # the decoded constant is read from the coefficient array, so a
    # part may have more rows than an FMatrix allows (gf.MAX_DIM = 64)
    s = scen(4, 1, p=97)
    net = net_for(s)
    rng = np.random.default_rng(15)
    vals = {i: rng.integers(0, 97, size=(65, 1)) for i in s.workers}
    holdings = {j: dict(vals) for j in s.workers}
    out = shares_times_matrix(
        net, s, "p", ActiveSet(s.workers),
        [(holdings, s.workers, np.ones((4, 1), dtype=np.int64), 0,
          (65, 1))], 1)[0]
    assert out.shape == (1, 65, 1)
    assert np.array_equal(out[0], sum(vals.values()) % 97)


# ---------------------------------------------------------------------------
# subshare_of_shares


def test_subshare_honest_bundles_interpolate():
    s = scen(5, 1, p=97)
    net = net_for(s)
    active = ActiveSet(s.workers)
    rng = np.random.default_rng(8)
    fc = rand_poly(rng, 2, (2, 2), s.p)
    f_vals = shares_of(fc, s.workers, s.p)
    bundles, active = subshare(net, s, active, f_vals, 2, 2)
    assert active.eliminated == {}
    for n in s.workers:
        b = bundles[n]
        assert b.q.degree <= 2
        # reconstruct Q_n and check constant and gap coefficient
        pts = list(s.workers)
        from compc.poly import interpolate
        q = interpolate(pts, [b.values[j] for j in pts], s.p)
        assert q.degree <= 2
        assert np.array_equal(q.coeff(0).a, f_vals[n])
        assert not q.coeff(1).a.any()


def test_subshare_wrong_constant_eliminated():
    s = scen(5, 1, p=97, adversaries=((3, "WrongSubshareConstant"),))
    net = net_for(s)
    active = ActiveSet(s.workers)
    rng = np.random.default_rng(9)
    fc = rand_poly(rng, 2, (2, 2), s.p)
    f_vals = shares_of(fc, s.workers, s.p)
    bundles, active = subshare(net, s, active, f_vals, 2, 2)
    assert active.eliminated == {3: BAD_SUBSHARE}
    # honest origins unaffected
    from compc.poly import interpolate
    for n in (1, 2, 4, 5):
        q = interpolate(list(s.workers),
                        [bundles[n].values[j] for j in s.workers], s.p)
        assert np.array_equal(q.coeff(0).a, f_vals[n])


@pytest.mark.parametrize("strategy,reason", [
    ("InconsistentEvssDealer", EVSS_REJECTED),
    ("Silent", EVSS_REJECTED),
])
def test_subshare_rejected_dealer_eliminated(strategy, reason):
    s = scen(5, 1, p=97, seed=4, adversaries=((2, strategy),))
    net = net_for(s)
    active = ActiveSet(s.workers)
    rng = np.random.default_rng(10)
    fc = rand_poly(rng, 2, (2, 2), s.p)
    f_vals = shares_of(fc, s.workers, s.p)
    bundles, active = subshare(net, s, active, f_vals, 2, 2)
    assert active.eliminated == {2: reason}
    assert not any(bundles[2].values[j].any() for j in s.workers)


def test_subshare_families_share_batches_and_one_syndrome_round():
    # families of one (zeta, shape) share an EVSS batch; every family's
    # syndrome rides the one :syn broadcast
    s = scen(5, 1, p=97)
    net = net_for(s)
    rng = np.random.default_rng(16)
    polys = [rand_poly(rng, 2, shape, s.p)
             for shape in ((2, 2), (2, 2), (2, 2), (1, 2))]
    zetas = (2, 1, 2, 2)
    families = [(f"sub:f{k}", shares_of(fc, s.workers, s.p), 2, zeta)
                for k, (fc, zeta) in enumerate(zip(polys, zetas))]
    bundles, active = subshare_of_shares(net, s, "sub",
                                         ActiveSet(s.workers), families)
    assert active.eliminated == {}
    phases = [e.phase for e in net.transcript.envelopes]
    deals = sorted({ph for ph in phases if ph.endswith(":deal")})
    assert deals == ["sub:f0:q:deal", "sub:f1:q:deal", "sub:f3:q:deal"]
    syn = [e for e in net.transcript.envelopes if e.phase == "sub:syn"]
    assert len(syn) == 5 and len({e.round for e in syn}) == 1
    assert all(len(e.payload[1]) == 4 for e in syn)
    assert net.round == 3 * 3 + 1
    from compc.poly import interpolate
    for fc, zeta, bnd in zip(polys, zetas, bundles):
        for n in s.workers:
            q = interpolate(list(s.workers),
                            [bnd[n].values[j] for j in s.workers], s.p)
            assert np.array_equal(q.coeff(0).a, horner(fc, [n], s.p)[0])
            assert all(not q.coeff(e).a.any() for e in range(1, zeta))


def test_subshare_rejected_dealer_deals_no_later_batch():
    s = scen(5, 1, p=97, seed=4, adversaries=((2, "InconsistentEvssDealer"),))
    net = net_for(s)
    rng = np.random.default_rng(17)
    families = [(f"sub:f{k}", shares_of(rand_poly(rng, 2, (2, 2), s.p),
                                        s.workers, s.p), 2, zeta)
                for k, zeta in enumerate((2, 1))]
    bundles, active = subshare_of_shares(net, s, "sub",
                                         ActiveSet(s.workers), families)
    assert active.eliminated == {2: EVSS_REJECTED}
    assert 2 in bundles[0] and 2 not in bundles[1]
    senders = {ph: {e.sender for e in net.transcript.envelopes
                    if e.phase == ph}
               for ph in ("sub:f0:q:deal", "sub:f1:q:deal")}
    assert 2 in senders["sub:f0:q:deal"]
    assert 2 not in senders["sub:f1:q:deal"]


def test_subshare_deterministic_transcript():
    outs = []
    for _ in range(2):
        s = scen(5, 1, p=97, seed=6,
                 adversaries=((4, "RandomByzantine"),))
        net = net_for(s)
        active = ActiveSet(s.workers)
        fc = rand_poly(np.random.default_rng(2), 2, (1, 1), s.p)
        subshare(net, s, active,
                 shares_of(fc, s.workers, s.p), 2, 2)
        outs.append(net.transcript.serialize())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# verify_gap_form


def test_gap_form_honest_retains_everyone():
    s = scen(5, 1, p=97)
    net = net_for(s)
    active = ActiveSet(s.workers)
    rng = np.random.default_rng(3)
    f_vals = shares_of(rand_poly(rng, 2, (2, 2), s.p), s.workers, s.p)
    bundles = honest_bundles(s.workers, f_vals, 2, s.t, s.p)
    active = verify_gap_form(net, s, "gap", active, [bundles])
    assert active.eliminated == {}
    # one broadcast: every party sends 3 parity rows per origin, nonzero
    assert net.round == 1
    rows = parity_rows(net.transcript)
    assert sorted(rows) == list(s.workers)
    assert all(r.shape == (5 * 3, 2, 2) and r.any() for r in rows.values())


def test_gap_form_no_gap_is_a_noop():
    s = scen(4, 1, p=97)
    net = net_for(s)
    active = ActiveSet(s.workers)
    f_vals = shares_of(rand_poly(np.random.default_rng(1), 1, (1, 1), s.p),
                       s.workers, s.p)
    bundles = honest_bundles(s.workers, f_vals, 1, s.t, s.p)
    active = verify_gap_form(net, s, "gap", active, [bundles])
    assert net.round == 0 and active.eliminated == {}


def test_gap_form_bad_origin_eliminated():
    # adversary deals a consistent subshare with a nonzero gap slot
    s = scen(5, 1, p=97, adversaries=((2, "BadGapCoefficient"),))
    net = net_for(s)
    active = ActiveSet(s.workers)
    rng = np.random.default_rng(5)
    f_vals = shares_of(rand_poly(rng, 2, (2, 2), s.p), s.workers, s.p)
    bundles, active = subshare(net, s, active, f_vals, 2, 2)
    assert active.eliminated == {}     # constants are right, EVSS accepts
    active = verify_gap_form(net, s, "gap", active, [bundles])
    assert active.eliminated == {2: BAD_GAP}


@pytest.mark.parametrize("strategy", ["Silent", "RandomByzantine"])
def test_gap_form_lying_parity_sender_blamed_not_origin(strategy):
    # honest bundles; party 4 withholds or perturbs its parity rows
    clean = scen(5, 1, p=97)
    rng = np.random.default_rng(6)
    f_vals = shares_of(rand_poly(rng, 2, (2, 2), 97), clean.workers, 97)
    bundles = honest_bundles(clean.workers, f_vals, 2, 1, 97)
    net = net_for(clean)
    verify_gap_form(net, clean, "gap", ActiveSet(clean.workers),
                    [bundles])
    truth = parity_rows(net.transcript)[4]
    blamed = 0
    for seed in range(6):
        s = scen(5, 1, p=97, seed=seed, adversaries=((4, strategy),))
        net = net_for(s)
        active = verify_gap_form(net, s, "gap", ActiveSet(s.workers),
                                 [bundles])
        sent = parity_rows(net.transcript).get(4)
        lied = sent is None or not np.array_equal(sent, truth)
        assert active.eliminated == ({4: BAD_SUBSHARE} if lied else {})
        blamed += lied
    assert blamed


def test_gap_form_bad_origin_blamed_next_to_lying_row():
    # t=2: origin 2 deals a gap violation through EVSS, then party 5
    # withholds its parity rows; each is blamed for its own fault
    s = scen(8, 2, p=97, seed=3, adversaries=((2, "BadGapCoefficient"),))
    net = net_for(s)
    rng = np.random.default_rng(13)
    f_vals = shares_of(rand_poly(rng, 2, (2, 2), s.p), s.workers, s.p)
    bundles, active = subshare(net, s, ActiveSet(s.workers), f_vals,
                               2, 2)
    assert active.eliminated == {}
    s2 = scen(8, 2, p=97, seed=3, adversaries=((2, "BadGapCoefficient"),
                                               (5, "Silent")))
    net.adversary = AdversaryController(s2)
    active = verify_gap_form(net, s2, "gap", active, [bundles])
    assert active.eliminated == {2: BAD_GAP, 5: BAD_SUBSHARE}


def test_gap_form_beyond_budget_aborts_without_blame():
    # two parties lost their g polynomials at budget 1: nothing decodes
    s = scen(5, 1, p=97)
    net = net_for(s)
    rng = np.random.default_rng(14)
    f_vals = shares_of(rand_poly(rng, 2, (2, 2), s.p), s.workers, s.p)
    bundles = honest_bundles(s.workers, f_vals, 2, s.t, s.p)
    for b in bundles.values():
        del b.g[3], b.g[4]
    active = ActiveSet(s.workers)
    with pytest.raises(DecodingFailure):
        verify_gap_form(net, s, "gap", active, [bundles])
    assert active.eliminated == {}


def test_gap_coefficient_strategy_honest_without_gap():
    # nothing to corrupt when the label carries no gap
    s = scen(4, 1, p=97, adversaries=((2, "BadGapCoefficient"),))
    net = net_for(s)
    active = ActiveSet(s.workers)
    f_vals = shares_of(rand_poly(np.random.default_rng(4), 1, (1, 1), s.p),
                       s.workers, s.p)
    bundles, active = subshare(net, s, active, f_vals, 1, 1)
    active = verify_gap_form(net, s, "gap", active, [bundles])
    assert active.eliminated == {}


# ---------------------------------------------------------------------------
# eval_shared_poly


def test_eval_known_line():
    # Q = 2 + 2y over GF(7): Q(5) = 12 mod 7, in one broadcast in which
    # party i sends S(alpha_i, 5) = f_5(alpha_i) of the known bivariate
    s = scen(4, 1, p=7)
    net = net_for(s)
    fc = np.array([2, 2], dtype=np.int64).reshape(2, 1, 1)
    g, deal = dealt_g(fc, 1, s.workers, s.p)
    out = evaluate(net, s, ActiveSet(s.workers), g, 1, 5)
    assert out.shape == (1, 1) and out[0, 0] == 5
    assert net.round == 1
    f5 = deal.polys_for(5)[0]
    for i, (row,) in sent_rows(net.transcript, "ev").items():
        assert np.array_equal(row, horner(f5, [i], s.p))


def test_eval_constant_any_target():
    s = scen(4, 1, p=97)
    fc = np.full((1, 1, 1), 3, dtype=np.int64)
    g, _ = dealt_g(fc, 0, s.workers, s.p)
    for target in (0, 1, 42):
        out = evaluate(net_for(s), s, ActiveSet(s.workers), g, 0, target)
        assert out[0, 0] == 3


def test_eval_byzantine_broadcaster_unchanged():
    # the value is right whatever party 2 sends; a row off the word
    # (perturbed or withheld) is corrected and eliminates its sender
    rng = np.random.default_rng(12)
    fc = rand_poly(rng, 1, (2, 2), 97)
    expect = horner(fc, [9], 97)[0]
    g, deal = dealt_g(fc, 1, range(1, 5), 97)
    truth = horner(deal.polys_for(9)[0], [2], 97)
    blamed = 0
    for seed in range(6):
        s = scen(4, 1, p=97, seed=seed,
                 adversaries=((2, "RandomByzantine"),))
        net = net_for(s)
        active = ActiveSet(s.workers)
        assert np.array_equal(evaluate(net, s, active, g, 1, 9), expect)
        sent = sent_rows(net.transcript, "ev").get(2)
        lied = sent is None or not np.array_equal(sent[0], truth)
        assert active.eliminated == ({2: BAD_SUBSHARE} if lied else {})
        blamed += lied
    assert blamed


def test_eval_requires_enough_active_parties():
    # two survivors cannot fix degree 2: refused before any broadcast
    s = scen(4, 1, p=97)
    net = net_for(s)
    active = ActiveSet(s.workers)
    active.eliminate(1, EVSS_REJECTED)
    active.eliminate(2, EVSS_REJECTED)
    fc = rand_poly(np.random.default_rng(0), 2, (1, 1), s.p)
    g, _ = dealt_g(fc, 2, s.workers, s.p)
    with pytest.raises(TooFewSurvivors):
        evaluate(net, s, active, g, 2, 3)
    assert net.round == 0


def test_eval_too_few_survivors_after_rejection():
    # an EVSS batch rejects dealer 2; the three survivors still fix
    # degree 2 but refuse degree 3
    s = scen(4, 1, p=97, adversaries=((2, "InconsistentEvssDealer"),))
    net = net_for(s)
    f_vals = shares_of(rand_poly(np.random.default_rng(1), 1, (1, 1), s.p),
                       s.workers, s.p)
    _, active = subshare(net, s, ActiveSet(s.workers), f_vals, 1, 1)
    assert active.eliminated == {2: EVSS_REJECTED}
    fc = rand_poly(np.random.default_rng(2), 3, (1, 1), s.p)
    g, _ = dealt_g(fc[:3], 2, s.workers, s.p)
    assert np.array_equal(evaluate(net, s, active, g, 2, 7),
                          horner(fc[:3], [7], s.p)[0])
    g, _ = dealt_g(fc, 3, s.workers, s.p)
    with pytest.raises(TooFewSurvivors):
        evaluate(net, s, active, g, 3, 7)


def test_eval_budget_shrinks_below_the_threshold():
    # degree 2 over 4 parties leaves no room for a correction at t = 1:
    # an honest word decodes exactly, a withheld row aborts unblamed
    fc = rand_poly(np.random.default_rng(3), 2, (1, 2), 97)
    g, _ = dealt_g(fc, 2, range(1, 5), 97)
    s = scen(4, 1, p=97)
    assert np.array_equal(evaluate(net_for(s), s, ActiveSet(s.workers),
                                   g, 2, 5), horner(fc, [5], 97)[0])
    s = scen(4, 1, p=97, adversaries=((4, "Silent"),))
    active = ActiveSet(s.workers)
    with pytest.raises(DecodingFailure):
        evaluate(net_for(s), s, active, g, 2, 5)
    assert active.eliminated == {}


# ---------------------------------------------------------------------------
# pipeline properties


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(1, 3),
       st.integers(0, 2))
def test_honest_pipeline_property(seed, t, zeta, p_deg):
    n = max(2 * t + p_deg + 1, 3 * t + zeta, 3 * t + 1, p_deg + 2)
    s = scen(n, t, p=97, seed=seed)
    net = net_for(s)
    active = ActiveSet(s.workers)
    rng = np.random.default_rng(seed)
    fc = rand_poly(rng, p_deg, (2, 1), s.p)
    f_vals = shares_of(fc, s.workers, s.p)
    bundles, active = subshare(net, s, active, f_vals, p_deg, zeta)
    active = verify_gap_form(net, s, "gap", active, [bundles])
    assert active.eliminated == {}
    # every origin's subshare Q_o at one target, from the g polynomials
    # its EVSS deal left, in one broadcast
    target = int(rng.integers(0, s.p))
    rounds = net.round
    out = eval_shared_poly(net, s, "ev", active, [
        (bundles[o].g, zeta + t - 1, (2, 1), target) for o in s.workers])
    assert net.round == rounds + 1 and active.eliminated == {}
    for o, value in zip(s.workers, out):
        assert np.array_equal(value, bundles[o].q.eval_many([target])[0])


def test_adversarial_pipeline_never_eliminates_honest():
    cases = [("WrongSubshareConstant", 3), ("BadGapCoefficient", 2),
             ("InconsistentEvssDealer", 5), ("Silent", 1),
             ("RandomByzantine", 4), ("SemiHonest", 2),
             ("FalseComplainer", 3)]
    for strategy, who in cases:
        for seed in range(3):
            s = scen(5, 1, p=97, seed=seed, adversaries=((who, strategy),))
            net = net_for(s)
            active = ActiveSet(s.workers)
            fc = rand_poly(np.random.default_rng(seed + 50), 2, (2, 2), s.p)
            f_vals = shares_of(fc, s.workers, s.p)
            bundles, active = subshare(net, s, active, f_vals, 2, 2)
            active = verify_gap_form(net, s, "gap", active, [bundles])
            assert set(active.eliminated) <= {who}, (strategy, seed)
