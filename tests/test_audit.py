"""View-distribution audits: enumeration, factoring, and sampling.

Expected tables come from first principles frozen here: a masked
sharing seen by one worker is a bijection of the mask draws, so its
table must be uniform and secret-independent; with the masks zeroed
the view is the data itself and two secrets give disjoint single-point
tables. The product-round checks rest on the same bijection argument
per component, and both formula engines are cross-checked against the
real sharing and masking code paths on scripted draws so the audit
cannot drift from the protocol.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compc.audit import (LEAK_PRODUCT, LEAK_SOURCE, AuditTemplate, DistTable,
                         ScriptedRng, ViewRecord, enumerate_views,
                         monte_carlo_audit, product_round_audit, tv_distance,
                         view_of, _draw_count, _view_rows)
from compc.errors import ParameterViolation, SpaceTooLarge
from compc.evss import evss_deal_poly
from compc.gf import DEFAULT_PRIME, FMatrix, mat_mul, rref
from compc.mpc import ProgramOp, build_masks, mask_layout, masked_product
from compc.net import (BCAST, PRIV, Envelope, Network, Scenario,
                       Transcript)
from compc.poly import MatPoly, vandermonde
from compc.rscode import build_code
from compc.sharing import ShareLabel, make_share_poly
from compc.subroutines import ActiveSet, SubshareBundle, verify_gap_form

F0 = Fraction(0)
F1 = Fraction(1)


def table(subset, *pairs):
    return DistTable({ViewRecord(subset, key): prob for key, prob in pairs})


def sharing_tpl(m, cols=2, t=1, n=4, p=5, leak=""):
    return AuditTemplate("sharing", n, t, m, p, 1, cols, leak)


def product_tpl(cols, n=3, p=5, leak=""):
    return AuditTemplate("product-round", n, 1, 1, p, 1, cols, leak)


MUL_PROGRAM = (ProgramOp("share", (0, "direct"), "ra"),
               ProgramOp("share", (1, "reverse"), "rb"),
               ProgramOp("mul", ("ra", "rb"), "rc"),
               ProgramOp("reveal", ("rc",)))


class TestDistTables:
    def test_identical_tables_have_zero_distance(self):
        a = table((1,), (b"x", Fraction(1, 2)), (b"y", Fraction(1, 2)))
        assert tv_distance(a, a) == F0

    def test_disjoint_tables_have_distance_one(self):
        a = table((1,), (b"x", F1))
        b = table((1,), (b"y", F1))
        assert tv_distance(a, b) == F1

    def test_half_overlap(self):
        a = table((1,), (b"x", Fraction(1, 2)), (b"y", Fraction(1, 2)))
        b = table((1,), (b"x", Fraction(1, 2)), (b"z", Fraction(1, 2)))
        assert tv_distance(a, b) == Fraction(1, 2)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=5),
           st.lists(st.integers(1, 9), min_size=1, max_size=5))
    def test_distance_is_a_symmetric_unit_metric(self, wa, wb):
        a = table((1,), *((bytes([65 + i]), Fraction(w, sum(wa)))
                          for i, w in enumerate(wa)))
        b = table((1,), *((bytes([67 + i]), Fraction(w, sum(wb)))
                          for i, w in enumerate(wb)))
        d = tv_distance(a, b)
        assert d == tv_distance(b, a)
        assert F0 <= d <= F1
        assert a.total == b.total == F1

    def test_enumerated_probabilities_sum_to_one(self):
        tab = enumerate_views(sharing_tpl(1), FMatrix([[1, 2]], 5), (1,))
        assert tab.total == F1


class TestViewExtraction:
    def test_reads_only_addressed_and_broadcast_envelopes(self):
        tr = Transcript(envelopes=[
            Envelope(0, 2, PRIV, 1, "ph", ("for-one", 7)),
            Envelope(0, 2, PRIV, 3, "ph", ("for-three", 8)),
            Envelope(1, 4, BCAST, -1, "ph2", ("open", 9)),
        ])
        rec = view_of(tr, (1,))
        assert rec.subset == (1,)
        text = rec.messages.decode()
        assert "for-one" in text and "open" in text
        assert "for-three" not in text

    def test_same_transcript_same_bytes(self):
        tr = Transcript(envelopes=[
            Envelope(0, 1, PRIV, 2, "x", (np.arange(4).reshape(2, 2),)),
        ])
        assert view_of(tr, (2,)) == view_of(tr, (2,))


class TestSharingEnumeration:
    def test_single_mask_view_is_uniform_over_field(self):
        tab = enumerate_views(AuditTemplate("sharing", 4, 1, 1, 5, 1, 1),
                              FMatrix([[3]], 5), (1,))
        assert len(tab) == 5
        assert set(tab.values()) == {Fraction(1, 5)}

    def test_unmasked_sharing_is_a_single_point(self):
        tpl = AuditTemplate("sharing", 4, 0, 1, 5, 1, 2)
        tab = enumerate_views(tpl, FMatrix([[1, 2]], 5), (3,))
        assert len(tab) == 1 and tab.total == F1

    def test_non_recipient_sees_nothing(self):
        tab = enumerate_views(sharing_tpl(1), FMatrix([[1, 2]], 5), (0,))
        assert len(tab) == 1

    @pytest.mark.parametrize("m", [1, 2])
    def test_single_observer_tables_match_for_any_secret(self, m):
        x = FMatrix([[1, 2]], 5)
        y = FMatrix([[4, 0]], 5)
        for obs in range(1, 5):
            ta = enumerate_views(sharing_tpl(m), x, (obs,))
            tb = enumerate_views(sharing_tpl(m), y, (obs,))
            assert tv_distance(ta, tb) == F0

    def test_observer_pair_above_threshold_leaks(self):
        # two shares of a degree-1 polynomial pin the secret down
        x = FMatrix([[1, 2]], 5)
        y = FMatrix([[4, 0]], 5)
        ta = enumerate_views(sharing_tpl(1), x, (1, 2))
        tb = enumerate_views(sharing_tpl(1), y, (1, 2))
        assert tv_distance(ta, tb) > F0

    def test_zeroed_masks_separate_the_secrets_completely(self):
        x = FMatrix([[1, 2]], 5)
        y = FMatrix([[4, 0]], 5)
        ta = enumerate_views(sharing_tpl(1, leak=LEAK_SOURCE), x, (2,))
        tb = enumerate_views(sharing_tpl(1, leak=LEAK_SOURCE), y, (2,))
        assert len(ta) == 1 and len(tb) == 1
        assert tv_distance(ta, tb) == F1

    @pytest.mark.parametrize("m", [1, 2])
    def test_formula_matches_share_builder(self, m):
        rng = np.random.default_rng(7)
        tpl = sharing_tpl(m).validate()
        secret = FMatrix(rng.integers(0, 5, (1, 2)), 5)
        for _ in range(20):
            draw = rng.integers(0, 5, (1, _draw_count(tpl, (2,))))
            rows, _ = _view_rows(tpl, secret, (2,), draw)
            poly = make_share_poly(secret, ShareLabel(m, 1, 0),
                                   ScriptedRng(draw.ravel()))
            assert np.array_equal(rows[0], poly.eval_many([2])[0].ravel())

    def test_state_guard(self):
        tpl = AuditTemplate("sharing", 4, 1, 1, 5, 1, 24)
        with pytest.raises(SpaceTooLarge):
            enumerate_views(tpl, FMatrix(np.zeros((1, 24)), 5), (1,))

    def test_template_validation(self):
        with pytest.raises(ParameterViolation):
            AuditTemplate("mystery", 4, 1, 1, 5).validate()
        with pytest.raises(ParameterViolation):
            AuditTemplate("sharing", 4, 1, 2, 5, 1, 3).validate()
        with pytest.raises(ParameterViolation):
            AuditTemplate("sharing", 4, 1, 1, 5, leak=LEAK_PRODUCT).validate()
        with pytest.raises(ParameterViolation):
            AuditTemplate("product-round", 6, 1, 2, 7).validate()
        with pytest.raises(ParameterViolation):
            AuditTemplate("product-round", 3, 2, 1, 7).validate()
        with pytest.raises(ParameterViolation):
            AuditTemplate("sharing", 5, 1, 1, 5).validate()
        with pytest.raises(ParameterViolation):
            AuditTemplate("sharing", 4, 1, 1, 4294967311).validate()


class TestProductRoundEnumeration:
    def test_full_round_view_is_uniform_and_secret_free(self):
        tpl = product_tpl(1)
        pa = (FMatrix([[2]], 5), FMatrix([[3]], 5))
        pb = (FMatrix([[4]], 5), FMatrix([[1]], 5))
        ta = enumerate_views(tpl, pa, (1,))
        # every draw assignment gives a distinct view: the round is a
        # bijection of the eight mask scalars, hence uniform
        assert len(ta) == 5 ** 8
        assert set(ta.values()) == {Fraction(1, 5 ** 8)}
        tb = enumerate_views(tpl, pb, (1,))
        assert tv_distance(ta, tb) == F0

    def test_wide_secret_exceeds_enumeration(self):
        pair = (FMatrix([[1, 2]], 5), FMatrix([[3, 4]], 5))
        with pytest.raises(SpaceTooLarge):
            enumerate_views(product_tpl(2), pair, (1,))

    def test_master_sees_no_round_messages(self):
        pair = (FMatrix([[1]], 5), FMatrix([[2]], 5))
        tab = enumerate_views(product_tpl(1), pair, (0,))
        assert len(tab) == 1

    def test_formula_matches_builders_on_scripted_draws(self):
        rng = np.random.default_rng(11)
        tpl = product_tpl(2).validate()
        a = FMatrix(rng.integers(0, 5, (1, 2)), 5)
        b = FMatrix(rng.integers(0, 5, (1, 2)), 5)
        k = _draw_count(tpl, (1,))
        for _ in range(25):
            draw = rng.integers(0, 5, (1, k))
            rows, labels = _view_rows(tpl, (a, b), (1,), draw)
            got = dict(zip(labels, rows[0]))
            fa = make_share_poly(a, ShareLabel(1, 1, 0),
                                 ScriptedRng(draw[0, 0:2]))
            fb = make_share_poly(b, ShareLabel(1, 1, 0, "reverse"),
                                 ScriptedRng(draw[0, 2:4]))
            assert np.array_equal([got["a[1]0"], got["a[1]1"]],
                                  fa.eval_many([1])[0].ravel())
            assert np.array_equal([got["b[1]0"], got["b[1]1"]],
                                  fb.eval_many([1])[0].ravel())
            off = 4
            for w in (2, 3):
                sub_a = ScriptedRng(draw[0, off:off + 2])
                sub_b = ScriptedRng(draw[0, off + 2:off + 4])
                low = ScriptedRng([draw[0, off + 4]])
                off += 5
                qa = make_share_poly(FMatrix(fa.eval_many([w])[0], 5),
                                     ShareLabel(1, 1, 0), sub_a)
                qb = make_share_poly(FMatrix(fb.eval_many([w])[0], 5),
                                     ShareLabel(1, 1, 0), sub_b)
                cpoly = masked_product(qa, qb, build_masks(qa, qb, 1, 1, low), 1)
                assert cpoly.degree <= 1
                want = np.concatenate([qa.eval_many([1])[0].ravel(),
                                       qb.eval_many([1])[0].ravel(),
                                       cpoly.eval_many([1])[0].ravel()])
                keys = [f"qa[{w}->1]0", f"qa[{w}->1]1",
                        f"qb[{w}->1]0", f"qb[{w}->1]1", f"c[{w}->1]0"]
                assert np.array_equal([got[key] for key in keys], want)


class TestFactoredProductAudit:
    PAIRS = ((FMatrix([[1, 2]], 5), FMatrix([[3, 0]], 5)),
             (FMatrix([[0, 4]], 5), FMatrix([[2, 2]], 5)))

    def test_wide_secret_is_private(self):
        rep = product_round_audit(product_tpl(2), *self.PAIRS, observer=1)
        assert rep.tv == F0
        assert rep.kernels_match
        assert rep.source_states == 5 ** 4
        assert rep.kernel_conditionings == 5 ** 4

    def test_every_observer_is_blind(self):
        for obs in (1, 2, 3):
            rep = product_round_audit(product_tpl(2), *self.PAIRS, observer=obs)
            assert rep.tv == F0 and rep.kernels_match

    def test_agrees_with_full_enumeration_on_narrow_secret(self):
        pa = (FMatrix([[2]], 5), FMatrix([[3]], 5))
        pb = (FMatrix([[4]], 5), FMatrix([[1]], 5))
        rep = product_round_audit(product_tpl(1), pa, pb, observer=1)
        assert rep.tv == F0 and rep.kernels_match

    def test_zeroed_product_masks_break_the_kernel(self):
        tpl = product_tpl(2, leak=LEAK_PRODUCT)
        rep = product_round_audit(tpl, *self.PAIRS, observer=1)
        assert not rep.kernels_match
        assert rep.tv > F0

    def test_zeroed_source_masks_expose_the_inputs(self):
        tpl = product_tpl(2, leak=LEAK_SOURCE)
        rep = product_round_audit(tpl, *self.PAIRS, observer=1)
        assert rep.tv == F1
        assert rep.kernels_match

    def test_kernel_space_guard(self):
        pair_a = (FMatrix([[1, 2, 3]], 5), FMatrix([[3, 0, 1]], 5))
        pair_b = (FMatrix([[0, 4, 4]], 5), FMatrix([[2, 2, 0]], 5))
        with pytest.raises(SpaceTooLarge):
            product_round_audit(product_tpl(3), pair_a, pair_b, observer=1)

    def test_rejects_sharing_templates(self):
        with pytest.raises(ParameterViolation):
            product_round_audit(sharing_tpl(1), *self.PAIRS, observer=1)


class TestMonteCarlo:
    def test_requires_a_real_sample_size(self):
        x = FMatrix([[1, 2]], 5)
        with pytest.raises(ParameterViolation):
            monte_carlo_audit(sharing_tpl(1), (x, x), (1,), 999)

    def test_identical_secrets_stay_quiet(self):
        x = FMatrix([[1, 2]], 5)
        rep = monte_carlo_audit(sharing_tpl(1), (x, x), (1,), 2000, seed=3)
        assert rep.flags == ()
        assert rep.fields == 2

    def test_honest_sharing_stays_quiet(self):
        x = FMatrix([[1, 2]], 5)
        y = FMatrix([[4, 0]], 5)
        rep = monte_carlo_audit(sharing_tpl(1), (x, y), (1,), 2000, seed=3)
        assert rep.flags == ()

    def test_broken_sharing_is_flagged(self):
        x = FMatrix([[1, 2]], 5)
        y = FMatrix([[4, 0]], 5)
        tpl = sharing_tpl(1, leak=LEAK_SOURCE)
        rep = monte_carlo_audit(tpl, (x, y), (1,), 2000, seed=3)
        flagged = {key for key, _, _ in rep.flags}
        assert flagged == {"share[1]0", "share[1]1"}

    def test_scenario_sharing_stays_quiet(self):
        share = ProgramOp("share", (0, "direct"), "r0")
        s = Scenario(n=4, t=1, m=1, p=5, seed=1, z=1, program=(share,))
        xa = (FMatrix([[2]], 5),)
        xb = (FMatrix([[4]], 5),)
        rep = monte_carlo_audit(s, (xa, xb), (2,), 1000, seed=9)
        assert rep.flags == ()
        assert rep.fields > 0

    def test_master_reveal_depends_only_on_the_product(self):
        s = Scenario(n=4, t=1, m=1, p=5, seed=1, z=1, program=MUL_PROGRAM)
        pa = (FMatrix([[1]], 5), FMatrix([[2]], 5))
        pb = (FMatrix([[3]], 5), FMatrix([[4]], 5))   # 3*4 = 2 mod 5
        rep = monte_carlo_audit(s, (pa, pb), (0,), 1000, seed=5)
        assert rep.flags == ()
        assert rep.fields > 0

    def test_large_prime_sampling_stays_quiet(self):
        share = ProgramOp("share", (0, "direct"), "r0")
        s = Scenario(n=6, t=1, m=2, p=DEFAULT_PRIME, seed=1, z=2,
                     program=(share,))
        xa = (FMatrix([[1, 2], [3, 4]], DEFAULT_PRIME),)
        xb = (FMatrix([[9, 8], [7, 6]], DEFAULT_PRIME),)
        rep = monte_carlo_audit(s, (xa, xb), (2,), 10_000, seed=11)
        assert rep.flags == ()


def gap_view(n, t, m, p, secret, draws, leak):
    """Everything the gap check shows, for one honest origin (party 1).

    The origin deals Q(y) = F + R_1 y^m + ... + R_t y^(m+t-1) through
    the real dealing code on scripted draws (the t masks, then rows
    1..d of the bivariate; row 0 is Q), and a real verify_gap_form
    broadcasts the gap coefficients. Returns every worker's f and g
    coefficients, then every worker's broadcast rows, flattened. leak
    adds F to the first gap coefficient.
    """
    lab = ShareLabel(1, t, m - 1)
    d1 = lab.degree + 1
    q = make_share_poly(FMatrix([[secret]], p), lab, ScriptedRng(draws[:t]))
    coeffs = np.zeros((d1, 1, 1), dtype=np.int64)
    coeffs[:q.c.shape[0]] = q.c
    if leak:
        coeffs[1] = (coeffs[1] + secret) % p
    grid = np.concatenate([np.zeros(d1, dtype=np.int64), draws[t:]])
    dealt = MatPoly(coeffs, p)
    deal = evss_deal_poly(dealt, lab, ScriptedRng(grid))
    s = Scenario(n=n, t=t, m=m, p=p, seed=0, z=m, program=()).validate()
    pairs = [deal.polys_for(j) for j in s.workers]
    bundle = SubshareBundle(1, {j: f[0] for j, (f, _) in zip(s.workers, pairs)},
                            m, {j: g for j, (_, g) in zip(s.workers, pairs)},
                            dealt)
    net = Network(s, Transcript())
    verify_gap_form(net, s, "gap", ActiveSet(s.workers), [{1: bundle}])
    rows = [e.payload[1][0].ravel() for e in net.transcript.envelopes]
    assert len(rows) == n
    return np.concatenate([c.ravel() for pair in pairs for c in pair] + rows)


@lru_cache(maxsize=None)
def gap_map(n, t, m, p, leak):
    """(a, B) with gap_view(F, draws) = F a + B draws (mod p)."""
    d = m + t - 1
    k = t + d * (d + 1)
    a = gap_view(n, t, m, p, 1, np.zeros(k, dtype=np.int64), leak)
    b = np.stack([gap_view(n, t, m, p, 0, e, leak)
                  for e in np.eye(k, dtype=np.int64)], axis=1)
    return a, b


def observed(n, t, m, observers, vec):
    """The observers' own f and g, and every broadcast row."""
    width = 2 * (m + t)
    own = [vec[(i - 1) * width:i * width] for i in observers]
    return np.concatenate(own + [vec[n * width:]])


def gap_tv(n, t, m, p, observers, leak=False):
    """Exact TV distance between the views of two distinct secrets.

    The view is uniform on the coset F a + span(B), so the distance is
    0 when a lies in span(B) and 1 otherwise.
    """
    a, b = gap_map(n, t, m, p, leak)
    a, b = observed(n, t, m, observers, a), observed(n, t, m, observers, b)
    rank_b = len(rref(b, p)[1])
    return Fraction(int(len(rref(np.column_stack([b, a]), p)[1]) > rank_b))


GAP_SHAPES = [(7, 6, 1, 2), (DEFAULT_PRIME, 21, 2, 8),
              (DEFAULT_PRIME, 11, 2, 3)]


def gap_observer_sets(n, t):
    """Sets of t observers, never the origin (party 1)."""
    if t == 1:
        return [(i,) for i in range(2, n + 1)]
    return [(2, 3), (2, n), (n // 2, n // 2 + 1), (n - 1, n)]


@pytest.mark.parametrize("p,n,t,m", GAP_SHAPES)
def test_parity_rows_span_the_gap_coefficients(p, n, t, m):
    """Why broadcasting g_i's gap coefficients shows what the parity
    rows showed. The gap check used to send H·V applied to each g_i,
    with H the parity matrix of the code of polynomials supported on
    y^0 and y^m..y^(m+t-1) over the live points and V their Vandermonde
    matrix. H·V vanishes in exactly those columns and has rank m - 1,
    so its rows are M times the unit rows 1..m-1 sent now, with M of
    full column rank: the two views span the same space, and the
    parity checks vanish exactly when every gap coefficient does."""
    live = tuple(range(1, n + 1))
    h = build_code(live, (0,) + tuple(range(m, m + t)), p).H
    hv = mat_mul(h, vandermonde(live, m + t, p), p)
    assert hv.shape == (n - t - 1, m + t)
    assert not hv[:, 0].any() and not hv[:, m:].any()
    assert len(rref(hv, p)[1]) == len(rref(hv[:, 1:m], p)[1]) == m - 1


class TestGapParityAudit:
    """The gap check's broadcast of gap coefficients (`…:par`) hides the
    secret.

    Honest rows lie on a degree-d polynomial with a public zero
    constant, so they are not derivable from t observers' own inputs;
    what t observers see is still independent of the secret. The view
    is linear in the secret and the origin's draws, which makes a rank
    test exact at any prime; at p = 7 it is checked against a full
    enumeration of the 7^7 draw vectors.
    """

    @pytest.mark.parametrize("p,n,t,m", GAP_SHAPES)
    def test_view_is_linear_in_secret_and_draws(self, p, n, t, m):
        a, b = gap_map(n, t, m, p, False)
        rng = np.random.default_rng(n)
        for _ in range(2):
            secret = int(rng.integers(0, p))
            draws = rng.integers(0, p, size=b.shape[1])
            want = (mat_mul(b, draws[:, None], p)[:, 0] + secret * a) % p
            assert np.array_equal(gap_view(n, t, m, p, secret, draws, False),
                                  want)

    @pytest.mark.parametrize("p,n,t,m", GAP_SHAPES)
    def test_t_observers_learn_nothing(self, p, n, t, m):
        for observers in gap_observer_sets(n, t):
            assert gap_tv(n, t, m, p, observers) == F0, observers

    @pytest.mark.parametrize("p,n,t,m", GAP_SHAPES)
    def test_planted_gap_secret_leaks(self, p, n, t, m):
        for observers in gap_observer_sets(n, t):
            assert gap_tv(n, t, m, p, observers, leak=True) == F1, observers

    @pytest.mark.parametrize("p,n,t,m", GAP_SHAPES)
    def test_t_plus_one_observers_leak(self, p, n, t, m):
        assert gap_tv(n, t, m, p, tuple(range(2, t + 3))) == F1

    def test_enumeration_agrees_with_rank_test(self):
        p, n, t, m = GAP_SHAPES[0]
        k = t + (m + t - 1) * (m + t)
        draws = (np.arange(p ** k)[:, None] // p ** np.arange(k)) % p
        for leak in (False, True):
            a, b = gap_map(n, t, m, p, leak)
            a, b = observed(n, t, m, (4,), a), observed(n, t, m, (4,), b)
            base = draws @ b.T
            # each view row as two base-p integers, so rows sort fast
            digits = p ** np.arange(-(-len(a) // 2))
            half = len(digits)
            tables = []
            for f in (0, 3):
                rows = (base + f * a) % p
                keys = np.stack([rows[:, :half] @ digits,
                                 rows[:, half:] @ digits[:len(a) - half]], 1)
                tables.append(np.unique(keys, axis=0, return_counts=True))
            (va, ca), (vb, cb) = tables
            if leak:
                # disjoint supports: total variation distance 1
                both = np.concatenate([va, vb])
                assert len(np.unique(both, axis=0)) == len(va) + len(vb)
            else:
                assert np.array_equal(va, vb) and np.array_equal(ca, cb)


def mask_view(m, t, p, tops, draws, leak):
    """What every worker holds of one honest dealer's mask deals.

    The dealer's product has high coefficients `tops` (x^(m+t) and
    up): a_n = tops_1 x + .. and b_n = x^(m+t-1), so its product with
    b_n^T carries them at exactly those powers. The real build_masks
    draws the masks' uniform coefficients (the first (m+t-1)·t draws,
    zeroed by `leak`) and forms one polynomial per group, and the real
    dealing code embeds each group in a bivariate from the remaining
    draws (rows 1..D per group; row 0 is M_k).
    Returns, worker by worker, every group's f and g coefficients,
    flattened.
    """
    count = m + t - 1
    a_n = MatPoly(np.array([0] + list(tops)).reshape(-1, 1, 1), p)
    b_n = MatPoly(np.eye(count + 1, dtype=np.int64)[count].reshape(-1, 1, 1),
                  p)
    own = np.zeros(count * t, dtype=np.int64) if leak else draws[:count * t]
    groups = build_masks(a_n, b_n, m, t, ScriptedRng(own))
    lab = ShareLabel(mask_layout(m, t)[1], t)
    d1 = lab.degree + 1
    rest = draws[count * t:]
    per = d1 * (d1 - 1)
    assert len(rest) == per * len(groups)
    pairs = []
    for k, (_, poly) in enumerate(groups):
        grid = np.concatenate([np.zeros(d1, dtype=np.int64),
                               rest[k * per:(k + 1) * per]])
        deal = evss_deal_poly(poly, lab, ScriptedRng(grid))
        pairs.append([deal.polys_for(j) for j in range(1, 3 * t + 2 * m)])
    return np.concatenate([c.ravel() for j in range(3 * t + 2 * m - 1)
                           for group in pairs for c in group[j]])


def mask_draw_count(m, t):
    starts, size = mask_layout(m, t)
    d1 = size + t
    return ((m + t - 1) * t + len(starts) * d1 * (d1 - 1),
            len(starts) * 2 * d1)


@lru_cache(maxsize=None)
def mask_map(m, t, p, leak):
    """(A, B) with mask_view(tops, draws) = A tops + B draws (mod p)."""
    k, _ = mask_draw_count(m, t)
    dmax = m + t - 1
    zeros = np.zeros(k, dtype=np.int64)
    a = np.stack([mask_view(m, t, p, e, zeros, leak)
                  for e in np.eye(dmax, dtype=np.int64)], axis=1)
    b = np.stack([mask_view(m, t, p, [0] * dmax, e, leak)
                  for e in np.eye(k, dtype=np.int64)], axis=1)
    return a, b


def mask_observed(m, t, observers, mat):
    _, width = mask_draw_count(m, t)
    return np.concatenate([mat[(i - 1) * width:i * width] for i in observers])


def mask_private(m, t, p, observers, leak=False):
    """True iff the observers' view does not depend on the tops: it is
    uniform on the coset A tops + span(B), so this holds exactly when
    A's columns lie in span(B)."""
    a, b = (mask_observed(m, t, observers, x) for x in mask_map(m, t, p, leak))
    rank_b = len(rref(b, p)[1])
    return len(rref(np.column_stack([b, a]), p)[1]) == rank_b


MASK_SHAPES = [(7, 2, 1), (DEFAULT_PRIME, 2, 3)]


def mask_observer_sets(m, t):
    """Sets of t observers, never the dealer (party 1)."""
    n = 3 * t + 2 * m - 1
    if t == 1:
        return [(i,) for i in range(2, n + 1)]
    return [tuple(range(2, 2 + t)), tuple(range(n - t + 1, n + 1)),
            tuple(range(2, n + 1, (n - 2) // (t - 1)))[:t]]


class TestMaskGroupAudit:
    """The grouped mask deal (…mul:o) hides the dealer's product.

    Each group M_k = sum_l x^(l-a_k) O_l is dealt as one EVSS instance
    of degree D. The masks' top coefficients absorb the product's high
    coefficients, so what t observers hold of the deals (their f and g
    for every group) is linear in those coefficients and in the
    dealer's draws; a rank test decides exactly whether it depends on
    the product, and at p = 7 a full enumeration of the 7^8 draw
    vectors agrees.
    """

    @pytest.mark.parametrize("p,m,t", MASK_SHAPES)
    def test_view_is_linear_in_tops_and_draws(self, p, m, t):
        a, b = mask_map(m, t, p, False)
        k, _ = mask_draw_count(m, t)
        rng = np.random.default_rng(m + t)
        for _ in range(2):
            tops = rng.integers(0, p, size=m + t - 1)
            draws = rng.integers(0, p, size=k)
            want = (mat_mul(a, tops[:, None], p)[:, 0]
                    + mat_mul(b, draws[:, None], p)[:, 0]) % p
            assert np.array_equal(mask_view(m, t, p, tops, draws, False),
                                  want)

    @pytest.mark.parametrize("p,m,t", MASK_SHAPES)
    def test_t_observers_learn_nothing(self, p, m, t):
        for observers in mask_observer_sets(m, t):
            assert mask_private(m, t, p, observers), observers

    @pytest.mark.parametrize("p,m,t", MASK_SHAPES)
    def test_zeroed_uniform_coefficients_leak(self, p, m, t):
        for observers in mask_observer_sets(m, t):
            assert not mask_private(m, t, p, observers, leak=True), observers

    def test_enumeration_agrees_with_rank_test(self):
        p, m, t = MASK_SHAPES[0]
        k, width = mask_draw_count(m, t)
        assert p ** k < 2 ** 24
        lo = 6
        low = (np.arange(p ** lo)[:, None] // p ** np.arange(lo)) % p
        digits = p ** np.arange(width)
        tops = [np.zeros(m + t - 1, dtype=np.int64), np.array([3, 5])]
        for leak in (False, True):
            a, b = (mask_observed(m, t, (4,), x)
                    for x in mask_map(m, t, p, leak))
            counts = [np.zeros(p ** width, dtype=np.int64) for _ in tops]
            base_lo = low @ b[:, :lo].T
            for hi in range(p ** (k - lo)):
                high = (hi // p ** np.arange(k - lo)) % p
                base = base_lo + b[:, lo:] @ high
                for c, top in zip(counts, tops):
                    keys = ((base + a @ top) % p) @ digits
                    c += np.bincount(keys, minlength=p ** width)
            assert counts[0].sum() == counts[1].sum() == p ** k
            if leak:
                # disjoint supports: total variation distance 1
                assert not ((counts[0] > 0) & (counts[1] > 0)).any()
                assert not mask_private(m, t, p, (4,), leak=True)
            else:
                assert np.array_equal(counts[0], counts[1])
                assert mask_private(m, t, p, (4,))
