"""Multiplication, transforms, and program execution.

Expected values come from plain numpy modular arithmetic on the
secrets: a product check is always `(a @ b.T) % p` computed directly,
and block checks slice that product the same way the share layout
does. Protocol outputs are opened with the sharing module's
reconstructors, which have their own oracle-backed tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compc.errors import (CompcError, DegreeMismatch, ParameterViolation,
                          TooFewSurvivors)
import compc.net
from compc.gf import FMatrix, mat_mul
from compc.mpc import (ProgramOp, SharedMatrix, add_shares,
                       build_masks, direct_to_reverse, execute,
                       mask_layout, masked_product,
                       multiply_malicious, multiply_semi_honest,
                       recovery_threshold,
                       reverse_to_direct, transpose_shares)
from compc.net import (BCAST, PRIV, STRATEGY_NAMES, AdversaryController,
                       Network, Scenario, Strategy, Transcript, run_scenario)
from compc.poly import MatPoly, coeff_extraction_combo, horner, interpolate
from compc.sharing import (DIRECT, REVERSE, Share, ShareLabel,
                           make_share_poly, reconstruct, robust_reconstruct)
from compc.subroutines import (BAD_GAP, BAD_PRODUCT, BAD_SUBSHARE,
                               EVSS_REJECTED, ActiveSet)


def rand_fm(rng, rows, cols, p):
    return FMatrix(rng.integers(0, p, size=(rows, cols)), p)


def direct_product(a, b):
    return mat_mul(a.a, b.a.T, a.p)


def shared_value(x, label, n, rng):
    poly = make_share_poly(x, label, rng)
    vals = poly.eval_many(list(range(1, n + 1)))
    return SharedMatrix(label, {i + 1: vals[i] for i in range(n)}, x.shape[0])


def open_shared(sv, p, t):
    recs = [Share(sv.label, j, j, FMatrix(v, p))
            for j, v in sorted(sv.shares.items())]
    t_eff = min(t, max(0, (len(recs) - sv.label.threshold) // 2))
    secret, _ = robust_reconstruct(recs, sv.label, t_eff)
    return secret


def mul_setup(m, t, n=None, z=None, p=97, seed=0, adversaries=()):
    n = n if n is not None else 3 * t + 2 * m - 1
    z = z if z is not None else 2 * m
    s = Scenario(n=n, t=t, m=m, p=p, seed=seed, z=z, program=(),
                 adversaries=tuple(adversaries)).validate()
    tr = Transcript()
    return s, Network(s, tr), ActiveSet(s.workers), tr


# ---------------------------------------------------------------- threshold

def test_recovery_threshold_values():
    assert recovery_threshold(20, 20) == 99
    assert recovery_threshold(1, 1) == 4
    assert recovery_threshold(2, 1) == 6
    assert recovery_threshold(1, 0) == 1


def test_recovery_threshold_rejects_bad_parameters():
    with pytest.raises(ParameterViolation):
        recovery_threshold(0, 1)
    with pytest.raises(ParameterViolation):
        recovery_threshold(1, -1)


# ---------------------------------------------------------------- masks

def local_product_polys(rng, m, t, z, p):
    """A worker's two re-sharing polynomials for random point values."""
    w = z // m
    va = rand_fm(rng, z, w, p)
    vb = rand_fm(rng, z, w, p)
    qa = make_share_poly(va, ShareLabel(1, t, m - 1), rng)
    qb = MatPoly.zero(w, w, p)
    for j in range(m):
        piece = FMatrix(vb.a[j * w:(j + 1) * w], p)
        qb = qb + make_share_poly(piece, ShareLabel(1, t, m - 1 - j), rng).shift(j)
    return va, vb, qa, qb


def test_build_masks_empty_at_unit_params():
    p = 11
    rng = np.random.default_rng(0)
    a = rand_fm(rng, 2, 2, p)
    b = rand_fm(rng, 2, 2, p)
    qa = MatPoly(a.a[None], p)
    qb = MatPoly(b.a[None], p)
    groups = build_masks(qa, qb, 1, 0, rng)
    assert groups == []
    c = masked_product(qa, qb, groups, 1)
    assert c.degree == 0
    assert np.array_equal(c.coeff(0).a, mat_mul(a.a, b.a.T, p))


@pytest.mark.parametrize("m,t", [(2, 1), (2, 2), (3, 1)])
def test_masked_product_keeps_blocks_and_degree(m, t):
    p = 101
    rng = np.random.default_rng(40 + m * 10 + t)
    for _ in range(25):
        z = 2 * m
        w = z // m
        va, vb, qa, qb = local_product_polys(rng, m, t, z, p)
        c = masked_product(qa, qb, build_masks(qa, qb, m, t, rng), m)
        assert c.degree <= m + t - 1
        local = mat_mul(va.a, vb.a.T, p)
        for j in range(m):
            block = local[:, j * w:(j + 1) * w]
            assert np.array_equal(c.coeff(j).a, block)


def test_mask_top_coefficient_equals_product_top():
    p = 101
    m, t = 2, 1
    rng = np.random.default_rng(7)
    _, _, qa, qb = local_product_polys(rng, m, t, 4, p)
    prod = qa.mul(qb.transpose_coeffs())
    # the top mask O_{m+t-2} is the last of the last group, starting at a
    a, mk = build_masks(qa, qb, m, t, rng)[-1]
    top = mk.coeff(m + t - 2 - a + t).a
    assert np.array_equal(top, prod.coeff(2 * m + 2 * t - 2).a)


def test_build_masks_rejects_oversized_degrees():
    p = 11
    rng = np.random.default_rng(1)
    m, t = 2, 1
    big = MatPoly(rng.integers(0, p, size=(m + t + 1, 2, 1)), p)
    ok = MatPoly(rng.integers(0, p, size=(1, 1, 1)), p)
    with pytest.raises(DegreeMismatch):
        build_masks(big, ok, m, t, rng)
    with pytest.raises(DegreeMismatch):
        build_masks(ok, big, m, t, rng)
    # at t = 0 no mask is returned, so the product must fit degree m-1
    lin = MatPoly(rng.integers(1, p, size=(2, 1, 1)), p)
    with pytest.raises(DegreeMismatch):
        build_masks(lin, lin, 2, 0, rng)


# ---------------------------------------------------------------- extraction

def test_extraction_recombines_to_product():
    p = 97
    for m, t, seed in [(1, 1, 0), (2, 1, 1), (2, 2, 2), (3, 1, 3)]:
        rng = np.random.default_rng(seed)
        n = 2 * m + 2 * t - 1
        z = 2 * m
        for _ in range(20):
            a = rand_fm(rng, z, z, p)
            b = rand_fm(rng, z, z, p)
            fa = make_share_poly(a, ShareLabel(m, t, 0, DIRECT), rng)
            fb = make_share_poly(b, ShareLabel(m, t, 0, REVERSE), rng)
            points = list(range(1, n + 1))
            lam = coeff_extraction_combo(points, 2 * m + 2 * t - 2, m - 1, p)
            acc = np.zeros((z, z), dtype=np.int64)
            for ix, x in enumerate(points):
                g = mat_mul(fa.eval_many([x])[0], fb.eval_many([x])[0].T, p)
                acc = (acc + lam[ix] * g) % p
            assert np.array_equal(acc, direct_product(a, b))


# ---------------------------------------------------------------- semi-honest

def test_semi_honest_example_gf11():
    p = 11
    rng = np.random.default_rng(3)
    a = rand_fm(rng, 2, 2, p)
    b = rand_fm(rng, 2, 2, p)
    out = multiply_semi_honest(a, b, 2, 1, 6, rng)
    label = ShareLabel(2, 1, 0, DIRECT)
    recs = [out[j] for j in range(1, label.threshold + 1)]
    assert np.array_equal(reconstruct(recs).a, direct_product(a, b))


def test_semi_honest_single_worker():
    p = 13
    rng = np.random.default_rng(4)
    a = rand_fm(rng, 2, 2, p)
    b = rand_fm(rng, 2, 2, p)
    out = multiply_semi_honest(a, b, 1, 0, 1, rng)
    assert np.array_equal(out[1].value.a, direct_product(a, b))


def test_semi_honest_one_block_is_degree_t_of_full_product():
    # m = 1 collapses to the classic degree-t product sharing
    p = 97
    rng = np.random.default_rng(5)
    a = rand_fm(rng, 2, 2, p)
    b = rand_fm(rng, 2, 2, p)
    t, n = 1, 4
    out = multiply_semi_honest(a, b, 1, t, n, rng)
    recs = [out[j] for j in range(1, t + 2)]
    assert np.array_equal(reconstruct(recs).a, direct_product(a, b))
    all_recs = [out[j] for j in range(1, n + 1)]
    assert np.array_equal(reconstruct(all_recs).a, direct_product(a, b))


def test_semi_honest_parameter_checks():
    p = 11
    rng = np.random.default_rng(6)
    a = rand_fm(rng, 2, 2, p)
    b = rand_fm(rng, 2, 2, p)
    with pytest.raises(ParameterViolation):
        multiply_semi_honest(a, b, 2, 1, 4, rng)     # below 2m+2t-1
    with pytest.raises(ParameterViolation):
        multiply_semi_honest(rand_fm(rng, 3, 3, p), rand_fm(rng, 3, 3, p),
                             2, 0, 5, rng)           # 2 does not divide 3


# ---------------------------------------------------------------- malicious

@pytest.mark.parametrize("m,t", [(1, 1), (2, 1), (2, 2)])
def test_multiply_malicious_honest(m, t):
    s, net, active, _ = mul_setup(m, t)
    rng = np.random.default_rng(10 + m + t)
    a = rand_fm(rng, s.z, s.z, s.p)
    b = rand_fm(rng, s.z, s.z, s.p)
    sa = shared_value(a, ShareLabel(m, t, 0, DIRECT), s.n, rng)
    sb = shared_value(b, ShareLabel(m, t, 0, REVERSE), s.n, rng)
    out, active = multiply_malicious(net, s, "mul", active, sa, sb)
    assert active.eliminated == {}
    assert out.label == ShareLabel(m, t, 0, DIRECT)
    assert sorted(out.shares) == list(s.workers)
    assert np.array_equal(open_shared(out, s.p, t).a, direct_product(a, b))


STRATEGY_EXPECTATIONS = [
    ("WrongSubshareConstant", {3: BAD_SUBSHARE}),
    ("BadGapCoefficient", {3: BAD_GAP}),
    ("CorruptProductPoly", {3: BAD_PRODUCT}),
    ("FalseComplainer", {}),
    ("Silent", {3: EVSS_REJECTED}),
    ("InconsistentEvssDealer", {3: EVSS_REJECTED}),
    ("SemiHonest", {}),
]


@pytest.mark.parametrize("name,expect", STRATEGY_EXPECTATIONS)
def test_multiply_malicious_single_adversary(name, expect):
    m, t = 2, 1
    s, net, active, _ = mul_setup(m, t, adversaries=((3, name),))
    rng = np.random.default_rng(77)
    a = rand_fm(rng, s.z, s.z, s.p)
    b = rand_fm(rng, s.z, s.z, s.p)
    sa = shared_value(a, ShareLabel(m, t, 0, DIRECT), s.n, rng)
    sb = shared_value(b, ShareLabel(m, t, 0, REVERSE), s.n, rng)
    out, active = multiply_malicious(net, s, "mul", active, sa, sb)
    assert active.eliminated == expect
    assert np.array_equal(open_shared(out, s.p, t).a, direct_product(a, b))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_multiply_malicious_random_byzantine(seed):
    m, t = 2, 1
    s, net, active, _ = mul_setup(m, t, seed=seed,
                                  adversaries=((2, "RandomByzantine"),))
    rng = np.random.default_rng(100 + seed)
    a = rand_fm(rng, s.z, s.z, s.p)
    b = rand_fm(rng, s.z, s.z, s.p)
    sa = shared_value(a, ShareLabel(m, t, 0, DIRECT), s.n, rng)
    sb = shared_value(b, ShareLabel(m, t, 0, REVERSE), s.n, rng)
    out, active = multiply_malicious(net, s, "mul", active, sa, sb)
    assert set(active.eliminated) <= {2}
    assert np.array_equal(open_shared(out, s.p, t).a, direct_product(a, b))


def test_multiply_malicious_two_cheating_dealers():
    m, t = 1, 2
    s, net, active, _ = mul_setup(
        m, t, z=2, adversaries=((2, "WrongSubshareConstant"),
                                (5, "WrongSubshareConstant")))
    rng = np.random.default_rng(9)
    a = rand_fm(rng, s.z, s.z, s.p)
    b = rand_fm(rng, s.z, s.z, s.p)
    sa = shared_value(a, ShareLabel(m, t, 0, DIRECT), s.n, rng)
    sb = shared_value(b, ShareLabel(m, t, 0, REVERSE), s.n, rng)
    out, active = multiply_malicious(net, s, "mul", active, sa, sb)
    assert active.eliminated == {2: BAD_SUBSHARE, 5: BAD_SUBSHARE}
    assert np.array_equal(open_shared(out, s.p, t).a, direct_product(a, b))


def test_settlement_rows_reveal_only_what_the_complainer_holds():
    # an honest dealer (1) falsely accused by party 3: one :res
    # broadcast, in which every honest party i sends f_3(alpha_i) of
    # each polynomial the dealer dealt, in relation order (a, the b
    # pieces, the mask groups, c); f_3 is read from the deals party 3
    # itself received
    m, t, j = 2, 1, 3
    s, net, active, tr = mul_setup(m, t,
                                   adversaries=((j, "FalseComplainer"),))
    rng = np.random.default_rng(31)
    a = rand_fm(rng, s.z, s.z, s.p)
    b = rand_fm(rng, s.z, s.z, s.p)
    sa = shared_value(a, ShareLabel(m, t, 0, DIRECT), s.n, rng)
    sb = shared_value(b, ShareLabel(m, t, 0, REVERSE), s.n, rng)
    out, active = multiply_malicious(net, s, "mul", active, sa, sb)
    assert active.eliminated == {}
    assert np.array_equal(open_shared(out, s.p, t).a, direct_product(a, b))
    own = [f for e in tr.envelopes
           if e.phase.endswith(":deal") and (e.sender, e.recipient) == (1, j)
           for f in e.payload[2]]
    assert len(own) == m + len(mask_layout(m, t)[0]) + 2
    res = [e for e in tr.envelopes if e.phase == "mul:res"]
    assert sorted(e.sender for e in res) == list(s.workers)
    for e in res:
        if e.sender == j:
            continue
        assert len(e.payload[1]) == len(own)
        for row, f in zip(e.payload[1], own):
            assert np.array_equal(row, horner(f, [e.sender], s.p))


def test_multiply_malicious_rejects_bad_operands():
    m, t = 2, 1
    s, net, active, _ = mul_setup(m, t)
    rng = np.random.default_rng(11)
    a = rand_fm(rng, s.z, s.z, s.p)
    direct = shared_value(a, ShareLabel(m, t, 0, DIRECT), s.n, rng)
    reverse = shared_value(a, ShareLabel(m, t, 0, REVERSE), s.n, rng)
    with pytest.raises(ParameterViolation):
        multiply_malicious(net, s, "mul", active, direct, direct)
    with pytest.raises(ParameterViolation):
        multiply_malicious(net, s, "mul", active, reverse, direct)


# ---------------------------------------------------------------- transforms

def test_direction_swap_round_trip():
    m, t = 2, 1
    s, net, active, _ = mul_setup(m, t)
    rng = np.random.default_rng(20)
    a = rand_fm(rng, s.z, s.z, s.p)
    sv = shared_value(a, ShareLabel(m, t, 0, DIRECT), s.n, rng)
    rev, active = direct_to_reverse(net, s, "fwd", active, sv)
    assert rev.label == ShareLabel(m, t, 0, REVERSE)
    assert np.array_equal(open_shared(rev, s.p, t).a, a.a)
    back, active = reverse_to_direct(net, s, "bck", active, rev)
    assert back.label == ShareLabel(m, t, 0, DIRECT)
    assert np.array_equal(open_shared(back, s.p, t).a, a.a)
    assert active.eliminated == {}


def test_transpose_matches_transposed_secret():
    m, t = 2, 1
    s, net, active, _ = mul_setup(m, t, p=11)
    rng = np.random.default_rng(21)
    a = rand_fm(rng, s.z, s.z, s.p)
    sv = shared_value(a, ShareLabel(m, t, 0, DIRECT), s.n, rng)
    out, active = transpose_shares(net, s, "tr", active, sv)
    assert out.label == sv.label
    assert np.array_equal(open_shared(out, s.p, t).a, a.a.T % s.p)


def test_one_block_transforms_are_local():
    m, t = 1, 1
    s, net, active, _ = mul_setup(m, t, z=2)
    rng = np.random.default_rng(22)
    a = rand_fm(rng, s.z, s.z, s.p)
    sv = shared_value(a, ShareLabel(m, t, 0, DIRECT), s.n, rng)
    rev, active = direct_to_reverse(net, s, "fwd", active, sv)
    tra, active = transpose_shares(net, s, "tr", active, sv)
    assert net.round == 0
    assert rev.label.dir == REVERSE
    for j in s.workers:
        assert np.array_equal(rev.shares[j], sv.shares[j])
        assert np.array_equal(tra.shares[j], sv.shares[j].T)
    assert np.array_equal(open_shared(tra, s.p, t).a, a.a.T % s.p)


@pytest.mark.parametrize("name,expect", [
    ("WrongSubshareConstant", {4: BAD_SUBSHARE}),
    ("BadGapCoefficient", {4: BAD_GAP}),
    ("Silent", {4: EVSS_REJECTED}),
])
def test_transforms_survive_cheating_legs(name, expect):
    m, t = 2, 1
    s, net, active, _ = mul_setup(m, t, adversaries=((4, name),))
    rng = np.random.default_rng(23)
    a = rand_fm(rng, s.z, s.z, s.p)
    sv = shared_value(a, ShareLabel(m, t, 0, DIRECT), s.n, rng)
    rev, active = direct_to_reverse(net, s, "fwd", active, sv)
    assert active.eliminated == expect
    assert np.array_equal(open_shared(rev, s.p, t).a, a.a)


def test_transform_below_survivor_floor():
    m, t = 2, 1
    s, net, active, _ = mul_setup(m, t)
    rng = np.random.default_rng(24)
    a = rand_fm(rng, s.z, s.z, s.p)
    sv = shared_value(a, ShareLabel(m, t, 0, DIRECT), s.n, rng)
    for j in (2, 3, 4, 5):
        active.eliminate(j, EVSS_REJECTED)
    with pytest.raises((TooFewSurvivors, ParameterViolation)):
        direct_to_reverse(net, s, "fwd", active, sv)


# ---------------------------------------------------------------- add

def test_add_shares_is_pointwise():
    m, t = 2, 1
    s, _, active, _ = mul_setup(m, t)
    rng = np.random.default_rng(25)
    a = rand_fm(rng, s.z, s.z, s.p)
    b = rand_fm(rng, s.z, s.z, s.p)
    lab = ShareLabel(m, t, 0, DIRECT)
    sa = shared_value(a, lab, s.n, rng)
    sb = shared_value(b, lab, s.n, rng)
    out = add_shares(sa, sb, active, s.p)
    assert np.array_equal(open_shared(out, s.p, t).a, (a.a + b.a) % s.p)
    with pytest.raises(ParameterViolation):
        add_shares(sa, shared_value(b, ShareLabel(m, t, 0, REVERSE), s.n, rng),
                   active, s.p)


# ---------------------------------------------------------------- programs

def program_scenario(n, t, m, z, p, seed, inputs, program, adversaries=()):
    fms = tuple(FMatrix(x, p) for x in inputs)
    return Scenario(n=n, t=t, m=m, p=p, seed=seed, z=z,
                    program=tuple(program), adversaries=tuple(adversaries),
                    inputs=fms).validate()


def test_share_then_reveal_returns_input():
    rng = np.random.default_rng(30)
    x = rng.integers(0, 13, size=(2, 2))
    s = program_scenario(4, 1, 1, 2, 13, 5, [x],
                         [ProgramOp("share", (0, DIRECT), "x"),
                          ProgramOp("reveal", ("x",))])
    tr = execute(s)
    assert np.array_equal(tr.master_output.a, x)


def test_reveal_names_corrected_senders():
    # a revealed share the decoder corrects names its sender in a
    # "correct" event; nobody is eliminated for it
    rng = np.random.default_rng(30)
    x = rng.integers(0, 13, size=(2, 2))
    named = 0
    for seed in range(8):
        s = program_scenario(4, 1, 1, 2, 13, seed, [x],
                             [ProgramOp("share", (0, DIRECT), "x"),
                              ProgramOp("reveal", ("x",))],
                             adversaries=((4, "RandomByzantine"),))
        tr = execute(s)
        assert np.array_equal(tr.master_output.a, x)
        assert set(tr.events) <= {("correct", "r1out:send", 4)}
        named += bool(tr.events)
    assert named


@pytest.mark.parametrize("m,t", [(1, 1), (1, 3), (2, 1), (2, 3), (2, 4),
                                 (3, 4), (2, 8)])
def test_mask_groups_keep_the_masked_sum(m, t):
    # build_masks returns groups of at most 2m-1 masks, one polynomial
    # M_k of degree at most D = min(2m-1, m+t-1) + t - 1 each, and
    # sum_k x^(m+a_k) M_k is what masked_product takes off the product;
    # every x^(m+a_k) M_k of degree D stays within degree 2m+2t-2
    p = 97
    rng = np.random.default_rng(10 * m + t)
    count = m + t - 1
    a_n = MatPoly(rng.integers(0, p, size=(m + t, 2, 2)), p)
    b_n = MatPoly(rng.integers(0, p, size=(m + t, 3, 2)), p)
    starts, size = mask_layout(m, t)
    d = size + t - 1
    groups = build_masks(a_n, b_n, m, t, rng)
    assert [a for a, _ in groups] == starts
    assert len(starts) == -(-count // (2 * m - 1)) and size <= 2 * m - 1
    assert starts[0] == 0 and all(
        b - a == size for a, b in zip(starts[1:], starts[2:] + [count]))
    assert all(m + a + d <= 2 * m + 2 * t - 2 for a in starts)
    assert all(poly.degree <= d for _, poly in groups)
    masked = masked_product(a_n, b_n, groups, m)
    got = MatPoly.zero(2, 3, p)
    for a, poly in groups:
        got = got + poly.shift(m + a)
    assert got == a_n.mul(b_n.transpose_coeffs()) - masked
    assert masked.degree <= m + t - 1


def test_mask_layout_deals_nothing_without_masks():
    assert mask_layout(2, 0) == ([], 0)
    assert mask_layout(1, 0) == ([], 0)


class InterpolatingDealer(Strategy):
    """Coalition member; the member `shared["cheat"]` deals a product
    polynomial shifted by delta x^(m-1) and mask groups shifted by
    polynomials dM_k of the label's degree D, chosen so that
    sum_k x^(a_k) dM_k = -delta / x at as many honest points as that sum's
    degree allows. Where it matches, the shifted relation holds at an
    honest point; colluders never complain about the coalition.
    """

    DELTA = 1

    def _offsets(self, ctx):
        s = ctx["scenario"]
        m, t, p = s.m, s.t, s.p
        starts, size = mask_layout(m, t)
        d = size + t - 1
        honest = [j for j in s.workers if j not in self.shared["coalition"]]
        pts = honest[:starts[-1] + d + 1]
        vals = [np.array([[-self.DELTA * pow(j, p - 2, p) % p]]) for j in pts]
        q = interpolate(pts, vals, p).c[:, 0, 0]
        groups = [[0] * (d + 1) for _ in starts]
        for e, c in enumerate(q):
            k = max(k for k, a in enumerate(starts) if a <= e)
            groups[k][e - starts[k]] = int(c)
        out = {}
        for iid, meta in ctx["instances"].items():
            if meta["dealer"] != self.party:
                continue
            if ctx["phase"].endswith(":c:deal"):
                out[iid] = [0] * (m - 1) + [self.DELTA]
            elif ctx["phase"].endswith(":o:deal"):
                out[iid] = groups[int(iid.split("x")[1])]
        return out

    def act(self, ctx, outbox):
        phase = ctx["phase"]
        if phase.endswith("mul:check"):
            coalition = self.shared["coalition"]
            return [s for s in outbox if s[2][1] not in coalition]
        if self.party != self.shared["cheat"] or not phase.endswith(":deal"):
            return outbox
        offsets = self._offsets(ctx)
        if not offsets:
            return outbox
        p = ctx["scenario"].p

        def shift(iids, fs, gs, alpha):
            fs, gs = fs.copy(), gs.copy()
            for k, iid in enumerate(iids):
                for e, c in enumerate(offsets.get(iid, ())):
                    fs[k][0] = (fs[k][0] + c * pow(alpha, e, p)) % p
                    gs[k][e] = (gs[k][e] + c) % p
            return fs, gs

        out = []
        for channel, recipient, payload in outbox:
            tag, iids, fs, gs = payload
            out.append((channel, recipient,
                        (tag, iids) + shift(iids, fs, gs, recipient)))
        own = ctx["own_state"]
        for iid in offsets:
            fs, gs = shift((iid,), own[iid][0][None], own[iid][1][None],
                           self.party)
            own[iid] = (fs[0], gs[0])
        return out


def test_grouped_masks_catch_an_interpolating_dealer():
    # (m,t) = (2,3) has two mask groups, one partial. Dealer 1 shifts
    # its product polynomial and cancels the shift through its mask
    # groups at as many honest points as their degrees allow; parties 2
    # and 3 stay quiet. With the partial group at the top the masked sum
    # would reach degree 8 and match all 9 honest points, and a wrong
    # product would be revealed; with it at the bottom it reaches degree
    # 6, honest points complain and the settlement eliminates the dealer.
    m, t = 2, 3
    s, net, active, _ = mul_setup(
        m, t, seed=3, adversaries=[(i, "SemiHonest") for i in (1, 2, 3)])
    adv = net.adversary
    adv.shared["cheat"] = 1
    for party in adv.strategies:
        adv.strategies[party] = InterpolatingDealer(party, None, adv.shared)
    rng = np.random.default_rng(23)
    a = rand_fm(rng, s.z, s.z, s.p)
    b = rand_fm(rng, s.z, s.z, s.p)
    sa = shared_value(a, ShareLabel(m, t, 0, DIRECT), s.n, rng)
    sb = shared_value(b, ShareLabel(m, t, 0, REVERSE), s.n, rng)
    out, active = multiply_malicious(net, s, "mul", active, sa, sb)
    assert np.array_equal(open_shared(out, s.p, t).a, direct_product(a, b))
    assert active.eliminated == {1: BAD_PRODUCT}


@pytest.mark.parametrize("m", [2, 3])
def test_honest_multiply_round_count(m):
    # SHARE/SHARE/MUL/REVEAL: 19 + 3m rounds. The m + 1 re-sharing
    # families deal in their own EVSS batches (3 rounds each) but share
    # one syndrome round and one gap-coefficient round
    t, p = 1, 97
    n, z = 3 * t + 2 * m - 1, 2 * m
    rng = np.random.default_rng(40 + m)
    xs = [rng.integers(0, p, size=(z, z)) for _ in range(2)]
    program = [ProgramOp("share", (0, DIRECT), "a"),
               ProgramOp("share", (1, REVERSE), "b"),
               ProgramOp("mul", ("a", "b"), "c"),
               ProgramOp("reveal", ("c",))]
    tr = execute(program_scenario(n, t, m, z, p, 3, xs, program))
    assert tr.envelopes[-1].round + 1 == 19 + 3 * m
    for last in ("syn", "par"):
        rounds = {e.round for e in tr.envelopes
                  if e.phase.split(":")[-1] == last}
        assert len(rounds) == 1
        assert {e.phase for e in tr.envelopes if e.round in rounds} == \
            {f"r2mul:{last}"}


def test_program_product_plus_addend_gf11():
    p, m, t, n, z = 11, 2, 1, 8, 4
    rng = np.random.default_rng(31)
    xs = [rng.integers(0, p, size=(z, z)) for _ in range(3)]
    program = [ProgramOp("share", (0, DIRECT), "x1"),
               ProgramOp("share", (1, REVERSE), "x2"),
               ProgramOp("share", (2, DIRECT), "x3"),
               ProgramOp("mul", ("x1", "x2"), "m"),
               ProgramOp("add", ("m", "x3"), "g"),
               ProgramOp("reveal", ("g",))]
    s = program_scenario(n, t, m, z, p, 9, xs, program)
    tr = execute(s)
    want = (xs[0] @ xs[1].T + xs[2]) % p
    assert np.array_equal(tr.master_output.a, want)


def test_program_chained_products_with_transforms():
    p, m, t, n, z = 97, 2, 1, 6, 4
    rng = np.random.default_rng(32)
    xs = [rng.integers(0, p, size=(z, z)) for _ in range(3)]
    program = [ProgramOp("share", (0, DIRECT), "x1"),
               ProgramOp("share", (1, REVERSE), "x2"),
               ProgramOp("mul", ("x1", "x2"), "m1"),
               ProgramOp("share", (2, DIRECT), "x3"),
               ProgramOp("d2r", ("x3",), "x3r"),
               ProgramOp("mul", ("m1", "x3r"), "m2"),
               ProgramOp("reveal", ("m2",))]
    s = program_scenario(n, t, m, z, p, 13, xs, program)
    tr = execute(s)
    want = (xs[0] @ xs[1].T % p) @ xs[2].T % p
    assert np.array_equal(tr.master_output.a, want)


def test_program_transpose_pipeline():
    p, m, t, n, z = 97, 2, 1, 6, 4
    rng = np.random.default_rng(33)
    x = rng.integers(0, p, size=(z, z))
    program = [ProgramOp("share", (0, DIRECT), "x"),
               ProgramOp("transpose", ("x",), "xt"),
               ProgramOp("reveal", ("xt",))]
    s = program_scenario(n, t, m, z, p, 17, [x], program)
    assert np.array_equal(execute(s).master_output.a, x.T % p)


@pytest.mark.parametrize("name", ["Silent", "RandomByzantine",
                                  "CorruptProductPoly", "FalseComplainer"])
def test_program_with_adversary_matches_oracle(name):
    p, m, t, n, z = 97, 2, 1, 6, 4
    rng = np.random.default_rng(34)
    xs = [rng.integers(0, p, size=(z, z)) for _ in range(2)]
    program = [ProgramOp("share", (0, DIRECT), "a"),
               ProgramOp("share", (1, REVERSE), "b"),
               ProgramOp("mul", ("a", "b"), "c"),
               ProgramOp("reveal", ("c",))]
    s = program_scenario(n, t, m, z, p, 21, xs, program,
                         adversaries=((2, name),))
    tr = execute(s)
    assert np.array_equal(tr.master_output.a, xs[0] @ xs[1].T % p)
    bad = [e for e in tr.events if e[0] == "eliminate" and e[2] != 2]
    assert bad == []


# A multi-entry array: it has no truth value and is not hashable.
ARR = np.arange(4, dtype=np.int64).reshape(2, 2)


def _rewrite(tag, fn):
    """An outbox edit that passes every payload tagged `tag` through fn."""
    def edit(ctx, outbox):
        return [(ch, to, fn(ctx, pl) if pl[0] == tag else pl)
                for ch, to, pl in outbox]
    return edit


def _add(suffix, make):
    """An outbox edit that broadcasts make(ctx) as well in every round
    whose phase ends in `suffix`."""
    def edit(ctx, outbox):
        if ctx["phase"].endswith(suffix):
            outbox = outbox + [(BCAST, -1, make(ctx))]
        return outbox
    return edit


def _self_complaint(ctx):
    """A valid complaint, about an instance party 2 deals where it deals
    one: the batch resolves and votes, and party 2 answers it."""
    own = [iid for iid, meta in ctx["instances"].items()
           if meta["dealer"] == 2]
    return ("evc", (min(own or ctx["instances"]),), ())


def _send(suffix, channel, recipient):
    """An outbox edit that adds one send with the given header in every
    round whose phase ends in `suffix`."""
    def edit(ctx, outbox):
        if ctx["phase"].endswith(suffix):
            outbox = outbox + [(channel, recipient, ("evx",))]
        return outbox
    return edit


def _both(first, second):
    return lambda ctx, outbox: second(ctx, first(ctx, outbox))


FORGED = {
    # these six raised TypeError or ValueError in every honest party
    # before every inbox was read through one form per tag
    "evd-array-id": _rewrite(
        "evd", lambda ctx, pl: (pl[0], (ARR,) + pl[1][1:]) + pl[2:]),
    "evx-array-id": _rewrite(
        "evx", lambda ctx, pl: (pl[0], (ARR,) + pl[1][1:]) + pl[2:]),
    "evc-array-self": _add(":complain", lambda ctx: ("evc", (ARR,), ())),
    "evc-pair-of-arrays": _add(":complain", lambda ctx: (
        "evc", (), ((min(ctx["instances"]), ARR, ARR, ARR),))),
    "evv-array-id": _both(_add(":complain", _self_complaint),
                          _add(":vote", lambda ctx: ("evv", ((ARR, 1),)))),
    "evr-array-id": _both(_add(":complain", _self_complaint), _add(
        ":resolve", lambda ctx: ("evr", ((ARR, 1, ARR, ARR),)))),
    # these did not crash before either
    "stm-list": _rewrite("stm", lambda ctx, pl: (pl[0], list(pl[1]))),
    "stm-short": _rewrite("stm", lambda ctx, pl: (pl[0], ())),
    "mulcomplaint-bool": _add("mul:check", lambda ctx: ("mulcomplaint", True)),
    "mulcomplaint-array": _add("mul:check",
                               lambda ctx: ("mulcomplaint", ARR)),
    "out-0d": _rewrite("out", lambda ctx, pl: (pl[0], np.array(5))),
    "out-float": _rewrite("out", lambda ctx, pl: (pl[0],
                                                  pl[1].astype(float))),
    # envelope headers: the first two raised ParameterViolation, the
    # array recipient TypeError, and "xyz" was delivered as private;
    # an array channel must not reach a comparison with BCAST or PRIV
    "header-recipient-999": _send(":cross", PRIV, 999),
    "header-recipient-str": _send(":cross", PRIV, "3"),
    "header-recipient-array": _send(":cross", PRIV, np.array([3])),
    "header-channel-xyz": _send(":cross", "xyz", 3),
    "header-channel-array": _send(":cross", np.array([PRIV, PRIV]), 3),
    "header-channel-array-1": _send(":cross", np.array([PRIV]), 3),
}


@pytest.mark.parametrize("case", sorted(FORGED))
def test_malformed_payloads_are_dropped_whole(case, monkeypatch):
    """One in-budget party adds or rewrites one well-tagged payload, or
    adds one send with a malformed header, per round of one kind. The
    run returns exactly A.B^T, no honest party is eliminated and every
    envelope went out on BCAST or PRIV."""
    edit = FORGED[case]

    class Forger(Strategy):
        def act(self, ctx, outbox):
            return edit(ctx, list(outbox))

    monkeypatch.setitem(compc.net._STRATEGY_CLASSES, "SemiHonest", Forger)
    p, m, t, n, z = 97, 2, 1, 6, 4
    rng = np.random.default_rng(37)
    xs = [rng.integers(0, p, size=(z, z)) for _ in range(2)]
    program = [ProgramOp("share", (0, DIRECT), "a"),
               ProgramOp("share", (1, REVERSE), "b"),
               ProgramOp("mul", ("a", "b"), "c"),
               ProgramOp("reveal", ("c",))]
    s = program_scenario(n, t, m, z, p, 22, xs, program,
                         adversaries=((2, "SemiHonest"),))
    tr = execute(s)
    assert np.array_equal(tr.master_output.a, xs[0] @ xs[1].T % p)
    assert [e for e in tr.events if e[0] == "eliminate" and e[2] != 2] == []
    assert {e.channel for e in tr.envelopes} == {BCAST, PRIV}


@pytest.mark.parametrize("m, t", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_beyond_the_threshold_never_returns_a_wrong_product(m, t):
    """One worker short of N = 3t + 2m - 1, with each strategy at party
    2: every run returns exactly A.B^T or raises a typed run-time
    error. The scenario was admitted, so a ParameterViolation (a
    configuration error) must not surface in the middle of the run."""
    p, n, z = 97, 3 * t + 2 * m - 2, 2 * m
    program = (ProgramOp("share", (0, DIRECT), "a"),
               ProgramOp("share", (1, REVERSE), "b"),
               ProgramOp("mul", ("a", "b"), "c"),
               ProgramOp("reveal", ("c",)))
    for name in STRATEGY_NAMES:
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            xs = [rng.integers(0, p, size=(z, z)) for _ in range(2)]
            s = Scenario(n=n, t=t, m=m, p=p, seed=seed, z=z,
                         program=program, adversaries=((2, name),),
                         inputs=tuple(FMatrix(x, p) for x in xs),
                         sub_threshold=True)
            try:
                tr = run_scenario(s)
            except ParameterViolation as e:
                pytest.fail(f"m={m} t={t} {name} seed={seed}: {e!r}")
            except CompcError:
                continue
            assert np.array_equal(tr.master_output.a, xs[0] @ xs[1].T % p), \
                f"wrong product: m={m} t={t} {name} seed={seed}"


class FilterOnly:
    """The adversary as the engine may see it: filter and nothing else."""

    def __init__(self, scenario):
        self.filter = AdversaryController(scenario).filter


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_the_engine_reaches_the_adversary_only_through_filter(name,
                                                              monkeypatch):
    p, m, t, n, z = 97, 2, 2, 11, 4
    rng = np.random.default_rng(36)
    xs = [rng.integers(0, p, size=(z, z)) for _ in range(2)]
    program = [ProgramOp("share", (0, DIRECT), "a"),
               ProgramOp("share", (1, DIRECT), "b0"),
               ProgramOp("d2r", ("b0",), "b"),
               ProgramOp("mul", ("a", "b"), "c"),
               ProgramOp("transpose", ("c",), "d"),
               ProgramOp("reveal", ("d",))]
    s = program_scenario(n, t, m, z, p, 7, xs, program,
                         adversaries=((3, name), (8, name)))
    want = execute(s).serialize()
    monkeypatch.setattr(compc.net, "AdversaryController", FilterOnly)
    assert execute(s).serialize() == want


def test_execute_is_deterministic():
    p, m, t, n, z = 97, 2, 1, 6, 4
    rng = np.random.default_rng(35)
    xs = [rng.integers(0, p, size=(z, z)) for _ in range(2)]
    program = [ProgramOp("share", (0, DIRECT), "a"),
               ProgramOp("share", (1, REVERSE), "b"),
               ProgramOp("mul", ("a", "b"), "c"),
               ProgramOp("reveal", ("c",))]

    def once():
        s = program_scenario(n, t, m, z, p, 42, xs, program,
                             adversaries=((3, "RandomByzantine"),))
        return execute(s).serialize()

    assert once() == once()


def test_execute_rejects_unknown_ops(monkeypatch):
    """An unknown op kind, a register read before any op writes it, a
    SHARE of a source without an input and a SHARE in an unknown
    direction are refused before the first round: no Network.exchange
    call happens."""
    p = 13
    x = np.zeros((2, 2), dtype=np.int64)
    mul = [ProgramOp("share", (0, DIRECT), "ra"),
           ProgramOp("share", (1, REVERSE), "rb"),
           ProgramOp("mul", ("ra", "rb"), "rc")]
    exchanges = []
    real = Network.exchange
    monkeypatch.setattr(Network, "exchange", lambda net, phase, *a, **k:
                        exchanges.append(phase) or real(net, phase, *a, **k))
    for program in ([ProgramOp("frobnicate", (), "y")],
                    mul + [ProgramOp("reveal", ("rz",))],
                    mul[:2] + [ProgramOp("add", ("ra", "rc"), "rd")],
                    [ProgramOp("transpose", ("ra",), "ra")] + mul,
                    [ProgramOp("share", (-1, DIRECT), "ra")],
                    mul[:1] + [ProgramOp("share", (2, REVERSE), "rb")],
                    mul[:1] + [ProgramOp("share", (1, "sideways"), "rb")]):
        s = program_scenario(4, 1, 1, 2, p, 0, [x, x], program)
        with pytest.raises(ParameterViolation):
            execute(s)
    assert exchanges == []


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]),
       st.integers(0, 2 ** 32))
def test_multiply_property_honest(mt, seed):
    m, t = mt
    s, net, active, _ = mul_setup(m, t, seed=seed % 2 ** 32)
    rng = np.random.default_rng(seed)
    a = rand_fm(rng, s.z, s.z, s.p)
    b = rand_fm(rng, s.z, s.z, s.p)
    sa = shared_value(a, ShareLabel(m, t, 0, DIRECT), s.n, rng)
    sb = shared_value(b, ShareLabel(m, t, 0, REVERSE), s.n, rng)
    out, active = multiply_malicious(net, s, "mul", active, sa, sb)
    assert active.eliminated == {}
    assert np.array_equal(open_shared(out, s.p, t).a, direct_product(a, b))
