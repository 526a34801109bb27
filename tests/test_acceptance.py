"""Release gate: ten end-to-end checks, one test per criterion.

Run with -v for one pass/fail line per criterion, or -s to also see
the timed PASS summaries. Expected values never come from the code
under test: products are recomputed with a pure-Python integer matmul,
polynomial claims are checked by interpolating protocol outputs and
bounding the degree, and decoder claims are checked against planted
codewords (and, beyond the correction budget, against an exhaustive
scan of all candidate codewords over the small field).
"""

import itertools
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from compc.audit import (LEAK_PRODUCT, LEAK_SOURCE, PRODUCT, SHARING,
                         AuditTemplate, enumerate_views, product_round_audit,
                         tv_distance)
from compc.cli import _py_matmul_t, main as cli_main
from compc.evss import evss_deal
from compc.gf import DEFAULT_PRIME, FMatrix, mat_mul
from compc.mpc import (ProgramOp, build_masks, masked_product,
                       recovery_threshold)
from compc.net import PRIV, STRATEGY_NAMES, Scenario, run_scenario
from compc.poly import MatPoly, coeff_extraction_combo, interpolate
from compc.rscode import DecodingFailure, decode
from compc.sharing import DIRECT, REVERSE, ShareLabel, make_share_poly
from compc.subroutines import BAD_GAP, BAD_SUBSHARE
from evss_machine import EvssMsg, EvssParty, evss_finalize, evss_round

P31 = DEFAULT_PRIME
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MUL_PROGRAM = (ProgramOp("share", (0, DIRECT), "ra"),
               ProgramOp("share", (1, REVERSE), "rb"),
               ProgramOp("mul", ("ra", "rb"), "rc"),
               ProgramOp("reveal", ("rc",)))


def report(tag, started, detail):
    print(f"{tag} PASS ({time.perf_counter() - started:.1f}s) {detail}")


def rand_fm(rng, rows, cols, p):
    return FMatrix(rng.integers(0, p, size=(rows, cols)), p)


def eliminations(transcript):
    return {ev[2]: ev[3] for ev in transcript.events if ev[0] == "eliminate"}


# ------------------------------------------------------------ criterion 1

def test_ac01_threshold_formula_and_sweep_row(capsys):
    started = time.perf_counter()
    assert recovery_threshold(20, 20) == 99
    assert cli_main(["sweep", "--grid", "m=20;t=20"]) == 0
    out = capsys.readouterr().out
    assert "m=20 t=20 n=99" in out
    assert "correct=true" in out
    with capsys.disabled():
        report("AC01", started, "recovery_threshold(20,20)=99, sweep prints n=99")


# ------------------------------------------------------------ criterion 2

def test_ac02_malicious_grid_matches_direct_oracle():
    started = time.perf_counter()
    strategies = [s for s in STRATEGY_NAMES if s != "SemiHonest"]
    assert len(strategies) == 7
    runs = 0
    for m, t in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        n = 3 * t + 2 * m - 1
        for strategy in strategies:
            for seed in range(20):
                rng = np.random.default_rng(seed)
                a = rand_fm(rng, 4, 4, P31)
                b = rand_fm(rng, 4, 4, P31)
                expected = _py_matmul_t(a.a.tolist(), b.a.tolist(), P31)
                adv = tuple((n - i, strategy) for i in range(t))
                scenario = Scenario(n=n, t=t, m=m, p=P31, seed=seed, z=4,
                                    program=MUL_PROGRAM, adversaries=adv,
                                    inputs=(a, b))
                tr = run_scenario(scenario)
                assert tr.master_output.a.tolist() == expected, \
                    f"wrong product at m={m} t={t} {strategy} seed={seed}"
                bad = set(eliminations(tr))
                assert bad <= {party for party, _ in adv}
                runs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report("AC02", started, f"{runs} malicious runs, all outputs exact")


# ------------------------------------------------------------ criterion 3

def run_evss_machine(n, t, label, shape, p, deal, tamper=None):
    """Six synchronous rounds of the verification machine, dealer = 1."""
    ids = list(range(1, n + 1))
    parties = {i: EvssParty(i, 1, n, t, label, shape, p,
                            deal=deal if i == 1 else None)
               for i in ids}
    pending = []
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
    return {i: evss_finalize(parties[i]) for i in ids}


def fits_declared_degree(points, values, label, p):
    poly = interpolate(points, [np.asarray(v) for v in values], p)
    return poly.degree <= label.degree


def test_ac03_evss_accept_and_reject_guarantees():
    started = time.perf_counter()
    m, t = 2, 1
    n = 3 * t + m + 1
    label = ShareLabel(m, t, 0)
    for seed in range(200):
        rng = np.random.default_rng(seed)
        w = rand_fm(rng, 2, 2, P31)
        verdicts = run_evss_machine(n, t, label, (2, 1), P31,
                                    evss_deal(w, label, rng))
        assert all(v.accepted for v in verdicts.values())
        pts = list(range(1, n + 1))
        assert fits_declared_degree(pts, [verdicts[i].share for i in pts],
                                    label, P31)
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        w = rand_fm(rng, 2, 2, P31)
        deal = evss_deal(w, label, rng)
        garbage = np.random.default_rng(5000 + seed)

        def tamper(rnd, sender, out):
            if sender != 1:
                return out
            if rnd == 0:    # fresh garbage pair per recipient
                fresh = []
                for msg in out:
                    fc, gc = deal.polys_for(msg.body[0])
                    fresh.append(EvssMsg("deal", sender, PRIV, (
                        msg.body[0],
                        garbage.integers(0, P31, size=fc.shape),
                        garbage.integers(0, P31, size=gc.shape))))
                return fresh
            if rnd >= 2:    # never answers complaints
                return []
            return out

        verdicts = run_evss_machine(n, t, label, (2, 1), P31, deal, tamper)
        honest = [i for i in range(2, n + 1)]
        rejected = not any(verdicts[i].accepted for i in honest)
        consistent = (all(verdicts[i].share is not None for i in honest)
                      and fits_declared_degree(
                          honest, [verdicts[i].share for i in honest],
                          label, P31))
        assert rejected or consistent, f"seed {seed}: neither outcome"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report("AC03", started, "200 honest + 200 inconsistent-dealer runs")


# ------------------------------------------------------------ criterion 4

def closest_codeword_distance(word, degree, n, p):
    """Minimum Hamming distance from word to any degree-bounded codeword."""
    xs = np.arange(1, n + 1, dtype=np.int64)
    powers = np.ones((degree + 1, n), dtype=np.int64)
    for k in range(1, degree + 1):
        powers[k] = powers[k - 1] * xs % p
    combos = np.array(list(itertools.product(range(p), repeat=degree + 1)),
                      dtype=np.int64)
    codewords = combos @ powers % p
    return int(np.min(np.count_nonzero(codewords != np.asarray(word), axis=1)))


def test_ac04_decoder_exhaustive_in_budget_graceful_beyond():
    started = time.perf_counter()
    p = 11
    within = beyond = 0
    for n in range(1, 8):
        for degree in range(0, min(2, n - 1) + 1):
            rng = np.random.default_rng(100 * n + degree)
            coeffs = rng.integers(0, p, size=degree + 1)
            xs = list(range(1, n + 1))
            clean = [int(sum(c * x ** k for k, c in enumerate(coeffs)) % p)
                     for x in xs]
            e_max = (n - degree - 1) // 2
            for e in range(e_max + 1):
                for pos in itertools.combinations(range(n), e):
                    for deltas in itertools.product(range(1, p), repeat=e):
                        word = list(clean)
                        for i, d in zip(pos, deltas):
                            word[i] = (word[i] + d) % p
                        poly, errs = decode(degree, xs, word, e_max, p)
                        got = np.zeros(degree + 1, dtype=np.int64)
                        got[:poly.degree + 1] = poly.c[:, 0, 0]
                        assert np.array_equal(got, coeffs % p)
                        assert errs == frozenset(xs[i] for i in pos)
                        within += 1
            if e_max + 1 > n:
                continue
            for _ in range(30):
                pos = rng.choice(n, size=e_max + 1, replace=False)
                word = list(clean)
                for i in pos:
                    word[int(i)] = (word[int(i)] + int(rng.integers(1, p))) % p
                try:
                    poly, _ = decode(degree, xs, word, e_max, p)
                except DecodingFailure:
                    beyond += 1
                    continue
                evals = poly.eval_many(xs)[:, 0, 0]
                dist = int(np.count_nonzero(evals != np.asarray(word)))
                assert dist == closest_codeword_distance(word, degree, n, p)
                beyond += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 20.0
    report("AC04", started,
           f"{within} in-budget patterns exact, {beyond} beyond-budget graceful")


# ------------------------------------------------------------ criterion 5

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


def test_ac05_masked_product_blocks_and_degree():
    started = time.perf_counter()
    p = 101
    for m, t in [(2, 1), (2, 2), (3, 1)]:
        rng = np.random.default_rng(50 + 10 * m + t)
        for _ in range(100):
            z = 2 * m
            w = z // m
            va, vb, qa, qb = local_product_polys(rng, m, t, z, p)
            c = masked_product(qa, qb, build_masks(qa, qb, m, t, rng), m)
            assert c.degree <= m + t - 1
            local = _py_matmul_t(va.a.tolist(), vb.a.tolist(), p)
            for j in range(m):
                block = [row[j * w:(j + 1) * w] for row in local]
                assert c.coeff(j).a.tolist() == block
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report("AC05", started, "300 masked products keep blocks, degree <= m+t-1")


# ------------------------------------------------------------ criterion 6

def test_ac06_lambda_recombination_equals_direct_product():
    started = time.perf_counter()
    for m, t in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        n = 2 * m + 2 * t - 1
        z = 2 * m
        rng = np.random.default_rng(60 + 10 * m + t)
        for _ in range(25):
            a = rand_fm(rng, z, z, P31)
            b = rand_fm(rng, z, z, P31)
            fa = make_share_poly(a, ShareLabel(m, t, 0, DIRECT), rng)
            fb = make_share_poly(b, ShareLabel(m, t, 0, REVERSE), rng)
            points = list(range(1, n + 1))
            lam = coeff_extraction_combo(points, 2 * m + 2 * t - 2, m - 1, P31)
            acc = np.zeros((z, z), dtype=np.int64)
            for ix, x in enumerate(points):
                g = mat_mul(fa.eval_many([x])[0], fb.eval_many([x])[0].T, P31)
                acc = (acc + lam[ix] * g) % P31
            assert acc.tolist() == _py_matmul_t(a.a.tolist(), b.a.tolist(), P31)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report("AC06", started, "100 recombinations at N=2m+2t-1 exact")


# ------------------------------------------------------------ criterion 7

def run_one_op_pipeline(kinds, a, seed):
    ops = [ProgramOp("share", (0, DIRECT), "r0")]
    for i, kind in enumerate(kinds):
        ops.append(ProgramOp(kind, (f"r{i}",), f"r{i + 1}"))
    ops.append(ProgramOp("reveal", (f"r{len(kinds)}",)))
    scenario = Scenario(n=6, t=1, m=2, p=P31, seed=seed, z=2,
                        program=tuple(ops), inputs=(a,))
    return run_scenario(scenario).master_output


def test_ac07_transform_round_trips():
    started = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        a = rand_fm(rng, 2, 2, P31)
        back = run_one_op_pipeline(("d2r", "r2d"), a, seed)
        assert back.a.tolist() == a.a.tolist()
    for seed in range(50):
        rng = np.random.default_rng(500 + seed)
        a = rand_fm(rng, 2, 2, P31)
        flipped = run_one_op_pipeline(("transpose",), a, seed)
        assert flipped.a.tolist() == a.a.T.tolist()
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("AC07", started, "50 direct/reverse round trips + 50 transposes")


# ------------------------------------------------------------ criterion 8

def test_ac08_views_secret_independent_leaks_detected():
    started = time.perf_counter()
    secret_a = FMatrix([[1, 2]], 5)
    secret_b = FMatrix([[4, 0]], 5)
    for m in (1, 2):
        tpl = AuditTemplate(SHARING, n=4, t=1, m=m, p=5, rows=1, cols=2)
        for observer in range(1, 5):
            ta = enumerate_views(tpl, secret_a, (observer,))
            tb = enumerate_views(tpl, secret_b, (observer,))
            assert tv_distance(ta, tb) == 0
    pair_a = (FMatrix([[1, 2]], 5), FMatrix([[3, 0]], 5))
    pair_b = (FMatrix([[0, 4]], 5), FMatrix([[2, 2]], 5))
    tpl = AuditTemplate(PRODUCT, n=3, t=1, m=1, p=5, rows=1, cols=2)
    for observer in range(1, 4):
        rep = product_round_audit(tpl, pair_a, pair_b, observer)
        assert rep.kernels_match
        assert rep.tv == 0
    # master hears nothing in the product round-set
    ta = enumerate_views(tpl, pair_a, (0,))
    tb = enumerate_views(tpl, pair_b, (0,))
    assert tv_distance(ta, tb) == 0
    leaky_sharing = AuditTemplate(SHARING, n=4, t=1, m=1, p=5, rows=1,
                                  cols=2, leak=LEAK_SOURCE)
    ta = enumerate_views(leaky_sharing, secret_a, (1,))
    tb = enumerate_views(leaky_sharing, secret_b, (1,))
    assert tv_distance(ta, tb) == Fraction(1)
    leaky_product = AuditTemplate(PRODUCT, n=3, t=1, m=1, p=5, rows=1,
                                  cols=2, leak=LEAK_PRODUCT)
    rep = product_round_audit(leaky_product, pair_a, pair_b, 1)
    assert not rep.kernels_match
    assert rep.tv > 0
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report("AC08", started,
           "TV=0 for sharing m in {1,2} and product round-set; leaks show TV>0")


# ------------------------------------------------------------ criterion 9

def test_ac09_cheaters_blamed_honest_never():
    started = time.perf_counter()
    cases = [("WrongSubshareConstant", BAD_SUBSHARE),
             ("BadGapCoefficient", BAD_GAP)]
    for strategy, reason in cases:
        for seed in range(50):
            rng = np.random.default_rng(seed)
            a = rand_fm(rng, 2, 2, P31)
            b = rand_fm(rng, 2, 2, P31)
            scenario = Scenario(n=6, t=1, m=2, p=P31, seed=seed, z=2,
                                program=MUL_PROGRAM,
                                adversaries=((6, strategy),), inputs=(a, b))
            tr = run_scenario(scenario)
            blamed = eliminations(tr)
            assert blamed.get(6) == reason, \
                f"{strategy} seed={seed}: got {blamed}"
            assert set(blamed) == {6}
            assert tr.master_output.a.tolist() == _py_matmul_t(
                a.a.tolist(), b.a.tolist(), P31)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report("AC09", started,
           "100 runs: cheaters blamed with exact reason, honest untouched")


# ------------------------------------------------------------ criterion 10

def test_ac10_reruns_byte_identical(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    a = rand_fm(rng, 2, 2, P31)
    b = rand_fm(rng, 2, 2, P31)
    scenario = Scenario(n=6, t=1, m=2, p=P31, seed=5, z=2,
                        program=MUL_PROGRAM,
                        adversaries=((6, "RandomByzantine"),), inputs=(a, b))
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.serialize() == second.serialize()
    assert first.master_output.a.tolist() == second.master_output.a.tolist()
    paths = []
    for name in ("one", "two"):
        out = tmp_path / name
        code = cli_main(["run", "--scenario", str(SCENARIOS / "threshold.scn"),
                         "--out", str(out)])
        assert code == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert (paths[0].parent / "one.transcript").read_bytes() == \
        (paths[1].parent / "two.transcript").read_bytes()
    report("AC10", started, "same seed twice: transcripts and summaries identical")
