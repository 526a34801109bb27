"""Closed-form traffic of an honest verified multiply, read from its
transcript alone.

A field element is one entry of an ndarray in an envelope's payload.
In an EVSS batch without adversaries every dealer sends every other
party one deal envelope ("evd", iids, f stack, g stack) holding
2·K·(d+1)·r·c field elements for its K instances of degree d and
value shape (r, c). The mask batch (…mul:o) deals
G = ⌈(m+t-1)/(2m-1)⌉ instances per worker at degree
D = min(2m-1, m+t-1) + t - 1.

In the cross round, worker i sends worker j one envelope ("evx", iids,
U, V) with the points of every instance that neither i nor j dealt:
2·(K - K_i - K_j)·r·c field elements for a batch of K instances of
which i dealt K_i and j dealt K_j. The mask batch's envelopes therefore
hold 2·(N-2)·G·z·w.

In the gap check (…:par) every live worker broadcasts, for each family
with gap ζ ≥ 2 and each checked origin, coefficients 1..ζ-1 of the g it
holds from that origin's deal: Σ_f |checked_f|·(ζ_f - 1)·r_f·c_f field
elements per envelope.
"""

from collections import Counter

import numpy as np
import pytest

from compc.gf import FMatrix
from compc.mpc import ProgramOp, execute
from compc.net import BCAST, PRIV, Scenario

P = 97


def field_elements(payload):
    count = 0
    stack = [payload]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            count += obj.size
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return count


def honest_multiply(m, t):
    n, z = 3 * t + 2 * m - 1, 2 * m
    rng = np.random.default_rng(10 * m + t)
    inputs = tuple(FMatrix(rng.integers(0, P, size=(z, z)), P)
                   for _ in range(2))
    program = (ProgramOp("share", (0, "direct"), "a"),
               ProgramOp("share", (1, "reverse"), "b"),
               ProgramOp("mul", ("a", "b"), "c"),
               ProgramOp("reveal", ("c",)))
    s = Scenario(n=n, t=t, m=m, p=P, seed=5, z=z, program=program,
                 inputs=inputs).validate()
    tr = execute(s)
    want = (inputs[0].a @ inputs[1].a.T) % P
    assert np.array_equal(tr.master_output.a, want)
    return s, tr


def mask_groups_and_degree(m, t):
    g = -(-(m + t - 1) // (2 * m - 1))
    return g, min(2 * m - 1, m + t - 1) + t - 1


def expected_batches(m, t, z):
    """{deal phase: (instances per dealer K, degree d, (r, c))}."""
    w, dmax = z // m, m + t - 1
    g, d = mask_groups_and_degree(m, t)
    out = {"r0shr:deal": (1, dmax, (z, w)), "r1shr:deal": (1, dmax, (z, w)),
           "r2mul:a:q:deal": (1, dmax, (z, w)),
           "r2mul:o:deal": (g, d, (z, w)),
           "r2mul:c:deal": (1, dmax, (z, w))}
    for j in range(m):
        # leg j re-shares with zeta = m - j
        out[f"r2mul:b{j}:q:deal"] = (1, m - j + t - 1, (w, w))
    return out


SHAPES = [(2, 1), (2, 3)]


@pytest.mark.parametrize("m,t", SHAPES)
def test_every_deal_envelope_matches_the_closed_form(m, t):
    s, tr = honest_multiply(m, t)
    batches = expected_batches(m, t, s.z)
    deals = [e for e in tr.envelopes if e.phase.endswith(":deal")]
    assert {e.phase for e in deals} == set(batches)
    for phase, (k, d, (r, c)) in batches.items():
        sent = {}
        for e in deals:
            if e.phase != phase:
                continue
            assert e.channel == PRIV and e.payload[0] == "evd"
            assert len(e.payload[1]) == k, (phase, e.sender)
            assert field_elements(e.payload) == 2 * k * (d + 1) * r * c, \
                (phase, e.sender, e.recipient)
            sent.setdefault(e.sender, set()).add(e.recipient)
        for dealer, to in sent.items():
            assert to == set(s.workers) - {dealer}, (phase, dealer)


@pytest.mark.parametrize("m,t", SHAPES)
def test_mask_batch_deals_one_instance_per_group(m, t):
    s, tr = honest_multiply(m, t)
    g, d = mask_groups_and_degree(m, t)
    deals = [e for e in tr.envelopes if e.phase == "r2mul:o:deal"]
    assert {e.sender for e in deals} == set(s.workers)
    for e in deals:
        _, iids, fs, gs = e.payload
        assert iids == tuple(f"o{e.sender:03d}x{k:02d}" for k in range(g))
        assert fs.shape == gs.shape == (g, d + 1, s.z, s.z // m)


@pytest.mark.parametrize("m,t", SHAPES)
def test_mask_cross_round_per_ordered_pair(m, t):
    s, tr = honest_multiply(m, t)
    g, _ = mask_groups_and_degree(m, t)
    cross = [e for e in tr.envelopes if e.phase == "r2mul:o:cross"]
    pairs = {(e.sender, e.recipient) for e in cross}
    assert len(cross) == len(pairs) == s.n * (s.n - 1)
    for e in cross:
        assert len(e.payload[1]) == (s.n - 2) * g
        assert field_elements(e.payload) == \
            2 * (s.n - 2) * g * s.z * (s.z // m)


@pytest.mark.parametrize("m,t", SHAPES)
def test_cross_envelopes_skip_what_either_end_dealt(m, t):
    s, tr = honest_multiply(m, t)
    batches = expected_batches(m, t, s.z)
    dealer = {}     # batch prefix -> {iid: dealer}
    for e in tr.envelopes:
        if e.phase.endswith(":deal"):
            dealer.setdefault(e.phase.rsplit(":", 1)[0], {}).update(
                dict.fromkeys(e.payload[1], e.sender))
    cross = [e for e in tr.envelopes if e.phase.endswith(":cross")]
    assert {e.phase.rsplit(":", 1)[0] for e in cross} == set(dealer)
    for prefix, of in dealer.items():
        _, _, (r, c) = batches[f"{prefix}:deal"]
        k = Counter(of.values())
        owed = {(i, j): len(of) - k[i] - k[j] for i in s.workers
                for j in s.workers if i != j}
        sent = [e for e in cross if e.phase == f"{prefix}:cross"]
        assert sorted((e.sender, e.recipient) for e in sent) == \
            sorted(pair for pair in owed if owed[pair])
        for e in sent:
            assert e.channel == PRIV and e.payload[0] == "evx"
            assert not {of[iid] for iid in e.payload[1]} \
                & {e.sender, e.recipient}
            assert field_elements(e.payload) == \
                2 * owed[e.sender, e.recipient] * r * c, (e.phase, e.sender)


def gap_families(m, t, z):
    """(deal phase, ζ, (r, c)) of every family a MUL gap-checks, in the
    order of its stacks on r2mul:par; a family dealt at degree d has
    gap ζ = d - t + 1."""
    batches = expected_batches(m, t, z)
    phases = ["r2mul:a:q:deal"] + [f"r2mul:b{j}:q:deal" for j in range(m)]
    families = [(ph, batches[ph][1] - t + 1, batches[ph][2]) for ph in phases]
    return [f for f in families if f[1] >= 2]


@pytest.mark.parametrize("m,t", SHAPES)
def test_gap_envelopes_hold_the_gap_coefficients(m, t):
    s, tr = honest_multiply(m, t)
    families = gap_families(m, t, s.z)
    checked = [len({e.sender for e in tr.envelopes if e.phase == phase})
               for phase, _, _ in families]
    par = [e for e in tr.envelopes if e.phase.endswith(":par")]
    assert sorted(e.sender for e in par) == list(s.workers)
    for e in par:
        assert e.phase == "r2mul:par" and e.channel == BCAST
        assert field_elements(e.payload) == sum(
            k * (zeta - 1) * r * c
            for k, (_, zeta, (r, c)) in zip(checked, families))


@pytest.mark.parametrize("m,t", SHAPES)
def test_gap_rows_are_the_coefficients_each_party_was_dealt(m, t):
    s, tr = honest_multiply(m, t)
    rows = {e.sender: e.payload[1] for e in tr.envelopes
            if e.phase == "r2mul:par"}
    for fx, (phase, zeta, _) in enumerate(gap_families(m, t, s.z)):
        # ("evd", iids, f stack, g stack): one instance per dealer
        g = {(e.sender, e.recipient): e.payload[3][0]
             for e in tr.envelopes if e.phase == phase}
        origins = sorted({o for o, _ in g})
        for i, stacks in rows.items():
            got = stacks[fx].reshape(
                (len(origins), zeta - 1) + stacks[fx].shape[1:])
            for o, row in zip(origins, got):
                if o != i:      # a dealer's own g never travels
                    assert np.array_equal(row, g[o, i][1:zeta]), (fx, i, o)
