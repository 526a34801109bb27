"""Programs over block-shared matrices with verified multiplication.

A secret enters the pool split into m column blocks: block j rides
coefficient j of the share polynomial (flipped order for reverse
sharings) and t uniform masks sit above the data. Multiplication pairs
a direct left operand with a reverse right operand, because
coefficient m-1 of the pointwise product of their share polynomials is
the full matrix product. Each worker re-shares its two points with
calibrated interior gaps, multiplies the re-sharing polynomials, and
subtracts masked powers so that its published product polynomial keeps
degree m+t-1 while its low coefficients carry exactly the column
blocks of the local product. One public coefficient-extraction
combination then turns the workers' product polynomials into a fresh
direct sharing of the product.

Under active corruption each worker re-shares its left value (gap
m-1) and its right row pieces (piece j with gap m-1-j) as m+1 verified
families. Each family deals through its own EVSS batch (at m = 1 the
two families have the same gap and shape and share one), and a dealer
a batch rejects deals in no later one; all families then share one
syndrome broadcast and one gap-coefficient broadcast, so an honest multiply
takes 3m + 12 rounds for m >= 2 and t >= 1. Each worker derives its
masks and product polynomial from the polynomials it dealt and deals
them through the consistency layer, and each worker checks the product
relation at its own point. The check only uses
sum_l x^(m+l) O_l, so a worker deals its m+t-1 masks as
G = ceil((m+t-1)/(2m-1)) polynomials of degree
D = min(2m-1, m+t-1) + t - 1, one per group of at most 2m-1 masks (at
m = 1 one per mask, of degree t); a partial group comes first, which
keeps every sum_k x^(m+a_k) M_k an EVSS dealer can deal within the
product's degree 2m+2t-2 (mask_layout). A step's complaints are
settled in one broadcast: each live party sends its cross value at
the complainer's point of everything the accused dealt, each value is
decoded in the open (eval_shared_poly) and the relation is re-run.
The group cap keeps D <= 2m+t-2, the largest degree that decodes with
t errors among 3t+2m-1 points. A relation that fails publicly
eliminates the dealer; a false accusation costs the accused nothing.
Extraction weights are recomputed over the survivors, so at least
2m+2t-1 of the product polynomials must remain usable.

Direction swaps and transposition re-share each point under one leg
per output position (gap m-1-j for position j), with the legs sharing
their verification rounds as above, and recombine the legs with
extraction weights; with m = 1 both are local share rewrites.
"""

from typing import NamedTuple

import numpy as np

from .errors import (DegreeMismatch, ParameterViolation, ProtocolAbort,
                     TooFewSurvivors)
from .evss import BatchInstance, evss_deal, evss_deal_poly, run_evss_batch
from .gf import FMatrix, mat_mul
from .net import BCAST, PRIV, Field, Network, Transcript, rng_for, tagged
from .poly import MatPoly, coeff_extraction_combo, horner
from .sharing import (DIRECT, REVERSE, Share, ShareLabel, make_share_poly,
                      robust_reconstruct)
from .subroutines import (BAD_PRODUCT, ActiveSet, _deal_batch, _padded,
                          _record_eliminations, eval_shared_poly,
                          subshare_of_shares, verify_gap_form)


def recovery_threshold(m, t):
    """Smallest worker count that tolerates t cheaters at block count m."""
    if m < 1 or t < 0:
        raise ParameterViolation(f"bad parameters m={m}, t={t}")
    return 3 * t + 2 * m - 1


class SharedMatrix(NamedTuple):
    """A value the pool holds jointly: party -> share polynomial point."""
    label: ShareLabel
    shares: dict        # party -> (z, z/m) int64 ndarray
    z: int


class ProgramOp(NamedTuple):
    kind: str           # share | mul | add | transpose | d2r | r2d | reveal
    args: tuple = ()
    dest: str = ""


def _held(sv, party):
    v = sv.shares.get(party)
    if v is None:
        return np.zeros((sv.z, sv.z // sv.label.m), dtype=np.int64)
    return v


def build_masks(a_n, b_n, m, t, rng):
    """Masks cancelling the high product coefficients, grouped as dealt.

    The masks O_0..O_{m+t-2} have degree at most t and uniform lower
    coefficients. Subtracting x^(m+l) O_l from a_n * b_n^T removes
    every coefficient above m+t-1 and keeps coefficients 0..m-1: a
    descending recursion fixes each top coefficient to the product
    coefficient at its power minus what the masks above inject there.
    Returns [(a_k, M_k)] in mask_layout order, M_k(x) =
    sum_l x^(l-a_k) O_l(x) over group k, so that sum_k x^(m+a_k) M_k =
    sum_l x^(m+l) O_l. Each M_k has degree at most
    min(2m-1, m+t-1) + t - 1 (see mask_layout); none at t = 0.
    """
    p = a_n.p
    dmax = m + t - 1
    prod = a_n.mul(b_n.transpose_coeffs())
    # at t = 0 no mask is returned, so the product must fit degree m-1
    if max(a_n.degree, b_n.degree) > dmax or not t and prod.degree > dmax:
        raise DegreeMismatch(
            f"operand degrees {a_n.degree}, {b_n.degree} exceed {dmax}")
    shape = prod.shape
    d = np.zeros((2 * dmax + 1,) + shape, dtype=np.int64)
    d[:prod.c.shape[0]] = prod.c
    count = m + t - 1
    o = np.zeros((count, t + 1) + shape, dtype=np.int64)
    for l in range(count):
        for q in range(t):
            o[l, q] = rng.integers(0, p, size=shape)
    for e in range(2 * dmax, dmax, -1):
        lead = e - m - t
        acc = d[e].copy()
        for l in range(lead + 1, min(count - 1, e - m) + 1):
            acc = (acc - o[l, e - m - l]) % p
        o[lead, t] = acc
    starts, _ = mask_layout(m, t)
    groups = []
    for a, b in zip(starts, starts[1:] + [count]):
        mk = np.zeros((b - a + t,) + shape, dtype=np.int64)
        for l in range(a, b):
            mk[l - a:l - a + t + 1] += o[l]
        groups.append((a, MatPoly(mk, p)))
    return groups


def mask_layout(m, t):
    """(starts, size) of the grouped mask deal.

    The m+t-1 masks form G = ceil((m+t-1)/(2m-1)) groups of at most
    size = min(2m-1, m+t-1) masks, each dealt under a label of degree
    D = size + t - 1. Group 0 starts at mask 0 and takes the remainder
    r = (m+t-1) - (G-1)(2m-1); group k >= 1 starts at r + (k-1)(2m-1).
    Every group then satisfies a_k + size <= m+t-1, which is
    m + a_k + D <= 2m+2t-2: x^(m+a_k) M_k stays within the product's
    degree for any M_k of degree D that EVSS accepts, and the product
    relation holding at 2m+2t-1 honest points is an identity. A partial
    group on top would break this: at m=2, t=3 it would start at mask
    3 and reach degree 10 > 8. At t = 0 the masks are identically zero
    and nothing is dealt.
    """
    count = m + t - 1
    if not t:
        return [], 0
    size = min(2 * m - 1, count)
    rest = count - (-(-count // size) - 1) * size
    return [0] + list(range(rest, count, size)), size


def masked_product(a_n, b_n, groups, m):
    """C_n = a_n * b_n^T - sum_k x^(m+a_k) M_k over build_masks' groups."""
    out = a_n.mul(b_n.transpose_coeffs())
    for a, mk in groups:
        out = out - mk.shift(m + a)
    return out


def multiply_semi_honest(a, b, m, t, n, rng=None):
    """One multiplication under passive corruption, simulated locally.

    Shares a directly and b in reverse, builds every worker's masked
    product polynomial, and recombines with the coefficient-(m-1)
    extraction weights. Returns {worker: Share} carrying a direct
    (m, t) sharing of a * b^T; needs n >= 2m+2t-1 workers and m | z.
    """
    p = a.p
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ParameterViolation("operands must be square and equal-sized")
    z = a.shape[0]
    if m < 1 or z % m:
        raise ParameterViolation("m must divide the matrix dimension")
    if n < 2 * m + 2 * t - 1:
        raise ParameterViolation(f"{n} workers below {2 * m + 2 * t - 1}")
    if rng is None:
        rng = np.random.default_rng(0)
    w = z // m
    points = list(range(1, n + 1))
    va = make_share_poly(a, ShareLabel(m, t, 0, DIRECT), rng).eval_many(points)
    vb = make_share_poly(b, ShareLabel(m, t, 0, REVERSE), rng).eval_many(points)
    cpolys = []
    for ix in range(n):
        qa = make_share_poly(FMatrix(va[ix], p), ShareLabel(1, t, m - 1), rng)
        qb = MatPoly.zero(w, w, p)
        for j in range(m):
            piece = FMatrix(vb[ix][j * w:(j + 1) * w], p)
            qb = qb + make_share_poly(
                piece, ShareLabel(1, t, m - 1 - j), rng).shift(j)
        cpolys.append(masked_product(qa, qb, build_masks(qa, qb, m, t, rng), m))
    lam = coeff_extraction_combo(points, 2 * m + 2 * t - 2, m - 1, p)
    # c[ix, jx] = worker ix's product polynomial at point jx
    c = np.stack([cp.eval_many(points) for cp in cpolys])
    acc = mat_mul(np.array([lam]), c.reshape(n, -1), p).reshape(n, z, w)
    out_label = ShareLabel(m, t, 0, DIRECT)
    return {j: Share(out_label, j, j, FMatrix(acc[jx], p))
            for jx, j in enumerate(points)}


def _leg_families(network, scenario, prefix, active, m, value_at,
                  leg="l", lead=()):
    """Verified re-sharing of the lead families and m leg families in
    shared rounds; leg j (tag <prefix>:<leg><j>) re-shares
    value_at(j, party) with interior gap m-1-j. Returns
    ([{origin: SubshareBundle}] for the lead families, then the legs,
    active)."""
    dmax = m + scenario.t - 1
    families = list(lead) + [
        (f"{prefix}:{leg}{j}", {i: value_at(j, i) for i in active.active},
         dmax, m - j)
        for j in range(m)]
    bundles, active = subshare_of_shares(
        network, scenario, prefix, active, families)
    active = verify_gap_form(network, scenario, prefix, active, bundles)
    return bundles, active


def multiply_malicious(network, scenario, prefix, active, sa, sb):
    """Verified multiplication; returns (SharedMatrix, active).

    sa must be a zero-gap direct and sb a zero-gap reverse sharing
    under one (m, t). Worker points are re-shared and verified (left
    value with gap m-1, right row piece j with gap m-1-j), every
    worker deals its masks, one polynomial M_k per group of at most
    2m-1 (mask_layout, build_masks), and its masked product polynomial
    through the consistency layer, and the product relation
    C_n = a_n b_n^T - sum_k x^(m+a_k) M_k is checked at every point.
    All mask groups share one label of degree
    D = min(2m-1, m+t-1) + t - 1 in one batch on <prefix>:o (instance
    o<n>x<k>). The complaint broadcast runs in phase <prefix>:check and
    adversary strategies key on the "mul:check" suffix, so callers
    pass a prefix ending in "mul". All complaints are settled in one
    <prefix>:res broadcast, ordered by (accused, complainer), of the
    values in relation order (a, the b pieces, the mask groups, c);
    dealers confirmed by fewer than 2m+2t-1 live workers are dropped,
    and fewer than 2m+2t-1 usable dealers raises TooFewSurvivors.
    """
    s, p = scenario, scenario.p
    lab = sa.label
    m, t = lab.m, lab.t
    if lab.dir != DIRECT or sb.label.dir != REVERSE:
        raise ParameterViolation("multiply needs a direct lhs and a reverse rhs")
    if (sb.label.m, sb.label.t) != (m, t) or lab.delta or sb.label.delta:
        raise ParameterViolation("operand labels disagree")
    if sa.z != sb.z:
        raise ParameterViolation("operand sizes disagree")
    z = sa.z
    w = z // m
    dmax = m + t - 1
    floor = 2 * m + 2 * t - 1
    zero_zw = np.zeros((z, w), dtype=np.int64)
    zero_ww = np.zeros((w, w), dtype=np.int64)

    a_vals = {i: _held(sa, i) for i in active.active}
    bundles, active = _leg_families(
        network, s, prefix, active, m,
        lambda j, i: _held(sb, i)[j * w:(j + 1) * w], leg="b",
        lead=[(f"{prefix}:a", a_vals, dmax, m)])
    a_bundles, b_bundles = bundles[0], bundles[1:]

    # each surviving dealer's masks and product polynomial, derived
    # locally from the polynomials it dealt
    dealers = list(active.active)
    qa = {n: a_bundles[n].q for n in dealers}
    qb = {n: sum((b[n].q.shift(j) for j, b in enumerate(b_bundles)),
                 MatPoly.zero(w, w, p)) for n in dealers}
    groups = {n: build_masks(qa[n], qb[n], m, t,
                             rng_for(s.seed, n, f"{prefix}:mask"))
              for n in dealers}
    cpoly = {n: masked_product(qa[n], qb[n], groups[n], m) for n in dealers}

    # mask deals, one polynomial per group of mask_layout (group k
    # starts at mask starts[k]); none at t = 0
    starts, size = mask_layout(m, t)
    o_deg = size + t - 1
    o_deals = {}
    if starts:
        olab = ShareLabel(size, t, 0)
        tags = [(n, k) for n in dealers for k in range(len(starts))]
        instances = [
            BatchInstance(f"o{n:03d}x{k:02d}", n, olab,
                          evss_deal_poly(groups[n][k][1], olab,
                                         rng_for(s.seed, n,
                                                 f"{prefix}:o{k:02d}")))
            for n, k in tags]
        outcomes = _deal_batch(network, s, f"{prefix}:o", active,
                               instances, f"{prefix}:o")
        o_deals = {key: outcomes[b.iid] for key, b in zip(tags, instances)
                   if outcomes[b.iid].accepted}
        dealers = [n for n in dealers if n in active.active]

    clab = ShareLabel(m, t, 0, DIRECT)
    instances = [
        BatchInstance(f"c{n:03d}", n, clab,
                      evss_deal_poly(cpoly[n], clab,
                                     rng_for(s.seed, n, f"{prefix}:c")))
        for n in dealers]
    outcomes = _deal_batch(network, s, f"{prefix}:c", active,
                           instances, f"{prefix}:c")
    c_deals = {n: outcomes[b.iid] for n, b in zip(dealers, instances)
               if outcomes[b.iid].accepted}
    dealers = [n for n in dealers if n in active.active]

    def relation_at(j, point_values):
        av, pieces, ovals, cv = point_values
        bv = horner(np.stack(pieces), [j], p)[0]
        rhs = mat_mul(av, bv.T, p)
        for a, ov in zip(starts, ovals):
            rhs = (rhs - pow(j, m + a, p) * ov) % p
        return bool(np.array_equal(cv, rhs % p))

    def held_values(j, n):
        av = a_bundles[n].values.get(j, zero_zw)
        pieces = [b_bundles[k][n].values.get(j, zero_ww) for k in range(m)]
        held = [o_deals[n, k].shares[j] for k in range(len(starts))]
        *ovals, cv = [zero_zw if v is None else v
                      for v in held + [c_deals[n].shares[j]]]
        return av, pieces, ovals, cv

    outboxes = {}
    for j in active.active:
        items = []
        for n in dealers:
            if not relation_at(j, held_values(j, n)):
                items.append((BCAST, -1, ("mulcomplaint", n)))
        outboxes[j] = items
    check_phase = f"{prefix}:check"
    inboxes = network.exchange(check_phase, outboxes, active=active.active)
    complaints = {(sender, accused) for sender, (_, accused) in tagged(
        inboxes[0], BCAST, ("mulcomplaint", int))
        if sender in active.active and accused in dealers}

    # public settlement: one broadcast opens what each accused dealt
    settled = sorted((n, j) for j, n in complaints)
    if settled:
        before = set(active.eliminated)
        vals = eval_shared_poly(network, s, f"{prefix}:res", active, [
            poly for n, j in settled for poly in
            [(a_bundles[n].g, dmax, (z, w), j)]
            + [(b_bundles[k][n].g, dmax - k, (w, w), j) for k in range(m)]
            + [(o_deals[n, k].g, o_deg, (z, w), j)
               for k in range(len(starts))]
            + [(c_deals[n].g, dmax, (z, w), j)]])
        width = m + len(starts) + 2
        for x, (n, j) in enumerate(settled):
            av, *rest, cv = vals[x * width:(x + 1) * width]
            if not relation_at(j, (av, rest[:m], rest[m:], cv)):
                active.eliminate(n, BAD_PRODUCT)
        _record_eliminations(network, f"{prefix}:res", before, active)

    contested = {n: {c for c, a in complaints if a == n} for n in dealers}
    confirmed = []
    for n in dealers:
        if n not in active.active:
            continue
        quiet = sum(1 for i in active.active if i not in contested[n])
        if quiet >= floor:
            confirmed.append(n)
    if len(confirmed) < floor:
        raise TooFewSurvivors(
            f"{len(confirmed)} usable product dealers below {floor}")
    lam = coeff_extraction_combo(confirmed, 2 * m + 2 * t - 2, m - 1, p)
    live = active.active
    # c[nx, jx] = confirmed dealer nx's product share at live party jx
    c = np.array([list(_padded(c_deals[n].shares, live, zero_zw).values())
                  for n in confirmed])
    out = mat_mul(np.array([lam]), c.reshape(len(confirmed), -1), p)
    return SharedMatrix(clab, dict(zip(live, out.reshape(c.shape[1:]))),
                        z), active


def _recombined_legs(network, scenario, prefix, active, sv, value_at, picks):
    """Re-share every point of sv under m legs (leg j re-shares
    value_at(j, party) with gap m-1-j) and recombine them: leg j
    contributes extraction rows picks[j], row r extracting coefficient
    r over the survivors, and the legs are summed by Horner at each
    survivor's point. Returns ({party: (z, z/m) share}, active)."""
    s, p = scenario, scenario.p
    m, t = sv.label.m, sv.label.t
    z, w = sv.z, sv.z // m
    bundles, active = _leg_families(network, s, prefix, active, m, value_at)
    live = active.active
    if len(live) < m + t:
        raise TooFewSurvivors(
            f"{len(live)} survivors cannot rebuild degree {m + t - 1}")
    lam = np.array([coeff_extraction_combo(live, m + t - 1, r, p)
                    for r in range(m)])
    out = {}
    for i in live:
        # g[j] = leg j's picked extractions, one flat row each
        g = np.stack([
            mat_mul(lam[picks[j]],
                    np.stack([bundles[j][o].values[i] for o in live])
                    .reshape(len(live), -1), p)
            for j in range(m)])
        out[i] = horner(g.reshape(m, z, w), [i], p)[0]
    return out, active


def _swap_direction(network, scenario, prefix, active, sv, dfrom, dto):
    lab = sv.label
    if lab.dir != dfrom or lab.delta:
        raise ParameterViolation(f"expected a zero-gap {dfrom} sharing")
    m = lab.m
    out_label = ShareLabel(m, lab.t, 0, dto)
    if m == 1:
        # one block: both orders read the same polynomial
        return SharedMatrix(out_label, dict(sv.shares), sv.z), active
    # leg j carries input coefficient m-1-j, which is output position j
    out, active = _recombined_legs(
        network, scenario, prefix, active, sv,
        lambda j, i: _held(sv, i), [[m - 1 - j] for j in range(m)])
    return SharedMatrix(out_label, out, sv.z), active


def direct_to_reverse(network, scenario, prefix, active, sv):
    """Reverse sharing of the same secret. Position j of the output
    combines the legs extracting input coefficient m-1-j."""
    return _swap_direction(network, scenario, prefix, active, sv,
                           DIRECT, REVERSE)


def reverse_to_direct(network, scenario, prefix, active, sv):
    return _swap_direction(network, scenario, prefix, active, sv,
                           REVERSE, DIRECT)


def transpose_shares(network, scenario, prefix, active, sv):
    """Direct sharing of the transposed secret.

    Output block r stacks the transposed row pieces taken across the
    input blocks, so leg family i re-shares each worker's transposed
    row piece i and the output piece (r, i) extracts coefficient r
    from family i. With m = 1 transposing the share is enough.
    """
    lab = sv.label
    if lab.dir != DIRECT or lab.delta:
        raise ParameterViolation("expected a zero-gap direct sharing")
    m = lab.m
    if m == 1:
        out = {i: _held(sv, i).T.copy() for i in active.active}
        return SharedMatrix(lab, out, sv.z), active
    w = sv.z // m
    # every leg takes all m extraction rows: output block r is
    # sum_fam i^fam (row r of family fam)
    out, active = _recombined_legs(
        network, scenario, prefix, active, sv,
        lambda j, i: _held(sv, i)[j * w:(j + 1) * w].T.copy(),
        [slice(None)] * m)
    return SharedMatrix(lab, out, sv.z), active


def add_shares(sa, sb, active, p):
    """Pointwise share addition; labels must match exactly."""
    if sa.label != sb.label or sa.z != sb.z:
        raise ParameterViolation("addition needs matching labels")
    out = {i: (_held(sa, i) + _held(sb, i)) % p for i in active.active}
    return SharedMatrix(sa.label, out, sa.z)


def _share_input(network, scenario, prefix, active, src_ix, direction):
    s = scenario
    lab = ShareLabel(s.m, s.t, 0, direction)
    source = s.n + 1 + src_ix
    deal = evss_deal(s.inputs[src_ix], lab,
                     rng_for(s.seed, source, f"{prefix}:deal"))
    out = run_evss_batch(network, scenario=s, prefix=prefix, instances=[
        BatchInstance("inp", source, lab, deal)])["inp"]
    if not out.accepted:
        # sources are honest, so a rejection means the run is hopeless
        raise ProtocolAbort("InputRejected", f"source {source}")
    shares = {j: v for j, v in out.shares.items() if v is not None}
    return SharedMatrix(lab, shares, s.z), active


def _reveal(network, scenario, prefix, active, sv):
    s, p = scenario, scenario.p
    lab = sv.label
    z, w = sv.z, sv.z // lab.m
    phase = f"{prefix}:send"
    outboxes = {j: [(PRIV, 0, ("out", _held(sv, j)))] for j in active.active}
    inboxes = network.exchange(phase, outboxes)
    got = {}
    for sender, (_, v) in tagged(inboxes[0], PRIV, ("out", Field((z, w), p))):
        if sender in active.active:
            got.setdefault(sender, v)
    recs = [Share(lab, j, j, FMatrix(v, p)) for j, v in got.items()]
    # withholding removes an error along with its point, so shrink the
    # budget to what the received count can actually correct
    t_eff = min(active.budget(s.t), max(0, (len(recs) - lab.threshold) // 2))
    secret, corrected = robust_reconstruct(recs, lab, t_eff)
    for party in sorted(corrected):
        network.transcript.add_event("correct", phase, party)
    network.transcript.master_output = secret
    return secret


# the op kinds whose arguments are all register names
_READS = ("mul", "add", "transpose", "d2r", "r2d", "reveal")


def check_program(program, n_inputs):
    """Refuse a program, before any round runs, if an op has an unknown
    kind, reads a register no earlier op wrote, or shares a source
    index outside [0, n_inputs) or in a direction other than direct
    and reverse."""
    defined = set()
    for op in program:
        op = ProgramOp(*op)
        if op.kind == "share":
            if not 0 <= op.args[0] < n_inputs:
                raise ParameterViolation(f"no input {op.args[0]}")
            if op.args[1] not in (DIRECT, REVERSE):
                raise ParameterViolation(
                    f"unknown direction {op.args[1]!r}")
        elif op.kind not in _READS:
            raise ParameterViolation(f"unknown op kind {op.kind!r}")
        elif not defined.issuperset(op.args):
            raise ParameterViolation(
                f"undefined register in {op.kind} {op.args!r}")
        if op.kind != "reveal":
            defined.add(op.dest)


def execute(scenario):
    """Run the scenario's program over a fresh network; returns the
    Transcript (master_output set by the last reveal op). The program
    is checked whole before the first round."""
    s = scenario
    check_program(s.program, len(s.inputs))
    transcript = Transcript()
    network = Network(s, transcript)
    active = ActiveSet(s.workers)
    regs = {}
    for ix, op in enumerate(s.program):
        op = ProgramOp(*op)
        args = [regs[a] for a in op.args] if op.kind in _READS else op.args
        if op.kind == "share":
            regs[op.dest], active = _share_input(
                network, s, f"r{ix}shr", active, *args)
        elif op.kind == "mul":
            regs[op.dest], active = multiply_malicious(
                network, s, f"r{ix}mul", active, *args)
        elif op.kind == "add":
            regs[op.dest] = add_shares(*args, active, s.p)
        elif op.kind == "transpose":
            regs[op.dest], active = transpose_shares(
                network, s, f"r{ix}tr", active, *args)
        elif op.kind == "d2r":
            regs[op.dest], active = direct_to_reverse(
                network, s, f"r{ix}rev", active, *args)
        elif op.kind == "r2d":
            regs[op.dest], active = reverse_to_direct(
                network, s, f"r{ix}dir", active, *args)
        else:
            _reveal(network, s, f"r{ix}out", active, *args)
    return transcript
