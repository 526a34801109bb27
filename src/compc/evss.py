"""Verifiable secret sharing with a bivariate consistency check.

The dealer embeds the share polynomial Q(z) into a uniformly random
bivariate S(x, y) of degree d = m+delta+t-1 in each variable with
S(0, y) = Q(y), and privately sends party i the pair
f_i(x) = S(x, alpha_i), g_i(y) = S(alpha_i, y). Each two workers i
and j that are not the dealer exchange the cross evaluations
f_i(alpha_j), g_i(alpha_j); the dealer sends no cross points and is
sent none, since it chose both sides of any check it would take part
in. Parties broadcast complaints about mismatches, the dealer answers
complaints whose claimed values are wrong by revealing the
complainer's polynomial pair, and everyone votes. At least N-t
Consistent votes accept the sharing, and party i's share is
f_i(0) = Q(alpha_i). With a corrupt dealer those votes include at
least N-2t honest non-dealers, and each of them checks both values
of every pair it shares with another, so each sees its own mismatch
in time to complain.

Vote rules:
  - a party with no deal and no reveal addressed to it withholds;
  - an unanswered self-complaint makes everyone withhold;
  - a complaint pair in both directions between j and k, with neither
    polynomial revealed and mutually inconsistent claimed values,
    makes everyone withhold (mutually consistent claims indicate a
    false accusation, not a bad dealer, and are ignored);
  - a revealed polynomial that conflicts with a party's own pair
    makes that party withhold;
  - a party whose own pair was revealed adopts it and votes Consistent
    iff the revealed pair matches every cross point it holds (none
    from the dealer).
If nobody complains, everyone accepts immediately and the resolve and
vote rounds carry no messages.

One driver, run_evss_batch, applies these rules to many same-shaped
instances over the simulated network in five rounds. complaints_for
alone decides which cross points are wrong, in one call per party over
every instance it holds; reveals_for and vote_for decide each
contested instance.
Each payload is read with one strict form per tag and dropped whole
if any item does not fit, so a malformed claim or revealed pair counts
as a complaint or an answer never sent.
The test suite keeps a per-party state machine over the same rules
(tests/evss_machine.py) as the reference the batch runner is checked
against.

Per-instance parameter bounds are not enforced here; the scenario-wide
recovery threshold admitted at configuration time covers every label
this package deals.
"""

from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import ParameterViolation
from .net import BCAST, PRIV, Field, tagged
from .poly import horner
from .sharing import make_share_poly


@dataclass(frozen=True)
class EvssDeal:
    grid: np.ndarray          # (d+1, d+1, rows, cols), grid[0] = Q coeffs
    label: object
    p: int

    @property
    def d1(self):
        return self.grid.shape[0]

    @property
    def shape(self):
        return self.grid.shape[2:]

    def polys_for(self, alpha):
        """(f coeffs, g coeffs) for the party at `alpha`:
        f(x) = S(x, alpha) and g(y) = S(alpha, y)."""
        fc, gc = horner(np.stack([np.moveaxis(self.grid, 1, 0), self.grid],
                                 axis=1), [alpha], self.p)[0]
        return fc, gc


def evss_deal_poly(q, label, rng):
    """Deal a given polynomial q (degree <= label.degree)."""
    if q.degree > label.degree:
        raise ParameterViolation(
            f"degree {q.degree} exceeds label bound {label.degree}")
    d1 = label.degree + 1
    r, c = q.shape
    grid = rng.integers(0, q.p, size=(d1, d1, r, c))
    grid[0] = 0
    grid[0, :q.c.shape[0]] = q.c
    return EvssDeal(grid, label, q.p)


def evss_deal(w, label, rng):
    """Deal secret w: build the masked share polynomial, then embed it."""
    return evss_deal_poly(make_share_poly(w, label, rng), label, rng)


def _pair_form(d1, shape, p):
    """Form of a revealed (f, g) pair: two field arrays of d1
    coefficients of `shape`."""
    return (Field((d1,) + tuple(shape), p),) * 2


def complaints_for(sent, recv):
    """Pair claims of one party from the cross stacks it sent and the
    ones it received, both keyed by the other worker j as (iids, U, V).
    sent[j] holds U[k] = f_k(a_j), V[k] = g_k(a_j) for every instance
    iids[k] that the party holds and neither it nor j dealt; recv[j] is
    the stack j sent, whose rows must be (g_k(a_j), f_k(a_j)). Returns
    (iid, j, f_i(a_j), g_i(a_j)) in (iid, j) order for every instance
    of sent[j] whose points from j are missing or differ. A party with
    no pair self-complains instead."""
    out = []
    for j, (iids, u, v) in sent.items():
        got, us, vs = recv.get(j, ((), u[:0], v[:0]))
        if got == iids:
            bad = (us != v) | (vs != u)
        else:
            # align j's stack to iids once; a missing instance stays bad
            pos = {iid: k for k, iid in enumerate(got)}
            at = np.array([pos.get(iid, -1) for iid in iids])
            k = np.flatnonzero(at >= 0)
            bad = np.ones(u.shape, dtype=bool)
            bad[k] = (us[at[k]] != v[k]) | (vs[at[k]] != u[k])
        # copies: a view would keep the whole stack alive in the transcript
        out += [(iids[k], j, u[k].copy(), v[k].copy())
                for k in np.flatnonzero(bad.reshape(len(iids), -1).any(1))]
    return sorted(out, key=lambda c: c[:2])


def reveals_for(deal, selfs, claims):
    """Dealer's answers: {party: (fc, gc)} for every self-complainer in
    `selfs` and every complainer whose claim in `claims`, keyed by
    (complainer, j), is wrong. Complainers are workers: ingest drops
    complaints from anyone else."""
    if deal is None:
        return {}
    out = {}
    for i in sorted(selfs | {c for c, _ in claims}):
        pair = deal.polys_for(i)
        js = [j for c, j in claims if c == i]
        # own[x] = (f_i(a_j), g_i(a_j)) = (S(a_j, a_i), S(a_i, a_j))
        own = horner(np.stack(pair, axis=1), js, deal.p)
        if i in selfs or not all(
                np.array_equal(claims[i, j][0], f)
                and np.array_equal(claims[i, j][1], g)
                for j, (f, g) in zip(js, own)):
            out[i] = pair
    return out


def vote_for(party, polys, cross_in, selfs, claims, reveals, p):
    """(vote, adopted polys) under the module's vote rules, given the
    self-complainers, the pair claims keyed by (complainer, j) and
    the revealed pairs keyed by owner; the caller validates each
    payload once, at ingest."""
    polys = reveals.get(party, polys)
    if polys is None:
        return False, None
    fc, gc = polys

    # (x, values that must equal (g(x), f(x)) of the adopted pair)
    checks = []
    vote = True
    if party in reveals:
        checks += cross_in.items()

    # unanswered self-complaints block everyone
    if selfs - reveals.keys():
        vote = False

    # bidirectional complaint pairs with no reveal and clashing claims
    for (i, j), (u_ij, v_ij) in claims.items():
        if i >= j or i in reveals or j in reveals:
            continue
        back = claims.get((j, i))
        if back is None:
            continue
        if not (np.array_equal(u_ij, back[1])
                and np.array_equal(v_ij, back[0])):
            vote = False

    # every other reveal must match my own pair:
    # (f_k(a_party), g_k(a_party)) = (g(a_k), f(a_k))
    others = [(k, pair) for k, pair in reveals.items() if k != party]
    if others:
        theirs = horner(np.stack([np.stack(pair, axis=1)
                                  for _, pair in others], axis=1),
                        [party], p)[0]
        checks += [(k, got) for (k, _), got in zip(others, theirs)]

    if checks:
        mine = horner(np.stack([gc, fc], axis=1), [x for x, _ in checks], p)
        if not all(np.array_equal(got[0], g) and np.array_equal(got[1], f)
                   for (_, got), (g, f) in zip(checks, mine)):
            vote = False

    return vote, polys


# ---------------------------------------------------------------------------
# batched driver over the simulated network


class BatchInstance(NamedTuple):
    iid: str
    dealer: int
    label: object
    deal: EvssDeal


class EvssOutcome(NamedTuple):
    accepted: bool
    shares: dict    # worker -> ndarray f_i(0), or None
    g: dict         # worker -> (d+1, rows, cols) coeffs of g_i, or None


def run_evss_batch(network,
                   *,  # mulperf's tracer misnames positional arguments
                   scenario, prefix, instances):
    """Run many same-shaped instances through five network rounds.

    All instances must share one (degree, value shape). Returns
    {iid: EvssOutcome}. Each party evaluates the pairs it holds at the
    other workers once. In the cross round worker i sends worker j the
    points of exactly the instances it holds that neither i nor j
    dealt, one envelope per ordered pair that has any, and
    complaints_for checks them against the stack j sent back. Points
    on an instance dealt by either end are never read. Claims about
    and reveals for a non-worker are ignored. An instance
    nobody complained about finishes at the complaint round; the
    resolve and vote rounds run only when something was contested.
    """
    s = scenario
    p = s.p
    instances = sorted(instances, key=lambda b: b.iid)
    if len({b.iid for b in instances}) != len(instances):
        raise ParameterViolation("duplicate instance ids")
    d1 = instances[0].deal.d1
    shape = instances[0].deal.shape
    for b in instances:
        if b.deal.d1 != d1 or b.deal.shape != shape:
            raise ParameterViolation("mixed shapes in one batch")
    workers = s.workers
    all_iids = tuple(b.iid for b in instances)
    registry = {b.iid: {"dealer": b.dealer, "label": b.label}
                for b in instances}
    states = {i: {} for i in workers}
    ctx = {"instances": registry, "states": states}

    # round 1: deals (dealers adopt their own pair immediately)
    by_dealer = {}
    for b in instances:
        by_dealer.setdefault(b.dealer, []).append(b)
    outboxes = {}
    for d, insts in sorted(by_dealer.items()):
        iids = tuple(b.iid for b in insts)
        grids = np.stack([b.deal.grid for b in insts])    # (K, a, b, r, c)
        # fcs[i, k, a] = sum_b grid_k[a, b] alpha_i^b is f_i's
        # coefficient a; gcs[i, k, b] = sum_a grid_k[a, b] alpha_i^a
        fcs = horner(np.moveaxis(grids, 2, 0), workers, p)
        gcs = horner(np.moveaxis(grids, 1, 0), workers, p)
        if d in workers:
            dx = workers.index(d)
            for k, b in enumerate(insts):
                states[d][b.iid] = (fcs[dx, k], gcs[dx, k])
        outboxes[d] = [(PRIV, j, ("evd", iids, fcs[jx], gcs[jx]))
                       for jx, j in enumerate(workers) if j != d]
    inboxes = network.exchange(f"{prefix}:deal", outboxes, **ctx)

    # a malformed stack is dropped whole: its recipient self-complains
    stack = Field((None, d1) + tuple(shape), p)
    for i in workers:
        for sender, (_, iids, fs, gs) in tagged(
                inboxes[i], PRIV, ("evd", [str], stack, stack)):
            if not len(iids) == len(fs) == len(gs):
                continue
            for k, iid in enumerate(iids):
                if iid in registry and registry[iid]["dealer"] == sender \
                        and iid not in states[i]:
                    states[i][iid] = (fs[k], gs[k])

    # round 2: worker i sends worker j the points of every instance it
    # holds that neither of them dealt: a check with the dealer at one
    # end decides nothing, since the dealer chose both of its sides
    outboxes = {}
    sent = {}
    ids_of = {}     # two parties holding the same ids share one tuple
    for i in workers:
        held = tuple(sorted(states[i]))
        sent[i] = {}
        if held:
            dealt = np.array([registry[iid]["dealer"] for iid in held])
            # (d+1, K, rows, cols) -> u[x, k] = f_k(alpha_others[x])
            others = tuple(j for j in workers if j != i)
            u, v = (horner(np.stack([states[i][iid][c] for iid in held],
                                    axis=1), others, p) for c in (0, 1))
            for x, j in enumerate(others):
                keep = (dealt != i) & (dealt != j)
                if keep.any():
                    key = (held, min(i, j), max(i, j))
                    if key not in ids_of:
                        ids_of[key] = tuple(compress(held, keep.tolist()))
                    sent[i][j] = (ids_of[key], u[x, keep], v[x, keep])
        outboxes[i] = [(PRIV, j, ("evx",) + stack)
                       for j, stack in sent[i].items()]
    inboxes = network.exchange(f"{prefix}:cross", outboxes, **ctx)

    # recv[i][j] = (iids, U stack, V stack), validated on ingest
    recv = {i: {} for i in workers}
    points = Field((None,) + tuple(shape), p)
    for i in workers:
        for sender, (_, iids, us, vs) in tagged(
                inboxes[i], PRIV, ("evx", [str], points, points)):
            if sender not in workers or sender == i or sender in recv[i]:
                continue
            if len(set(iids)) == len(iids) == len(us) == len(vs):
                recv[i][sender] = (iids, us, vs)

    def cross_views(i, iid):
        """{sender: (u, v)} as vote_for expects, from the senders that
        owe i points on iid: neither end dealt it."""
        dealer = registry[iid]["dealer"]
        out = {}
        for j, (iids, us, vs) in recv[i].items():
            if dealer not in (i, j) and iid in iids:
                k = iids.index(iid)
                out[j] = (us[k], vs[k])
        return out

    # round 3: ("evc", self-complained ids, ((iid, j, u, v), ...) pair
    # claims); a party self-complains about every instance it lacks
    outboxes = {}
    for i in workers:
        missing = tuple(iid for iid in all_iids if iid not in states[i])
        pairs = tuple(complaints_for(sent[i], recv[i]))
        outboxes[i] = [(BCAST, -1, ("evc", missing, pairs))] \
            if missing or pairs else []
    inboxes = network.exchange(f"{prefix}:complain", outboxes, **ctx)

    # per instance: the self-complainers, and claims keyed by
    # (complainer, j); a repeated claim keeps its first value
    selfs = {iid: set() for iid in all_iids}
    claims = {iid: {} for iid in all_iids}
    claim = Field(tuple(shape), p)
    for sender, (_, self_iids, pairs) in tagged(
            inboxes[workers[0]], BCAST,
            ("evc", [str], [(str, int, claim, claim)])):
        if sender not in workers:
            continue
        for iid in self_iids:
            if iid in selfs:
                selfs[iid].add(sender)
        for iid, j, u, v in pairs:
            if iid in claims and j in workers:
                claims[iid].setdefault((sender, j), (u, v))
    flagged = [b for b in instances if selfs[b.iid] or claims[b.iid]]

    reveals = {iid: {} for iid in all_iids}
    votes = {iid: {} for iid in all_iids}
    if flagged:
        # round 4: dealers answer contested instances
        outboxes = {d: [] for d in sorted({b.dealer for b in flagged})}
        for b in flagged:
            ans = reveals_for(b.deal, selfs[b.iid], claims[b.iid])
            if ans:
                items = tuple((b.iid, i, pair[0], pair[1])
                              for i, pair in sorted(ans.items()))
                outboxes[b.dealer].append((BCAST, -1, ("evr", items)))
        inboxes = network.exchange(f"{prefix}:resolve", outboxes, **ctx)

        for sender, (_, items) in tagged(inboxes[workers[0]], BCAST, (
                "evr", [(str, int) + _pair_form(d1, shape, p)])):
            for iid, who, rf, rg in items:
                if iid in reveals and who in workers \
                        and registry[iid]["dealer"] == sender:
                    reveals[iid].setdefault(who, (rf, rg))

        # round 5: votes on contested instances
        outboxes = {}
        for i in workers:
            bits = []
            for b in flagged:
                vote, adopted = vote_for(
                    i, states[i].get(b.iid), cross_views(i, b.iid),
                    selfs[b.iid], claims[b.iid], reveals[b.iid], p)
                if adopted is not None:
                    states[i][b.iid] = adopted
                else:
                    states[i].pop(b.iid, None)
                bits.append((b.iid, int(vote)))
            outboxes[i] = [(BCAST, -1, ("evv", tuple(bits)))]
        inboxes = network.exchange(f"{prefix}:vote", outboxes, **ctx)

        for sender, (_, bits) in tagged(inboxes[workers[0]], BCAST,
                                        ("evv", [(str, int)])):
            if sender not in workers:
                continue
            for iid, bit in bits:
                if iid in votes and sender not in votes[iid]:
                    votes[iid][sender] = bool(bit)

    out = {}
    for b in instances:
        if selfs[b.iid] or claims[b.iid]:
            accepted = sum(votes[b.iid].values()) >= s.n - s.t
        else:
            accepted = True
        shares, gs = {}, {}
        for i in workers:
            pair = states[i].get(b.iid) if accepted else None
            shares[i] = None if pair is None else pair[0][0]
            gs[i] = None if pair is None else pair[1]
        out[b.iid] = EvssOutcome(accepted, shares, gs)
    return out
