"""Verifiable secret sharing with a bivariate consistency check.

The dealer embeds the share polynomial Q(z) into a uniformly random
bivariate S(x, y) of degree d = m+delta+t-1 in each variable with
S(0, y) = Q(y), and privately sends party i the pair
f_i(x) = S(x, alpha_i), g_i(y) = S(alpha_i, y). Parties exchange the
cross evaluations f_i(alpha_j), g_i(alpha_j), broadcast complaints
about mismatches, the dealer answers complaints whose claimed values
are wrong by revealing the complainer's polynomial pair, and everyone
votes. At least N-t Consistent votes accept the sharing, and party i's
share is f_i(0) = Q(alpha_i).

Vote rules:
  - a party with no deal and no reveal addressed to it withholds;
  - an unanswered self-complaint makes everyone withhold;
  - a complaint pair in both directions between j and k, with neither
    polynomial revealed and mutually inconsistent claimed values,
    makes everyone withhold (mutually consistent claims indicate a
    false accusation, not a bad dealer, and are ignored);
  - a revealed polynomial that is malformed or conflicts with a
    party's own pair makes that party withhold;
  - a party whose own pair was revealed adopts it and votes Consistent
    iff the revealed pair matches every cross point it holds.
If nobody complains, everyone accepts immediately and the resolve and
vote rounds carry no messages.

Two drivers share these decision rules: a per-party state machine
(EvssParty / evss_round / evss_finalize) and a batch runner
(run_evss_batch) that executes many same-shaped instances over the
simulated network in the same five conceptual rounds, with the
all-pairs checks vectorized across instances.

Per-instance parameter bounds are not enforced here; the scenario-wide
recovery threshold admitted at configuration time covers every label
this package deals.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParameterViolation
from .gf import is_field_array
from .net import BCAST, PRIV
from .poly import powers
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
        """(f coeffs, g coeffs) for the party at `alpha`."""
        w = powers(alpha, self.d1, self.p)
        fc = _weighted_axis(self.grid, w, 1, self.p)
        gc = _weighted_axis(self.grid, w, 0, self.p)
        return fc, gc


def _weighted_axis(a, w, axis, p):
    """sum(a * w) along one axis with per-term reduction."""
    a = np.moveaxis(a, axis, 0)
    acc = np.zeros(a.shape[1:], dtype=np.int64)
    for i in range(a.shape[0]):
        acc = (acc + a[i] * int(w[i])) % p
    return acc


def _poly_at(coeffs, x, p):
    """Horner evaluation of stacked coefficients (d+1, rows, cols)."""
    acc = np.zeros(coeffs.shape[1:], dtype=np.int64)
    for d in range(coeffs.shape[0] - 1, -1, -1):
        acc = (acc * x + coeffs[d]) % p
    return acc


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


class EvssMsg(NamedTuple):
    kind: str       # deal | cross | complain | reveal | vote
    sender: int
    channel: str    # PRIV or BCAST
    body: tuple


class EvssVerdict(NamedTuple):
    accepted: bool
    share: object   # ndarray f_i(0) when accepted and held, else None


def _well_formed(pair, d1, shape, p):
    if not isinstance(pair, tuple) or len(pair) != 2:
        return False
    want = (d1,) + tuple(shape)
    return all(is_field_array(c, want, p) for c in pair)


def _values_eq(a, b):
    return a is not None and b is not None and np.array_equal(a, b)


def complaints_for(party, polys, cross_in, others, p):
    """Complaints a party must broadcast given its pair and received
    cross points. Returns [("self",)] or [("pair", j, u, v), ...]."""
    if polys is None:
        return [("self",)]
    fc, gc = polys
    out = []
    for j in sorted(others):
        own_u = _poly_at(fc, j, p)
        own_v = _poly_at(gc, j, p)
        got = cross_in.get(j)
        ok = (got is not None
              and _values_eq(got[0], own_v)    # f_j(a_i) = g_i(a_j)
              and _values_eq(got[1], own_u))   # g_j(a_i) = f_i(a_j)
        if not ok:
            out.append(("pair", j, own_u, own_v))
    return out


def reveals_for(deal, complaints, workers):
    """Dealer's answers: {party: (fc, gc)} for every self-complainer
    and every complainer whose claimed values are wrong."""
    if deal is None:
        return {}
    out = {}
    for i in sorted(complaints):
        if i not in workers:
            continue
        fc, gc = pair = deal.polys_for(i)
        for item in complaints[i]:
            if item[0] == "self":
                wrong = True
            elif item[0] == "pair":
                # f_i(a_j) = S(a_j, a_i) and g_i(a_j) = S(a_i, a_j)
                _, j, u, v = item
                wrong = not (_values_eq(u, _poly_at(fc, j, deal.p))
                             and _values_eq(v, _poly_at(gc, j, deal.p)))
            else:
                continue
            if wrong:
                out[i] = pair
                break
    return out


def vote_for(party, polys, cross_in, complaints, reveals, d1, shape, p):
    """(vote, adopted polys) under the module's vote rules."""
    my_reveal = reveals.get(party)
    if my_reveal is not None and _well_formed(my_reveal, d1, shape, p):
        polys = my_reveal

    if polys is None:
        return False, None
    fc, gc = polys

    vote = True
    if my_reveal is not None:
        if not _well_formed(my_reveal, d1, shape, p):
            vote = False
        else:
            for j, got in cross_in.items():
                if got is None:
                    continue
                if not (_values_eq(got[0], _poly_at(gc, j, p))
                        and _values_eq(got[1], _poly_at(fc, j, p))):
                    vote = False
                    break

    # unanswered self-complaints block everyone
    for i, items in complaints.items():
        if any(item[0] == "self" for item in items) and i not in reveals:
            vote = False

    # bidirectional complaint pairs with no reveal and clashing claims
    claims = {}
    for i, items in complaints.items():
        for item in items:
            if item[0] == "pair":
                claims[(i, item[1])] = (item[2], item[3])
    for (i, j), (u_ij, v_ij) in claims.items():
        if i >= j or i in reveals or j in reveals:
            continue
        back = claims.get((j, i))
        if back is None:
            continue
        if not (_values_eq(u_ij, back[1]) and _values_eq(v_ij, back[0])):
            vote = False

    # every other reveal must be well formed and match my own pair
    for k, pair in reveals.items():
        if k == party:
            continue
        if not _well_formed(pair, d1, shape, p):
            vote = False
            continue
        rf, rg = pair
        if not (_values_eq(_poly_at(rf, party, p), _poly_at(gc, k, p))
                and _values_eq(_poly_at(rg, party, p), _poly_at(fc, k, p))):
            vote = False

    return vote, polys


@dataclass
class EvssParty:
    """One party's state across the protocol rounds.

    `t` is the adversary budget, not the label's mask count. A dealer
    outside 1..n (an input source) deals and resolves complaints but
    holds no share and casts no vote.

    Message bodies: deal (recipient, fc, gc); cross (recipient, u, v);
    complain (complaint items); reveal ((who, fc, gc), ...);
    vote (bit,).
    """
    party: int
    dealer: int
    n: int
    t: int
    label: object
    shape: tuple
    p: int
    deal: EvssDeal = None       # dealer side only
    phase: str = "deal"
    polys: tuple = None
    cross_in: dict = field(default_factory=dict)
    complaints: dict = field(default_factory=dict)
    reveals: dict = field(default_factory=dict)
    votes: dict = field(default_factory=dict)

    @property
    def workers(self):
        return tuple(range(1, self.n + 1))

    @property
    def others(self):
        return tuple(j for j in self.workers if j != self.party)

    @property
    def d1(self):
        return self.label.degree + 1


def evss_round(state, inbox):
    """Advance one round; returns (state, outbox of EvssMsg)."""
    out = []
    p = state.p
    if state.phase == "deal":
        if state.party == state.dealer:
            if state.party in state.workers:
                state.polys = state.deal.polys_for(state.party)
            for j in state.workers:
                if j != state.party:
                    out.append(EvssMsg("deal", state.party, PRIV,
                                       (j,) + state.deal.polys_for(j)))
        state.phase = "cross"
        return state, out

    if state.phase == "cross":
        for msg in inbox:
            if msg.kind == "deal" and msg.sender == state.dealer \
                    and state.polys is None:
                pair = (msg.body[1], msg.body[2])
                if _well_formed(pair, state.d1, state.shape, p):
                    state.polys = pair
        if state.polys is not None:
            fc, gc = state.polys
            for j in state.others:
                out.append(EvssMsg("cross", state.party, PRIV,
                                   (j, _poly_at(fc, j, p),
                                    _poly_at(gc, j, p))))
        state.phase = "complain"
        return state, out

    if state.phase == "complain":
        for msg in inbox:
            if msg.kind == "cross" and msg.sender in state.others \
                    and msg.sender not in state.cross_in:
                state.cross_in[msg.sender] = (msg.body[1], msg.body[2])
        if state.party in state.workers:
            items = complaints_for(state.party, state.polys, state.cross_in,
                                   state.others, p)
            if items:
                out.append(EvssMsg("complain", state.party, BCAST,
                                   tuple(items)))
        state.phase = "resolve"
        return state, out

    if state.phase == "resolve":
        for msg in inbox:
            if msg.kind == "complain" and msg.sender in state.workers \
                    and msg.sender not in state.complaints:
                state.complaints[msg.sender] = list(msg.body)
        if state.party == state.dealer and state.complaints:
            ans = reveals_for(state.deal, state.complaints,
                              set(state.workers))
            if ans:
                out.append(EvssMsg("reveal", state.party, BCAST,
                                   tuple((i,) + pair
                                         for i, pair in sorted(ans.items()))))
        state.phase = "vote"
        return state, out

    if state.phase == "vote":
        for msg in inbox:
            if msg.kind == "reveal" and msg.sender == state.dealer:
                for item in msg.body:
                    if isinstance(item, tuple) and len(item) == 3 \
                            and item[0] not in state.reveals:
                        state.reveals[item[0]] = (item[1], item[2])
        if state.complaints:
            vote, adopted = vote_for(
                state.party, state.polys, state.cross_in, state.complaints,
                state.reveals, state.d1, state.shape, p)
            state.polys = adopted
            if state.party in state.workers:
                out.append(EvssMsg("vote", state.party, BCAST, (int(vote),)))
        state.phase = "tally"
        return state, out

    if state.phase == "tally":
        for msg in inbox:
            if msg.kind == "vote" and msg.sender in state.workers \
                    and msg.sender not in state.votes:
                state.votes[msg.sender] = bool(msg.body[0])
        state.phase = "done"
        return state, []

    return state, []


def evss_finalize(state):
    """Verdict after all rounds; accepted on silence or N-t votes."""
    if not state.complaints:
        accepted = True
    else:
        accepted = sum(state.votes.values()) >= state.n - state.t
    share = None
    if accepted and state.polys is not None:
        share = state.polys[0][0]
    return EvssVerdict(accepted, share)


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


def _grid_polys(grids, alphas, p):
    """All parties' pairs for stacked grids.

    grids (K, d+1, d+1, r, c) -> (FC, GC) each (K, N, d+1, r, c):
    FC[k, i, a] = sum_b grids[k, a, b] alpha_i^b and GC[k, i, b] the
    transposed sum, via Horner with a reduction per step.
    """
    k, d1 = grids.shape[0], grids.shape[1]
    tail = grids.shape[3:]
    a = alphas[None, None, :, None, None]
    fc = np.zeros((k, d1, len(alphas)) + tail, dtype=np.int64)
    for b in range(d1 - 1, -1, -1):
        fc = (fc * a + grids[:, :, b][:, :, None]) % p
    gc = np.zeros((k, d1, len(alphas)) + tail, dtype=np.int64)
    for ax in range(d1 - 1, -1, -1):
        gc = (gc * a + grids[:, ax][:, :, None]) % p
    return fc.transpose(0, 2, 1, 3, 4), gc.transpose(0, 2, 1, 3, 4)


def _eval_stack(coeffs, alphas, p):
    """Horner over stacked polys: (K, d+1, r, c) x (N,) -> (K, N, r, c)."""
    k, d1 = coeffs.shape[:2]
    acc = np.zeros((k, len(alphas)) + coeffs.shape[2:], dtype=np.int64)
    a = alphas[None, :, None, None]
    for d in range(d1 - 1, -1, -1):
        acc = (acc * a + coeffs[:, d][:, None]) % p
    return acc


def _parse_complaint(item, workers, shape):
    """Validate a broadcast complaint item; None when malformed."""
    if item[0] == "self" and len(item) == 1:
        return ("self",)
    if item[0] == "pair" and len(item) == 4 and item[1] in workers:
        u = item[2] if isinstance(item[2], np.ndarray) \
            and item[2].shape == tuple(shape) else None
        v = item[3] if isinstance(item[3], np.ndarray) \
            and item[3].shape == tuple(shape) else None
        return ("pair", item[1], u, v)
    return None


def run_evss_batch(network, adv, scenario, prefix, instances, kinds=None):
    """Run many same-shaped instances through five network rounds.

    All instances must share one (degree, value shape); `kinds` maps
    iid -> a strategy-visible tag. Returns {iid: EvssOutcome}. An
    instance nobody complained about finishes at the complaint round;
    the resolve and vote rounds run only when something was contested.
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
    alphas = np.array(workers, dtype=np.int64)
    all_iids = tuple(b.iid for b in instances)
    registry = {b.iid: {"dealer": b.dealer, "label": b.label,
                        "kind": (kinds or {}).get(b.iid)}
                for b in instances}
    states = {i: {} for i in workers}

    def ctx(phase):
        return {"phase": phase, "instances": registry, "states": states,
                "scenario": s}

    # round 1: deals (dealers adopt their own pair immediately)
    by_dealer = {}
    for b in instances:
        by_dealer.setdefault(b.dealer, []).append(b)
    outboxes = {}
    for d, insts in sorted(by_dealer.items()):
        iids = tuple(b.iid for b in insts)
        grids = np.stack([b.deal.grid for b in insts])
        fcs, gcs = _grid_polys(grids, alphas, p)
        if d in workers:
            dx = workers.index(d)
            for k, b in enumerate(insts):
                states[d][b.iid] = (fcs[k, dx], gcs[k, dx])
        outboxes[d] = [(PRIV, j, ("evd", iids, fcs[:, jx], gcs[:, jx]))
                       for jx, j in enumerate(workers) if j != d]
    outboxes = adv.filter(ctx(f"{prefix}:deal"), outboxes)
    inboxes = network.exchange(f"{prefix}:deal", outboxes)
    adv.observe(f"{prefix}:deal", inboxes)

    pair_shape = (d1,) + tuple(shape)
    for i in workers:
        for sender, channel, payload in inboxes[i]:
            if channel != PRIV or not isinstance(payload, tuple) \
                    or len(payload) != 4 or payload[0] != "evd":
                continue
            _, iids, fs, gs = payload
            if not isinstance(iids, tuple):
                continue
            whole = is_field_array(fs, (len(iids),) + pair_shape, p) \
                and is_field_array(gs, (len(iids),) + pair_shape, p)
            for k, iid in enumerate(iids):
                if iid not in registry or registry[iid]["dealer"] != sender:
                    continue
                if iid in states[i]:
                    continue
                if whole:
                    states[i][iid] = (fs[k], gs[k])
                else:
                    try:
                        pair = (fs[k], gs[k])
                    except Exception:
                        continue
                    if _well_formed(pair, d1, shape, p):
                        states[i][iid] = pair

    # round 2: cross evaluations for every held instance
    outboxes = {}
    sent_cross = {}
    for i in workers:
        held = tuple(sorted(states[i]))
        if not held:
            outboxes[i] = []
            continue
        fc = np.stack([states[i][iid][0] for iid in held])
        gc = np.stack([states[i][iid][1] for iid in held])
        u = _eval_stack(fc, alphas, p)     # (K, N, rows, cols)
        v = _eval_stack(gc, alphas, p)
        sent_cross[i] = (held, u, v)
        outboxes[i] = [(PRIV, j, ("evx", held, u[:, jx], v[:, jx]))
                       for jx, j in enumerate(workers) if j != i]
    outboxes = adv.filter(ctx(f"{prefix}:cross"), outboxes)
    inboxes = network.exchange(f"{prefix}:cross", outboxes)
    adv.observe(f"{prefix}:cross", inboxes)

    # recv[i][j] = (position map, U stack, V stack), validated on ingest
    recv = {i: {} for i in workers}
    for i in workers:
        for sender, channel, payload in inboxes[i]:
            if channel != PRIV or not isinstance(payload, tuple) \
                    or len(payload) != 4 or payload[0] != "evx":
                continue
            _, iids, us, vs = payload
            if sender not in workers or sender == i or sender in recv[i]:
                continue
            if not isinstance(iids, tuple) or len(set(iids)) != len(iids):
                continue
            if is_field_array(us, (len(iids),) + shape, p) \
                    and is_field_array(vs, (len(iids),) + shape, p):
                recv[i][sender] = ({iid: k for k, iid in enumerate(iids)},
                                   us, vs)

    def cross_views(i, iid):
        """{sender: (u, v)} as complaints_for / vote_for expect."""
        out = {}
        for j, (pos, us, vs) in recv[i].items():
            if iid in pos:
                out[j] = (us[pos[iid]], vs[pos[iid]])
        return out

    # round 3: complaints. Vectorized screen first: party i must act on
    # instance k iff it lacks the pair or some sender's stack is
    # missing, incomplete, or differs from i's own evaluations.
    # suspect[i][iid] lists the senders the screen did not clear; a
    # cleared sender's points match i's own, so complaints_for could
    # never name it, and only the others are passed on.
    suspect = {i: {} for i in workers}
    for i in workers:
        held, u, v = sent_cross.get(i, ((), None, None))
        for iid in set(all_iids) - set(held):
            suspect[i][iid] = []    # no pair: a self-complaint
        if not held:
            continue
        for jx, j in enumerate(workers):
            if j == i:
                continue
            got = recv[i].get(j)
            if got is None or set(got[0]) != set(held):
                doubted = held
            else:
                pos, us, vs = got
                order = [pos[iid] for iid in held]
                bad = ((us[order] != v[:, jx]) | (vs[order] != u[:, jx])) \
                    .any(axis=tuple(range(1, us.ndim)))
                doubted = [held[k] for k in np.flatnonzero(bad)]
            for iid in doubted:
                suspect[i].setdefault(iid, []).append(j)

    outboxes = {}
    for i in workers:
        items = []
        for iid, senders in sorted(suspect[i].items()):
            for item in complaints_for(i, states[i].get(iid),
                                       cross_views(i, iid), senders, p):
                items.append((iid,) + item)
        outboxes[i] = [(BCAST, -1, ("evc", tuple(items)))] if items else []
    outboxes = adv.filter(ctx(f"{prefix}:complain"), outboxes)
    inboxes = network.exchange(f"{prefix}:complain", outboxes)
    adv.observe(f"{prefix}:complain", inboxes)

    complaints = {iid: {} for iid in all_iids}
    for sender, channel, payload in inboxes[workers[0]]:
        if channel != BCAST or not isinstance(payload, tuple) \
                or len(payload) != 2 or payload[0] != "evc":
            continue
        if sender not in workers or not isinstance(payload[1], tuple):
            continue
        for item in payload[1]:
            if not isinstance(item, tuple) or len(item) < 2:
                continue
            iid = item[0]
            if iid not in complaints:
                continue
            parsed = _parse_complaint(item[1:], workers, shape)
            if parsed is not None:
                complaints[iid].setdefault(sender, []).append(parsed)
    flagged = [b for b in instances if complaints[b.iid]]

    reveals = {iid: {} for iid in all_iids}
    votes = {iid: {} for iid in all_iids}
    if flagged:
        # round 4: dealers answer contested instances
        outboxes = {d: [] for d in sorted({b.dealer for b in flagged})}
        for b in flagged:
            ans = reveals_for(b.deal, complaints[b.iid], set(workers))
            if ans:
                items = tuple((b.iid, i, pair[0], pair[1])
                              for i, pair in sorted(ans.items()))
                outboxes[b.dealer].append((BCAST, -1, ("evr", items)))
        outboxes = adv.filter(ctx(f"{prefix}:resolve"), outboxes)
        inboxes = network.exchange(f"{prefix}:resolve", outboxes)
        adv.observe(f"{prefix}:resolve", inboxes)

        for sender, channel, payload in inboxes[workers[0]]:
            if channel != BCAST or not isinstance(payload, tuple) \
                    or len(payload) != 2 or payload[0] != "evr":
                continue
            if not isinstance(payload[1], tuple):
                continue
            for item in payload[1]:
                if not isinstance(item, tuple) or len(item) != 4:
                    continue
                iid, who, rf, rg = item
                if iid in reveals and registry[iid]["dealer"] == sender \
                        and who not in reveals[iid]:
                    reveals[iid][who] = (rf, rg)

        # round 5: votes on contested instances
        outboxes = {}
        for i in workers:
            bits = []
            for b in flagged:
                vote, adopted = vote_for(
                    i, states[i].get(b.iid), cross_views(i, b.iid),
                    complaints[b.iid], reveals[b.iid], d1, shape, p)
                if adopted is not None:
                    states[i][b.iid] = adopted
                else:
                    states[i].pop(b.iid, None)
                bits.append((b.iid, int(vote)))
            outboxes[i] = [(BCAST, -1, ("evv", tuple(bits)))]
        outboxes = adv.filter(ctx(f"{prefix}:vote"), outboxes)
        inboxes = network.exchange(f"{prefix}:vote", outboxes)
        adv.observe(f"{prefix}:vote", inboxes)

        for sender, channel, payload in inboxes[workers[0]]:
            if channel != BCAST or not isinstance(payload, tuple) \
                    or len(payload) != 2 or payload[0] != "evv":
                continue
            if sender not in workers or not isinstance(payload[1], tuple):
                continue
            for item in payload[1]:
                if isinstance(item, tuple) and len(item) == 2 \
                        and item[0] in votes and sender not in votes[item[0]]:
                    votes[item[0]][sender] = bool(item[1])

    out = {}
    for b in instances:
        if complaints[b.iid]:
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
