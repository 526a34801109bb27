"""Per-party EVSS state machine: the reference for the batch runner.

compc.evss runs verifiable sharing through one driver,
run_evss_batch, which handles many instances per network round. This
module drives one instance party by party over the same decision
rules (complaints_for, reveals_for, vote_for and the revealed-pair
form _pair_form from compc.evss), so the tests can replay a batch
transcript through it and demand the same verdicts and shares. Its
party holds one instance, so it calls complaints_for, which decides
over a party's whole batch, with a batch of one. Like the batch, the
dealer sends no cross message and reads none, and no other party
sends the dealer one or reads one from it. Also like the batch, it
drops cross points that are not field arrays of the value shape, and
claims about and reveals for a non-worker. It is slow and exists only
for tests.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

from compc.evss import (EvssDeal, _pair_form, complaints_for,
                        reveals_for, vote_for)
from compc.net import BCAST, PRIV, Field, _fits
from compc.poly import horner


class EvssMsg(NamedTuple):
    kind: str       # deal | cross | complain | reveal | vote
    sender: int
    channel: str    # PRIV or BCAST
    body: tuple


class EvssVerdict(NamedTuple):
    accepted: bool
    share: object   # ndarray f_i(0) when accepted and held, else None


@dataclass
class EvssParty:
    """One party's state across the protocol rounds.

    `t` is the adversary budget, not the label's mask count. A dealer
    outside 1..n (an input source) deals and resolves complaints but
    holds no share and casts no vote.

    Message bodies: deal (recipient, fc, gc); cross (recipient, u, v);
    complain (self-complaint bit, {j: (u, v)} pair claims);
    reveal ((who, fc, gc), ...); vote (bit,).
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
    selfs: set = field(default_factory=set)
    claims: dict = field(default_factory=dict)     # (complainer, j) -> (u, v)
    reveals: dict = field(default_factory=dict)
    votes: dict = field(default_factory=dict)

    @property
    def workers(self):
        return tuple(range(1, self.n + 1))

    @property
    def peers(self):
        """The workers this party exchanges cross points with: none for
        the dealer, and every other worker but the dealer otherwise."""
        if self.party == self.dealer:
            return ()
        return tuple(j for j in self.workers
                     if j not in (self.party, self.dealer))

    @property
    def contested(self):
        return bool(self.selfs or self.claims)

    @property
    def pair_form(self):
        return _pair_form(self.label.degree + 1, self.shape, self.p)


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
                if _fits(pair, state.pair_form):
                    state.polys = pair
        if state.polys is not None:
            fc, gc = state.polys
            for j in state.peers:
                out.append(EvssMsg("cross", state.party, PRIV,
                                   (j, horner(fc, [j], p)[0],
                                    horner(gc, [j], p)[0])))
        state.phase = "complain"
        return state, out

    if state.phase == "complain":
        point = Field(tuple(state.shape), p)
        for msg in inbox:
            if msg.kind == "cross" and msg.sender in state.peers \
                    and msg.sender not in state.cross_in \
                    and _fits(msg.body[1:], (point, point)):
                state.cross_in[msg.sender] = (msg.body[1], msg.body[2])
        if state.party in state.workers:
            claims = {}
            if state.polys is not None:
                # one instance: own points and received ones, stacks of one
                sent = {j: ((0,),) + tuple(horner(c, [j], p)
                                           for c in state.polys)
                        for j in state.peers}
                recv = {j: ((0,), cu[None], cv[None])
                        for j, (cu, cv) in state.cross_in.items()}
                claims = {j: (cu, cv) for _, j, cu, cv in complaints_for(
                    sent, recv)}
            if state.polys is None or claims:
                out.append(EvssMsg("complain", state.party, BCAST,
                                   (state.polys is None, claims)))
        state.phase = "resolve"
        return state, out

    if state.phase == "resolve":
        for msg in inbox:
            if msg.kind == "complain" and msg.sender in state.workers:
                is_self, claims = msg.body
                if is_self:
                    state.selfs.add(msg.sender)
                for j, uv in claims.items():
                    if j in state.workers:
                        state.claims.setdefault((msg.sender, j), uv)
        if state.party == state.dealer and state.contested:
            ans = reveals_for(state.deal, state.selfs, state.claims)
            if ans:
                out.append(EvssMsg("reveal", state.party, BCAST,
                                   tuple((i,) + pair
                                         for i, pair in sorted(ans.items()))))
        state.phase = "vote"
        return state, out

    if state.phase == "vote":
        for msg in inbox:
            # a reveal that does not fit is dropped whole, as the batch does
            if msg.kind == "reveal" and msg.sender == state.dealer \
                    and _fits(msg.body, [(int,) + state.pair_form]):
                for who, fc, gc in msg.body:
                    if who in state.workers:
                        state.reveals.setdefault(who, (fc, gc))
        if state.contested:
            vote, adopted = vote_for(
                state.party, state.polys, state.cross_in, state.selfs,
                state.claims, state.reveals, p)
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
    if not state.contested:
        accepted = True
    else:
        accepted = sum(state.votes.values()) >= state.n - state.t
    share = None
    if accepted and state.polys is not None:
        share = state.polys[0][0]
    return EvssVerdict(accepted, share)
