"""The network applies the adversary to every round it delivers.

Protocol code hands Network.exchange honest outboxes only; the
network's own AdversaryController rewrites the corrupted parties'
outboxes before anything is delivered or written to the transcript.
"""

from compc.net import BCAST, PRIV, Network, Scenario, Transcript


def scen(adversaries=()):
    return Scenario(n=4, t=1, m=1, p=13, seed=0, z=2, program=(),
                    adversaries=adversaries).validate()


def outboxes(workers):
    """Every worker broadcasts once and writes once to party 1."""
    return {i: [(BCAST, -1, ("hi", i)), (PRIV, 1, ("to", i))]
            for i in workers}


def test_exchange_delivers_nothing_from_a_silent_party():
    s = scen(adversaries=((2, "Silent"),))
    net = Network(s, Transcript())
    inboxes = net.exchange("x:send", outboxes(s.workers))
    assert {e.sender for e in net.transcript.envelopes} == {1, 3, 4}
    for inbox in inboxes.values():
        senders = [sender for sender, _, _ in inbox]
        assert 2 not in senders
        assert sorted(set(senders)) == [1, 3, 4]
    assert len(inboxes[1]) == 6     # three broadcasts, three private
    assert len(inboxes[3]) == 3


class FilterOnly:
    """A fake adversary that records the ctx of every filter call."""

    def __init__(self):
        self.seen = []

    def filter(self, ctx, outboxes):
        self.seen.append(ctx)
        return outboxes


def test_the_adversary_sees_phase_scenario_and_the_given_ctx():
    s = scen()
    net = Network(s, Transcript())
    fake = net.adversary = FilterOnly()
    net.exchange("x:check", outboxes(s.workers), active=(1, 2, 3))
    net.exchange("x:send", {})
    assert fake.seen == [
        {"phase": "x:check", "scenario": s, "active": (1, 2, 3)},
        {"phase": "x:send", "scenario": s}]
