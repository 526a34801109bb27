"""The network applies the adversary to every round it delivers, and
every inbox is read through one form per tag.

Protocol code hands Network.exchange honest outboxes only; the
network's own AdversaryController rewrites the corrupted parties'
outboxes before anything is delivered or written to the transcript.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from compc.errors import ParameterViolation
from compc.net import (BCAST, PRIV, Field, Network, Scenario, Transcript,
                       encode, tagged)


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


@pytest.mark.parametrize("channel, recipient", [
    (PRIV, 999), (PRIV, "3"), (PRIV, np.array([3])), ("xyz", 3),
    (np.array([PRIV, PRIV]), 3), (np.array([PRIV]), 3)])
def test_a_bad_header_from_an_honest_party_raises(channel, recipient):
    """An honest send with a malformed header is a protocol bug; the
    same send from a corrupted party is dropped, as
    test_malformed_payloads_are_dropped_whole checks."""
    s = scen()
    boxes = outboxes(s.workers)
    boxes[3].append((channel, recipient, ("bad",)))
    with pytest.raises(ParameterViolation, match="bad header"):
        Network(s, Transcript()).exchange("x:send", boxes)


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


def test_random_byzantine_draws_one_stream_per_phase():
    """Padding one phase's payload leaves the mutations of every other
    phase unchanged: each (party, phase) has a stream of its own."""
    s = scen(adversaries=((2, "RandomByzantine"),))
    rng = np.random.default_rng(0)
    phases = [f"x{k}:syn" for k in range(8)]
    stacks = {ph: tuple(rng.integers(0, 13, size=(3, 2, 2))
                        for _ in range(2)) for ph in phases}

    def sent(padded):
        net = Network(s, Transcript())
        for ph in phases:
            pad = (np.zeros((5, 2, 2), dtype=np.int64),) * (ph == padded)
            net.exchange(ph, {2: [(BCAST, -1, ("stm", stacks[ph] + pad))]})
        return {e.phase: encode(e.payload)
                for e in net.transcript.envelopes}

    base = sent(None)
    assert base != {ph: encode(("stm", stacks[ph])) for ph in phases}
    for padded in phases[:4]:
        other = sent(padded)
        assert {ph: v for ph, v in other.items() if ph != padded} == \
            {ph: v for ph, v in base.items() if ph != padded}


# ---------------------------------------------------------------------------
# payload forms: tagged yields only what fits and never raises

P = 13
NAME = re.compile(r"[A-Za-z][A-Za-z0-9_:.\-]*")
STACK = Field((None, 2, 2), P)
CLAIM = Field((2, 2), P)
COEFFS = Field((2, 2, 2), P)
FORMS = [
    ("evd", [str], STACK, STACK),
    ("evc", [str], [(str, int, CLAIM, CLAIM)]),
    ("evr", [(str, int, COEFFS, COEFFS)]),
    ("evv", [(str, int)]),
    ("stm", (Field((2, 2), P), Field((1, 2), P))),
    ("mulcomplaint", int),
    ("out", Field((2, 2), P)),
    Field((2, 2), P),
    Field((None, 2), P),
    [str],
]
FORM_IDS = ["evd", "evc", "evr", "evv", "stm", "mulcomplaint", "out",
            "field", "stack", "names"]


def ref_fits(obj, form):
    """The form grammar of tagged, spelled out item by item."""
    if isinstance(form, Field):
        return (isinstance(obj, np.ndarray) and obj.dtype == np.int64
                and obj.ndim == len(form.shape)
                and all(want in (None, got)
                        for want, got in zip(form.shape, obj.shape))
                and bool(((obj >= 0) & (obj < form.p)).all()))
    if isinstance(form, list):
        return type(obj) is tuple and all(ref_fits(x, form[0]) for x in obj)
    if isinstance(form, tuple):
        return (type(obj) is tuple and len(obj) == len(form)
                and all(ref_fits(x, f) for x, f in zip(obj, form)))
    if isinstance(form, str):
        return type(obj) is str and obj == form
    if form is str:     # a name: any str the encoder writes
        return isinstance(obj, str) and NAME.fullmatch(obj) is not None
    if form is int:
        return type(obj) is int
    raise ValueError(f"not a form: {form!r}")


ARRAYS = arrays(st.sampled_from([np.int64, np.int32, np.float64]),
                array_shapes(min_dims=0, max_dims=3, max_side=3),
                elements=st.integers(-2, P + 1))
LEAVES = st.one_of(
    st.text(max_size=4), st.sampled_from(["evd", "evc", "evr", "evv", "stm",
                                          "mulcomplaint", "out", "self",
                                          "pair", "a;b", "q001", "1x"]),
    st.integers(-3, 8), st.booleans(), st.none(), ARRAYS)
TREES = st.recursive(
    LEAVES, lambda kids: st.one_of(st.tuples(kids, kids),
                                   st.tuples(kids, kids, kids, kids),
                                   st.lists(kids, max_size=3).map(tuple),
                                   st.lists(kids, max_size=3)),
    max_leaves=12)


def from_form(form):
    """Payloads that fit `form`."""
    if isinstance(form, Field):
        lead = (st.integers(0, 2) if form.shape[0] is None
                else st.just(form.shape[0]))
        return lead.flatmap(lambda n: arrays(
            np.int64, (n,) + form.shape[1:], elements=st.integers(0, P - 1)))
    if isinstance(form, list):
        return st.lists(from_form(form[0]), max_size=3).map(tuple)
    if isinstance(form, tuple):
        return st.tuples(*(from_form(f) for f in form))
    if isinstance(form, str):
        return st.just(form)
    if form is str:
        return st.from_regex(NAME, fullmatch=True).filter(lambda s: len(s) < 6)
    if form is int:
        return st.integers(-3, 8)
    raise ValueError(f"not a form: {form!r}")


def _with_first(a, value):
    a = a.copy()
    a.flat[0] = value
    return a


def near_miss(form):
    """Payloads that break `form` in one place."""
    if isinstance(form, Field):
        good = from_form(form)
        some = good.filter(lambda a: a.size > 0)
        return st.one_of(
            good.map(lambda a: a.astype(np.int32)),
            good.map(np.ndarray.tolist),
            some.map(lambda a: _with_first(a, form.p)),
            some.map(lambda a: _with_first(a, -1)),
            good.map(lambda a: a[..., None]), good.map(lambda a: a.ravel()),
            good.map(lambda a: np.concatenate([a, a], axis=-1)),
            good.map(lambda a: np.concatenate([a, a]))
            if form.shape[0] else st.nothing(),
            st.just(np.array(5)))
    if isinstance(form, list):
        return st.one_of(from_form(form).map(list), st.builds(
            lambda good, bad: good + (bad,), from_form(form),
            near_miss(form[0])))
    if isinstance(form, tuple):
        spot = st.integers(0, len(form) - 1).flatmap(lambda k: st.tuples(*(
            near_miss(f) if i == k else from_form(f)
            for i, f in enumerate(form))))
        return st.one_of(
            spot, spot, spot, from_form(form).map(list),
            from_form(form).map(lambda t: t[:-1]),
            from_form(form).map(lambda t: t + (None,)))
    if isinstance(form, str):
        return st.sampled_from([form + "x", form.upper(), None, (form,),
                                np.array([form]), np.str_(form)])
    if form is str:
        return st.sampled_from(["a;b", "", "1x", "a b", ("a",), 3,
                                np.array([1, 2])])
    if form is int:
        return st.sampled_from([True, False, np.int64(3), 3.0, "3", None,
                                np.array([1, 2])])
    raise ValueError(f"not a form: {form!r}")


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_tagged_yields_exactly_the_payloads_that_fit(form, data):
    """On random payload trees, payloads that fit and near misses,
    tagged never raises and yields, in order, exactly the broadcast
    payloads that ref_fits accepts."""
    inbox = data.draw(st.lists(st.tuples(
        st.integers(1, 4), st.sampled_from([BCAST, PRIV]),
        st.one_of(from_form(form), near_miss(form), TREES)), max_size=4))
    got = list(tagged(inbox, BCAST, form))
    want = [(sender, payload) for sender, ch, payload in inbox
            if ch == BCAST and ref_fits(payload, form)]
    assert len(got) == len(want)
    assert all(g[0] == w[0] and g[1] is w[1] for g, w in zip(got, want))
