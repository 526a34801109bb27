"""Deterministic synchronous network simulator that applies the adversary.

Parties exchange messages in rounds. Each round, the protocol driver
computes every party's honest outbox and hands them all to
Network.exchange. The network first lets its adversary controller
rewrite the outboxes of corrupted parties, then delivers: private
payloads to their recipient, broadcasts to everyone. Every round
passes through exchange, so every round meets the adversary, and no
protocol code knows who is corrupt. Deliveries are sorted canonically
(round, sender, channel kind, recipient) so the transcript is a pure
function of the scenario.

Every protocol step reads its inbox through tagged, with one strict
form per payload tag and no lenient item. A payload that does not fit
is dropped whole, as if never sent: honest parties always send
payloads that fit, and a corrupt one may stay silent anyway. A
corrupted party's send whose channel is neither BCAST nor PRIV, or
whose private recipient is not a party id, is dropped the same way,
before delivery and before the transcript; the same header from an
honest party is a protocol bug and raises ParameterViolation.

Randomness discipline: every honest draw comes from a stream keyed by
(seed, party, phase tag), and the number of draws per phase depends
only on the scenario. Adversary behavior therefore cannot perturb
honest randomness, which the privacy audits rely on.

Party numbering: 0 is the master, 1..N are workers (party n evaluates
at alpha_n = n), N+1.. are input sources.
"""

import hashlib
import re
from binascii import b2a_base64
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParameterViolation
from .gf import check_prime, is_field_array

BCAST = "bcast"
PRIV = "priv"


def rng_for(seed, party, phase):
    """Independent deterministic stream per (seed, party, phase)."""
    digest = hashlib.sha256(f"{seed}|{party}|{phase}".encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Scenario:
    n: int
    t: int
    m: int
    p: int
    seed: int
    z: int
    program: tuple
    adversaries: tuple = ()     # ((party, strategy), ...)
    inputs: tuple = ()          # FMatrix per source
    sub_threshold: bool = False

    def validate(self):
        check_prime(self.p)
        if not 0 <= self.seed < 2 ** 64:
            raise ParameterViolation("seed must fit in 64 bits")
        if self.p <= self.n:
            raise ParameterViolation("need p > N for distinct worker points")
        if self.m < 1 or self.z % self.m:
            raise ParameterViolation("m must divide the matrix dimension")
        if len(self.adversaries) > self.t:
            raise ParameterViolation("more adversaries than the bound t")
        if self.n < 3 * self.t + 2 * self.m - 1 and not self.sub_threshold:
            raise ParameterViolation(
                f"N={self.n} below recovery threshold {3 * self.t + 2 * self.m - 1}")
        seen = set()
        for party, strat in self.adversaries:
            if not 1 <= party <= self.n or party in seen:
                raise ParameterViolation(f"bad adversary id {party}")
            seen.add(party)
            if strat not in STRATEGY_NAMES:
                raise ParameterViolation(f"unknown strategy {strat!r}")
        for x in self.inputs:
            if x.p != self.p or x.shape != (self.z, self.z):
                raise ParameterViolation("inputs must be z x z over the scenario prime")
        return self

    @property
    def workers(self):
        return tuple(range(1, self.n + 1))

    @property
    def adversary_ids(self):
        return frozenset(a for a, _ in self.adversaries)


class Envelope(NamedTuple):
    round: int
    sender: int
    channel: str        # BCAST or PRIV
    recipient: int      # -1 for broadcast
    phase: str
    payload: tuple


_NAME = r"[A-Za-z][A-Za-z0-9_:.\-]*"
_NAMES = re.compile(f"{_NAME}(?:;{_NAME})*")


def _names(text, count):
    """text as bytes; refused unless it is `count` names joined by ";"."""
    if count and (text.count(";") != count - 1
                  or not _NAMES.fullmatch(text)):
        raise TypeError(f"unserializable string {text!r}")
    return text.encode()


def _write(buf, obj):
    """Append the canonical, unambiguous text form of a payload tree
    to buf (a bytearray); see "Transcript format" in README.md.

    An integer array whose entries all lie in [0, 2**32), as every
    field array does, is written as base64 of its little-endian uint32
    words; any other array keeps the decimal form. A string must be a
    name: an ASCII letter, then letters, digits and _:.- only, so that
    none reads as a number, "~", an empty element or two elements."""
    if isinstance(obj, np.ndarray):
        buf += f"[{','.join(map(str, obj.shape))}".encode()
        words = obj.astype("<u4") if obj.dtype.kind in "iu" else None
        if words is not None and (words == obj).all():
            buf += b"#"
            buf += b2a_base64(words.tobytes(), newline=False)
        else:
            text = ",".join(str(int(v)) for v in obj.ravel().tolist())
            buf += f":{text}".encode()
        buf += b"]"
    elif isinstance(obj, (tuple, list)):
        try:    # instance-id tuples: all strings, one join
            text = ";".join(obj)
        except TypeError:
            buf += b"("
            _write_all(buf, obj, b";")
            buf += b")"
        else:
            buf += b"(" + _names(text, len(obj)) + b")"
    elif isinstance(obj, str):
        buf += _names(obj, 1)
    elif isinstance(obj, (int, np.integer)):
        buf += str(int(obj)).encode()
    elif obj is None:
        buf += b"~"
    else:
        raise TypeError(f"unserializable payload element {type(obj)}")


def _write_all(buf, items, sep):
    for k, x in enumerate(items):
        if k:
            buf += sep
        _write(buf, x)


def encode(obj):
    """The canonical text form of a payload tree, as bytes."""
    buf = bytearray()
    _write(buf, obj)
    return bytes(buf)


def write_envelope(buf, e):
    """Append envelope e's transcript line, newline included, to buf."""
    to = "*" if e.channel == BCAST else str(e.recipient)
    buf += f"E|{e.round}|{e.sender}|{to}|{e.phase}|".encode()
    _write(buf, e.payload)
    buf += b"\n"


@dataclass
class Transcript:
    envelopes: list = field(default_factory=list)
    events: list = field(default_factory=list)
    master_output: object = None
    abort: object = None

    def add_event(self, *fields):
        self.events.append(tuple(fields))

    def serialize(self):
        buf = bytearray()
        for e in self.envelopes:
            write_envelope(buf, e)
        for ev in self.events:
            buf += b"V|"
            _write_all(buf, ev, b"|")
            buf += b"\n"
        if self.abort is not None:
            buf += f"A|{self.abort[0]}|{self.abort[1]}\n".encode()
        if self.master_output is not None:
            buf += b"M|"
            _write(buf, self.master_output.a)
            buf += b"\n"
        return buf.decode() if buf else "\n"


class Field(NamedTuple):
    """Form of a field array; a leading None in `shape` is any length."""
    shape: tuple
    p: int


def _fits(obj, form):
    """Whether obj fits `form`; see tagged."""
    kind = type(form)
    if kind is tuple:
        return (type(obj) is tuple and len(obj) == len(form)
                and all(map(_fits, obj, form)))
    if kind is Field:
        return is_field_array(obj, *form)
    if kind is str:
        return type(obj) is str and obj == form
    if kind is type:    # str: one name, as _names reads it; int: no bool
        if form is str:
            return (isinstance(obj, str) and ";" not in obj
                    and _NAMES.fullmatch(obj) is not None)
        return type(obj) is form
    if type(obj) is not tuple:      # [form]: a tuple of any length
        return False
    if form[0] is not str:
        return all(map(_fits, obj, [form[0]] * len(obj)))
    try:    # names: one join and one match for a whole id tuple
        _names(";".join(obj), len(obj))
    except TypeError:
        return False
    return True


def tagged(inbox, channel, form):
    """(sender, payload) for each delivery in inbox that came on
    `channel` and whose payload fits `form`.

    A form is a literal string (a tag), `str` (a name, as the
    transcript writes it), `int` (not a bool), Field(shape, p), a tuple
    of forms (item by item) or [form] (a tuple of any length). There is
    no lenient part: a payload with one item that does not fit is
    dropped whole.
    """
    for sender, ch, payload in inbox:
        if ch == channel and _fits(payload, form):
            yield sender, payload


class Network:
    """Collects outboxes, lets the adversary rewrite the corrupted
    parties' ones, applies canonical ordering, delivers."""

    def __init__(self, scenario, transcript):
        self.s = scenario
        self.transcript = transcript
        self.adversary = AdversaryController(scenario)
        self.round = 0
        self.parties = (0,) + scenario.workers + tuple(
            scenario.n + 1 + i for i in range(len(scenario.inputs)))

    def exchange(self, phase, outboxes, **ctx):
        """outboxes: {sender: [(channel, recipient, payload), ...]}.

        ctx is what adversary strategies may read besides the phase
        and the scenario: the EVSS batch's `instances` and `states`,
        or the `active` parties. Returns {party: [(sender, channel,
        payload), ...]} in delivery order. Also appends every delivered
        send to the transcript.
        """
        outboxes = self.adversary.filter(
            dict(ctx, phase=phase, scenario=self.s), outboxes)
        sends = []
        for sender in sorted(outboxes):
            for channel, recipient, payload in outboxes[sender]:
                # a str channel first: an array would compare elementwise
                if not (type(channel) is str and (channel == BCAST or (
                        channel == PRIV and type(recipient) is int
                        and recipient in self.parties))):
                    if sender in self.s.adversary_ids:
                        continue
                    raise ParameterViolation(
                        f"bad header {channel!r} to {recipient!r}")
                sends.append(Envelope(
                    self.round, sender, channel,
                    -1 if channel == BCAST else recipient, phase, payload))
        sends.sort(key=lambda e: (e.sender, e.channel, e.recipient))
        inboxes = {party: [] for party in self.parties}
        for e in sends:
            self.transcript.envelopes.append(e)
            if e.channel == BCAST:
                for party in self.parties:
                    inboxes[party].append((e.sender, BCAST, e.payload))
            else:
                inboxes[e.recipient].append((e.sender, PRIV, e.payload))
        self.round += 1
        return inboxes


class Strategy:
    """Base adversary: follow the protocol (semi-honest)."""

    def __init__(self, party, rng, shared):
        self.party = party
        self.rng = rng
        self.shared = shared

    def act(self, ctx, outbox):
        return outbox


class SemiHonest(Strategy):
    pass


class Silent(Strategy):
    def act(self, ctx, outbox):
        return []


class RandomByzantine(Strategy):
    """Drops or perturbs messages while keeping them well-typed. Each
    envelope of a (party, phase) outbox draws from its own stream, so
    the size of one payload does not shift the mutations of any other."""

    def _mutate(self, obj, rng):
        p = self.shared["p"]
        if isinstance(obj, np.ndarray):
            if rng.random() < 0.5:
                return (obj + rng.integers(1, p, size=obj.shape)) % p
            return obj
        if isinstance(obj, tuple):
            return tuple(self._mutate(x, rng) for x in obj)
        return obj

    def act(self, ctx, outbox):
        out = []
        for k, (channel, recipient, payload) in enumerate(outbox):
            rng = rng_for(ctx["scenario"].seed, self.party,
                          f"adversary:RandomByzantine:{ctx['phase']}:{k}")
            roll = rng.random()
            if roll < 0.2:
                continue
            if roll < 0.7:
                payload = self._mutate(payload, rng)
            out.append((channel, recipient, payload))
        return out


class InconsistentEvssDealer(Strategy):
    """Deals mutually inconsistent polynomials, never answers complaints.

    Deal payloads are ("evd", iids, F, G) with F and G stacked over the
    instances the sender deals; rows for this party's instances are
    replaced with fresh uniform garbage, independently per recipient.
    """

    def act(self, ctx, outbox):
        if ctx["phase"].endswith(":deal"):
            p = self.shared["p"]
            out = []
            for channel, recipient, payload in outbox:
                if payload[0] == "evd":
                    tag, iids, fs, gs = payload
                    fs, gs = fs.copy(), gs.copy()
                    for k, iid in enumerate(iids):
                        if ctx["instances"][iid]["dealer"] == self.party:
                            fs[k] = self.rng.integers(0, p, size=fs[k].shape)
                            gs[k] = self.rng.integers(0, p, size=gs[k].shape)
                    payload = (tag, iids, fs, gs)
                out.append((channel, recipient, payload))
            return out
        if ctx["phase"].endswith(":resolve"):
            return []
        return outbox


class _DealOffsetStrategy(Strategy):
    """Shared machinery: consistently deal a shifted polynomial.

    Adds c * x^e to the dealt bivariate along the share variable, i.e.
    recipient j's pair becomes f_j(0) += c * alpha_j^e, g_j coefficient
    e += c, and the dealer's own adopted pair is shifted the same way,
    so nobody complains and the sharing encodes the wrong polynomial.
    """

    def _wants(self, ctx, meta):
        raise NotImplementedError

    def _exp(self, meta):
        raise NotImplementedError

    def act(self, ctx, outbox):
        if not ctx["phase"].endswith(":deal"):
            return outbox
        p = self.shared["p"]
        offsets = {}
        exps = {}
        for iid, meta in ctx["instances"].items():
            if meta["dealer"] == self.party and self._wants(ctx, meta):
                key = ("offset", iid)
                if key not in self.shared:
                    self.shared[key] = int(self.rng.integers(1, p))
                offsets[iid] = self.shared[key]
                exps[iid] = self._exp(meta)
        if not offsets:
            return outbox
        out = []
        for channel, recipient, payload in outbox:
            if payload[0] == "evd" and channel == PRIV:
                tag, iids, fs, gs = payload
                fs, gs = fs.copy(), gs.copy()
                for k, iid in enumerate(iids):
                    if iid in offsets:
                        c, e = offsets[iid], exps[iid]
                        fs[k, 0] = (fs[k, 0] + c * pow(recipient, e, p)) % p
                        gs[k, e] = (gs[k, e] + c) % p
                payload = (tag, iids, fs, gs)
            out.append((channel, recipient, payload))
        # keep own adopted polynomials consistent with the mutation
        own = ctx["own_state"]
        for iid, c in offsets.items():
            if iid not in own:
                continue
            e = exps[iid]
            fc, gc = own[iid]
            fc, gc = fc.copy(), gc.copy()
            fc[0] = (fc[0] + c * pow(self.party, e, p)) % p
            gc[e] = (gc[e] + c) % p
            own[iid] = (fc, gc)
        return out


class WrongSubshareConstant(_DealOffsetStrategy):
    """Subshares F(alpha_n) + c instead of F(alpha_n)."""

    def _wants(self, ctx, meta):    # ":q" ends a subshare batch's prefix
        return ctx["phase"].endswith(":q:deal")

    def _exp(self, meta):
        return 0


class BadGapCoefficient(_DealOffsetStrategy):
    """Puts a nonzero value into the first gap slot; honest when the
    instance labels carry no gap."""

    def _wants(self, ctx, meta):
        return ctx["phase"].endswith(":q:deal") and meta["label"].delta >= 1

    def _exp(self, meta):
        return meta["label"].m


class CorruptProductPoly(_DealOffsetStrategy):
    """Deals a consistent sharing of a wrong product polynomial."""

    def _wants(self, ctx, meta):    # ":c" ends a product deal's prefix
        return ctx["phase"].endswith(":c:deal")

    def _exp(self, meta):
        lab = meta["label"]
        key = ("cexp", meta["dealer"])
        if key not in self.shared:
            self.shared[key] = int(self.rng.integers(0, lab.degree + 1))
        return self.shared[key]


class FalseComplainer(Strategy):
    """Honest everywhere except the product point checks, where it
    accuses the first active party outside the coalition."""

    def act(self, ctx, outbox):
        if ctx["phase"].endswith("mul:check"):
            coalition = self.shared["coalition"]
            victims = [i for i in ctx.get("active", ())
                       if i not in coalition][:1]
            extra = [(BCAST, -1, ("mulcomplaint", v)) for v in victims]
            kept = [s for s in outbox if s[2][0] != "mulcomplaint"]
            return kept + extra
        return outbox


_STRATEGY_CLASSES = {
    "SemiHonest": SemiHonest,
    "InconsistentEvssDealer": InconsistentEvssDealer,
    "WrongSubshareConstant": WrongSubshareConstant,
    "BadGapCoefficient": BadGapCoefficient,
    "CorruptProductPoly": CorruptProductPoly,
    "FalseComplainer": FalseComplainer,
    "RandomByzantine": RandomByzantine,
    "Silent": Silent,
}
STRATEGY_NAMES = tuple(_STRATEGY_CLASSES)


class AdversaryController:
    """Owns strategy instances and their shared (colluding) state.
    Network.exchange calls filter on every round, before delivery; it
    lets each strategy rewrite its own party's outbox. That call is the
    protocol's only contact with the adversary, so no protocol step
    reads who is corrupt."""

    def __init__(self, scenario):
        self.shared = {"p": scenario.p, "coalition": scenario.adversary_ids}
        self.strategies = {}
        for party, name in scenario.adversaries:
            rng = rng_for(scenario.seed, party, f"adversary:{name}")
            self.strategies[party] = _STRATEGY_CLASSES[name](
                party, rng, self.shared)

    def filter(self, ctx, outboxes):
        for party, strat in self.strategies.items():
            if party in outboxes:
                ctx = dict(ctx)
                ctx["own_state"] = ctx.get("states", {}).get(party, {})
                outboxes[party] = strat.act(ctx, outboxes[party])
        return outboxes


def run_scenario(scenario):
    """Execute the scenario's program end to end; returns a Transcript."""
    from . import mpc
    return mpc.execute(scenario.validate())
