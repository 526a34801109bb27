"""Leakage audits over protocol views.

A view is everything a subset of parties can read out of a run: the
envelopes addressed to its members plus every broadcast, with the
subset's own randomness excluded. Privacy means the distribution of
that view over the honest randomness does not depend on the secrets.
Three detectors measure departures from that ideal:

  * enumerate_views walks the whole randomness space of one round-set
    (a single sharing, or one masked-product round) and returns the
    exact view distribution with rational probabilities.
  * product_round_audit splits the product round-set into a source
    factor and a per-worker response kernel, so shapes whose joint
    state space is out of enumeration reach stay exactly auditable.
  * monte_carlo_audit samples many seeded runs of a real scenario (or
    of a template) and compares per-field frequencies between two
    secret assignments with a chi-square statistic.

Enumeration refuses to walk more than 2**24 states (SpaceTooLarge);
larger configurations belong to the factored or sampled paths. View
records are canonical byte strings: transcript-derived views reuse the
transcript line encoding in delivery order, enumerated views use a
fixed component layout tagged with the template parameters. Templates
carry a leak switch that zeroes chosen mask draws, turning a private
round into a deliberately broken fixture for calibrating detectors.

Enumeration proceeds in bounded chunks whose counts merge by plain
addition, so partitions of the randomness space can be audited
independently and combined.
"""

import hashlib
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ParameterViolation, SpaceTooLarge
from .gf import check_prime
from .net import BCAST, Scenario, run_scenario, write_envelope
from .poly import horner

STATE_LIMIT = 1 << 24
_CHUNK = 1 << 18

SHARING = "sharing"
PRODUCT = "product-round"
LEAK_SOURCE = "zero-source-masks"
LEAK_PRODUCT = "zero-product-masks"

_ZERO = Fraction(0)


class ViewRecord(NamedTuple):
    """One observable outcome: who saw it and the canonical bytes."""

    subset: tuple
    messages: bytes


class DistTable(dict):
    """Distribution over ViewRecords; values are exact Fractions."""

    @property
    def total(self):
        return sum(self.values(), _ZERO)

    @classmethod
    def from_counts(cls, subset, tag, counts, total):
        prefix = tag.encode("ascii") + b"|"
        return cls((ViewRecord(subset, prefix + key), Fraction(c, total))
                   for key, c in counts.items())


def tv_distance(a, b):
    """Total variation distance between two DistTables, in [0, 1]."""
    acc = _ZERO
    for key in a.keys() | b.keys():
        acc += abs(a.get(key, _ZERO) - b.get(key, _ZERO))
    return acc / 2


def view_of(transcript, subset):
    """Extract the subset's view from a finished transcript.

    Only envelopes addressed to a member or broadcast are read; the
    order is the transcript's canonical delivery order.
    """
    members = tuple(sorted(set(int(x) for x in subset)))
    buf = bytearray()
    for e in transcript.envelopes:
        if e.channel == BCAST or e.recipient in members:
            write_envelope(buf, e)
    return ViewRecord(members, bytes(buf[:-1]))


class AuditTemplate(NamedTuple):
    """Round-set description for enumeration and template sampling.

    kind is "sharing" (one block sharing of a rows x cols secret) or
    "product-round" (one semi-honest masked-product exchange between a
    pair of sources and n workers). The product round is implemented
    for m=1, t=1; wider parameters exceed the state cap long before
    the formulas would matter. leak zeroes the named mask draws.
    """

    kind: str
    n: int
    t: int
    m: int
    p: int
    rows: int = 1
    cols: int = 1
    leak: str = ""

    def validate(self):
        check_prime(self.p)
        if self.kind not in (SHARING, PRODUCT):
            raise ParameterViolation(f"unknown audit kind {self.kind!r}")
        if self.n < 1 or self.p <= self.n:
            raise ParameterViolation("need p > n >= 1 for distinct points")
        if self.t < 0 or self.m < 1 or self.rows < 1 or self.cols < 1:
            raise ParameterViolation("bad template dimensions")
        if self.leak not in ("", LEAK_SOURCE, LEAK_PRODUCT):
            raise ParameterViolation(f"unknown leak switch {self.leak!r}")
        if self.kind == SHARING:
            if self.cols % self.m:
                raise ParameterViolation("m must divide the secret width")
            if self.leak == LEAK_PRODUCT:
                raise ParameterViolation("sharing has no product masks")
        else:
            if self.m != 1 or self.t != 1:
                raise ParameterViolation(
                    "product-round audits cover m=1, t=1 only")
            if self.n < 3:
                raise ParameterViolation("product round needs n >= 3")
        return self


def _members(template, subset):
    members = tuple(sorted(set(int(x) for x in subset)))
    if not members:
        raise ParameterViolation("empty observer subset")
    for x in members:
        if not 0 <= x <= template.n:
            raise ParameterViolation(f"party {x} outside 0..{template.n}")
    return members


def _tag(template, members):
    obs = ",".join(str(x) for x in members)
    return (f"{template.kind}|n{template.n}t{template.t}m{template.m}"
            f"p{template.p}|{template.rows}x{template.cols}"
            f"|obs{obs}|{template.leak}")


def _draw_count(template, members):
    r, c = template.rows, template.cols
    if template.kind == SHARING:
        return template.t * r * (c // template.m)
    others = [n for n in range(1, template.n + 1) if n not in members]
    return 2 * r * c + len(others) * (2 * r * c + r * r)


def _digit_block(p, k, lo, hi):
    idx = np.arange(lo, hi, dtype=np.int64)
    if k == 0:
        return np.zeros((hi - lo, 0), dtype=np.int64)
    return (idx[:, None] // p ** np.arange(k, dtype=np.int64)) % p


def _check_secret(template, secret):
    if secret.p != template.p or secret.shape != (template.rows, template.cols):
        raise ParameterViolation("secret does not match the template")


def _sharing_rows(template, secret, members, draws):
    """View rows for one sharing: each member's share, concatenated."""
    p, m, t = template.p, template.m, template.t
    r, w = template.rows, template.cols // template.m
    if template.leak == LEAK_SOURCE:
        draws = np.zeros_like(draws)
    blocks = np.stack([b.a for b in secret.block_split(m)])
    cols, labels = [], []
    for j in members:
        if j == 0:
            continue
        base = horner(blocks, [j], p)[0]
        share = np.broadcast_to(base.reshape(1, r * w),
                                (draws.shape[0], r * w)).copy()
        for q in range(t):
            mask = draws[:, q * r * w:(q + 1) * r * w]
            share = (share + pow(j, m + q, p) * mask) % p
        cols.append(share)
        labels.extend(f"share[{j}]{i}" for i in range(r * w))
    if not cols:
        return np.zeros((draws.shape[0], 0), dtype=np.int64), []
    return np.concatenate(cols, axis=1), labels


def _mat_prod(x, y, p):
    """(S, r, c) x (S, r, c) -> (S, r, r) product X Y^T with per-term mod."""
    return ((x[:, :, None, :] * y[:, None, :, :]) % p).sum(axis=-1) % p


def _product_rows(template, pair, members, draws):
    """View rows for one masked-product round at m=1, t=1.

    Components in order: each member's source shares of A and B, then
    for every other worker its two subshare points and its masked
    product point at each member. The member's own draws never appear;
    its received messages do not depend on them.
    """
    p, n = template.p, template.n
    r, c = template.rows, template.cols
    rc, rr = r * c, r * r
    a, b = pair[0].a, pair[1].a
    others = [x for x in range(1, n + 1) if x not in members]
    workers = [x for x in members if x >= 1]
    count = draws.shape[0]

    if template.leak == LEAK_SOURCE:
        draws = draws.copy()
        draws[:, :2 * rc] = 0
    ra = draws[:, 0:rc].reshape(count, r, c)
    rb = draws[:, rc:2 * rc].reshape(count, r, c)

    cols, labels = [], []
    for o in workers:
        cols.append((a.reshape(1, r, c) + o * ra) % p)
        cols.append((b.reshape(1, r, c) + o * rb) % p)
        labels.extend(f"a[{o}]{i}" for i in range(rc))
        labels.extend(f"b[{o}]{i}" for i in range(rc))
    off = 2 * rc
    for w in others:
        sa = draws[:, off:off + rc].reshape(count, r, c)
        sb = draws[:, off + rc:off + 2 * rc].reshape(count, r, c)
        o0 = draws[:, off + 2 * rc:off + 2 * rc + rr].reshape(count, r, r)
        off += 2 * rc + rr
        if template.leak == LEAK_PRODUCT:
            o0 = np.zeros_like(o0)
        a_w = (a.reshape(1, r, c) + w * ra) % p
        b_w = (b.reshape(1, r, c) + w * rb) % p
        top = _mat_prod(sa, sb, p)
        for o in workers:
            qa = (a_w + o * sa) % p
            qb = (b_w + o * sb) % p
            prod = _mat_prod(qa, qb, p)
            c_val = (prod - (o % p) * o0 - (o * o % p) * top) % p
            cols.extend([qa, qb, c_val])
            labels.extend(f"qa[{w}->{o}]{i}" for i in range(rc))
            labels.extend(f"qb[{w}->{o}]{i}" for i in range(rc))
            labels.extend(f"c[{w}->{o}]{i}" for i in range(rr))
    if not cols:
        return np.zeros((count, 0), dtype=np.int64), []
    flat = [x.reshape(count, -1) for x in cols]
    return np.concatenate(flat, axis=1) % p, labels


def _view_rows(template, secret, members, draws):
    if template.kind == SHARING:
        _check_secret(template, secret)
        return _sharing_rows(template, secret, members, draws)
    _check_secret(template, secret[0])
    _check_secret(template, secret[1])
    return _product_rows(template, secret, members, draws)


def enumerate_views(template, secret, subset):
    """Exact view distribution over every honest randomness state.

    secret is an FMatrix for sharing templates and an (A, B) pair for
    product templates. Raises SpaceTooLarge above 2**24 states.
    """
    tpl = template.validate()
    members = _members(tpl, subset)
    k = _draw_count(tpl, members)
    probe, _ = _view_rows(tpl, secret, members, np.zeros((1, k), dtype=np.int64))
    if probe.shape[1] == 0:
        # nothing is delivered to these members, whatever the draws
        return DistTable.from_counts(members, _tag(tpl, members),
                                     Counter({b"": 1}), 1)
    states = tpl.p ** k
    if states > STATE_LIMIT:
        raise SpaceTooLarge(
            f"{states} randomness states exceed the {STATE_LIMIT} cap")
    counts = Counter()
    for lo in range(0, states, _CHUNK):
        hi = min(states, lo + _CHUNK)
        rows, _ = _view_rows(tpl, secret, members, _digit_block(tpl.p, k, lo, hi))
        width = rows.shape[1] * 8
        if width == 0:
            counts[b""] += hi - lo
            continue
        raw = rows.astype("<i8").tobytes()
        for i in range(hi - lo):
            counts[raw[i * width:(i + 1) * width]] += 1
    return DistTable.from_counts(members, _tag(tpl, members), counts, states)


class FactoredReport(NamedTuple):
    """Outcome of the factored product-round audit.

    tv is exact when kernels_match; with a broken kernel it is a lower
    bound taken from the worst mismatched conditioning.
    """

    tv: Fraction
    kernels_match: bool
    source_states: int
    kernel_conditionings: int


def product_round_audit(template, pair_a, pair_b, observer):
    """Exact product-round audit through its factored structure.

    The observer's view is the source block ([A]_o, [B]_o) followed by
    every other worker's response (two subshare points and a masked
    product point). The responses are a fixed kernel of the responder's
    own draws: if that kernel is one distribution for every possible
    conditioning value, the whole view's distance equals the source
    block's, computed here by enumeration of the source masks. The
    kernel claim itself is checked by enumerating every conditioning.
    """
    tpl = template.validate()
    if tpl.kind != PRODUCT:
        raise ParameterViolation("factored audit applies to product rounds")
    if not 1 <= observer <= tpl.n:
        raise ParameterViolation(f"observer {observer} outside 1..{tpl.n}")
    for pair in (pair_a, pair_b):
        _check_secret(tpl, pair[0])
        _check_secret(tpl, pair[1])
    p, r, c = tpl.p, tpl.rows, tpl.cols
    rc, rr = r * c, r * r
    if p ** (4 * rc + rr) > STATE_LIMIT:
        raise SpaceTooLarge("kernel conditioning space exceeds the cap")

    src_states = p ** (2 * rc)
    members = (observer,)
    grid = _digit_block(p, 2 * rc, 0, src_states)
    tables = []
    for pair in (pair_a, pair_b):
        a, b = pair[0].a, pair[1].a
        if tpl.leak == LEAK_SOURCE:
            ra = np.zeros((src_states, r, c), dtype=np.int64)
            rb = ra
        else:
            ra = grid[:, :rc].reshape(src_states, r, c)
            rb = grid[:, rc:].reshape(src_states, r, c)
        va = (a.reshape(1, r, c) + observer * ra) % p
        vb = (b.reshape(1, r, c) + observer * rb) % p
        rows = np.concatenate([va.reshape(src_states, -1),
                               vb.reshape(src_states, -1)], axis=1)
        counts = Counter()
        width = rows.shape[1] * 8
        raw = rows.astype("<i8").tobytes()
        for i in range(src_states):
            counts[raw[i * width:(i + 1) * width]] += 1
        tables.append(DistTable.from_counts(
            members, _tag(tpl, members) + "|source", counts, src_states))
    tv = tv_distance(tables[0], tables[1])

    kern_draws = _digit_block(p, 2 * rc + rr, 0, p ** (2 * rc + rr))
    kern_states = kern_draws.shape[0]
    conds = _digit_block(p, 2 * rc, 0, src_states)
    powers = p ** np.arange(2 * rc + rr, dtype=np.int64)
    sa = kern_draws[:, :rc].reshape(kern_states, r, c)
    sb = kern_draws[:, rc:2 * rc].reshape(kern_states, r, c)
    o0 = kern_draws[:, 2 * rc:].reshape(kern_states, r, r)
    if tpl.leak == LEAK_PRODUCT:
        o0 = np.zeros_like(o0)
    top = _mat_prod(sa, sb, p)
    kernels_match = True
    worst = _ZERO
    reference = None
    for cond in conds:
        cond_a = cond[:rc].reshape(1, r, c)
        cond_b = cond[rc:].reshape(1, r, c)
        qa = (cond_a + observer * sa) % p
        qb = (cond_b + observer * sb) % p
        c_val = (_mat_prod(qa, qb, p) - (observer % p) * o0
                 - (observer * observer % p) * top) % p
        rows = np.concatenate([qa.reshape(kern_states, -1),
                               qb.reshape(kern_states, -1),
                               c_val.reshape(kern_states, -1)], axis=1)
        codes = rows @ powers
        counts = np.bincount(codes, minlength=int(p ** (2 * rc + rr)))
        if reference is None:
            reference = counts
        elif not np.array_equal(counts, reference):
            kernels_match = False
            diff = int(np.abs(counts - reference).sum())
            worst = max(worst, Fraction(diff, 2 * kern_states))
    if not kernels_match:
        tv = max(tv, worst)
    return FactoredReport(tv, kernels_match, src_states, len(conds))


class MonteCarloReport(NamedTuple):
    samples: int
    fields: int
    flags: tuple


def _mix(seed, salt, i):
    digest = hashlib.sha256(f"audit|{seed}|{salt}|{i}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _flat_ints(payload):
    if isinstance(payload, (bool, str)) or payload is None:
        return
    if isinstance(payload, (int, np.integer)):
        yield int(payload)
        return
    if isinstance(payload, np.ndarray):
        yield from (int(v) for v in payload.ravel())
        return
    if isinstance(payload, (tuple, list)):
        for item in payload:
            yield from _flat_ints(item)


def _transcript_fields(transcript, members):
    ix = 0
    for e in transcript.envelopes:
        if e.channel != BCAST and e.recipient not in members:
            continue
        base = f"{ix:04d}|{e.phase}|{e.sender}"
        for pos, v in enumerate(_flat_ints(e.payload)):
            yield f"{base}|{pos}", v
        ix += 1


def _scenario_fields(scenario, inputs, members, samples, seed, salt):
    fields = {}
    for i in range(samples):
        run = replace(scenario, seed=_mix(seed, salt, i), inputs=tuple(inputs))
        transcript = run_scenario(run)
        for key, val in _transcript_fields(transcript, members):
            fields.setdefault(key, []).append(val)
    return {k: np.array(v, dtype=np.int64) for k, v in fields.items()}


def _template_fields(template, secret, members, samples, seed, salt):
    k = _draw_count(template, members)
    rng = np.random.Generator(np.random.Philox(key=_mix(seed, salt, 0)))
    draws = rng.integers(0, template.p, size=(samples, k), dtype=np.int64)
    rows, labels = _view_rows(template, secret, members, draws)
    return {lab: rows[:, i].copy() for i, lab in enumerate(labels)}


def _freq_divergence(va, vb, p, buckets=8):
    """Two-sample chi-square over value buckets; returns (stat, crit)."""
    width = min(p, buckets)
    ca = np.bincount(va * width // p, minlength=width).astype(np.float64)
    cb = np.bincount(vb * width // p, minlength=width).astype(np.float64)
    pooled = ca + cb
    live = pooled > 0
    df = int(live.sum()) - 1
    if df < 1:
        return 0.0, 1.0
    na, nb_tot = ca.sum(), cb.sum()
    ea = na * pooled[live] / (na + nb_tot)
    eb = nb_tot * pooled[live] / (na + nb_tot)
    stat = float((((ca[live] - ea) ** 2) / ea).sum()
                 + (((cb[live] - eb) ** 2) / eb).sum())
    crit = df + 5.0 * (2.0 * df) ** 0.5 + 10.0
    return stat, crit


def monte_carlo_audit(source, secrets, subset, samples, *, seed=0):
    """Frequency comparison of sampled views under two secret choices.

    source is a Scenario (views come from full protocol transcripts) or
    an AuditTemplate (views come from the template sampler). secrets is
    a pair of input assignments. Every numeric message field is bucketed
    and chi-square tested; the report lists fields whose statistic
    crosses the critical value, which is set high enough that honest
    configurations stay quiet across hundreds of fields.
    """
    if samples < 1000:
        raise ParameterViolation("need at least 1000 samples per side")
    if len(secrets) != 2:
        raise ParameterViolation("exactly two secret assignments required")
    if isinstance(source, AuditTemplate):
        tpl = source.validate()
        members = _members(tpl, subset)
        side_a = _template_fields(tpl, secrets[0], members, samples, seed, 0)
        side_b = _template_fields(tpl, secrets[1], members, samples, seed, 1)
        p = tpl.p
    elif isinstance(source, Scenario):
        members = tuple(sorted(set(int(x) for x in subset)))
        side_a = _scenario_fields(source, secrets[0], members, samples, seed, 0)
        side_b = _scenario_fields(source, secrets[1], members, samples, seed, 1)
        p = source.p
    else:
        raise ParameterViolation(f"unsupported audit source {type(source)}")
    flags = []
    keys = sorted(side_a.keys() | side_b.keys())
    for key in keys:
        va = side_a.get(key)
        vb = side_b.get(key)
        if va is None or vb is None:
            flags.append((key, float("inf"), 0.0))
            continue
        stat, crit = _freq_divergence(va, vb, p)
        if stat > crit:
            flags.append((key, round(stat, 2), round(crit, 2)))
    return MonteCarloReport(samples, len(keys), tuple(flags))


class ScriptedRng:
    """Feeds predetermined field elements to code expecting a Generator."""

    def __init__(self, values):
        self._queue = []
        for v in values:
            arr = np.asarray(v)
            self._queue.extend(int(x) for x in arr.ravel())

    def integers(self, low, high=None, size=None, dtype=np.int64):
        if size is None:
            return self._queue.pop(0)
        shape = (size,) if isinstance(size, int) else tuple(size)
        count = 1
        for d in shape:
            count *= d
        vals = [self._queue.pop(0) for _ in range(count)]
        return np.array(vals, dtype=np.int64).reshape(shape)
