"""Traffic counts read from compc transcripts.

A field element is one entry of an ndarray in an envelope's payload;
tags, instance ids, party ids and vote bits are not counted. A
broadcast counts once, as sent. Rounds are the network rounds the
transcript spans, including rounds in which nobody sent anything.
"""

import numpy as np

PRIV = "priv"

# the phase name is r{op index}{op}:{sub-phase ...}; a family names the
# protocol step, an EVSS round the step inside one batch
FAMILIES = ("shr", "q", "syn", "t", "par", "o", "c", "check", "res", "out")
EVSS_ROUNDS = ("deal", "cross", "complain", "resolve", "vote")


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


def phase_keys(phase):
    """(family, EVSS round) of a phase name; either may be None."""
    parts = phase.split(":")
    head, last = parts[0], parts[-1]
    rnd = last if last in EVSS_ROUNDS else None
    if head.endswith("shr"):
        fam = "shr"
    elif head.endswith("out"):
        fam = "out"
    elif any(part.startswith("res") for part in parts[1:]):
        fam = "res"
    elif last in ("syn", "par", "check"):
        fam = last
    elif rnd and len(parts) >= 2 and parts[-2] in ("q", "t", "o", "c"):
        fam = parts[-2]
    else:
        fam = None
    return fam, rnd


def totals(transcripts):
    """Envelopes, rounds and field elements summed over transcripts."""
    envelopes = rounds = fe = 0
    for tr in transcripts:
        envelopes += len(tr.envelopes)
        if tr.envelopes:
            rounds += tr.envelopes[-1].round + 1
        fe += sum(field_elements(e.payload) for e in tr.envelopes)
    return {"envelopes": envelopes, "rounds": rounds, "field_elements": fe}


def by_family(transcripts):
    """{"net.fe.<key>": n, "net.envelopes.<key>": n} over families and
    EVSS rounds; every key is present, zero when unused."""
    out = {}
    for key in FAMILIES + EVSS_ROUNDS:
        out[f"net.fe.{key}"] = 0
        out[f"net.envelopes.{key}"] = 0
    for tr in transcripts:
        for e in tr.envelopes:
            n = field_elements(e.payload)
            for key in phase_keys(e.phase):
                if key is not None:
                    out[f"net.fe.{key}"] += n
                    out[f"net.envelopes.{key}"] += 1
    return out


def deal_sent(envelopes, phase):
    """{dealer: {recipient: field elements}} of one batch's deal round."""
    sent = {}
    for e in envelopes:
        if e.phase == phase and e.channel == PRIV:
            per = sent.setdefault(e.sender, {})
            per[e.recipient] = per.get(e.recipient, 0) + \
                field_elements(e.payload)
    return sent
