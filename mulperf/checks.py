"""Checks every pass must pass; each raises CheckFailed when it fails.

None of them calls compc: outputs are compared with the Python-integer
oracle of workloads.py, and everything else is read from transcripts.
"""

from workloads import REASON_CODES


class CheckFailed(Exception):
    pass


def eliminations(transcript):
    """{party: reason} from the transcript's elimination events; the
    first reason recorded for a party is the one that counts."""
    out = {}
    for event in transcript.events:
        if event and event[0] == "eliminate":
            _, _, party, reason = event
            out.setdefault(int(party), str(reason))
    return out


def check_output(label, got, expected):
    """The revealed matrix, as lists of ints, equals the oracle's."""
    if got != expected:
        raise CheckFailed(f"{label}: revealed matrix differs from the oracle")


def check_eliminations(label, eliminated, declared):
    """Only declared adversaries are eliminated, each with a known code."""
    for party, reason in sorted(eliminated.items()):
        if party not in declared:
            raise CheckFailed(f"{label}: honest party {party} eliminated "
                              f"({reason})")
        if reason not in REASON_CODES:
            raise CheckFailed(f"{label}: party {party} eliminated with "
                              f"unknown reason {reason!r}")


def check_all_codes(label, codes):
    """A byzantine pass produces every one of the four reason codes."""
    missing = REASON_CODES - set(codes)
    if missing:
        raise CheckFailed(f"{label}: reason codes never produced: "
                          f"{', '.join(sorted(missing))}")


def check_same(label, what, reference, value):
    """Digests and counts of a pass equal those of the first pass."""
    if value != reference:
        raise CheckFailed(f"{label}: {what} differ from the first pass: "
                          f"{value} != {reference}")


def check_deals(label, batches):
    """Closed-form deal traffic of the EVSS batches of one pass.

    Each batch is {"phase", "workers", "dealers": {dealer: (K, d+1, r,
    c)}, "sent": {dealer: {recipient: field elements}}}. On a run
    without adversaries every dealer sends every other worker one
    envelope holding exactly 2*K*(d+1)*r*c field elements.
    """
    for b in batches:
        for dealer, (k, d1, r, c) in sorted(b["dealers"].items()):
            want = 2 * k * d1 * r * c
            sent = b["sent"].get(dealer, {})
            to = set(b["workers"]) - {dealer}
            if set(sent) != to:
                raise CheckFailed(
                    f"{label}: {b['phase']} dealer {dealer} reached "
                    f"{sorted(sent)}, not {sorted(to)}")
            for recipient, got in sorted(sent.items()):
                if got != want:
                    raise CheckFailed(
                        f"{label}: {b['phase']} dealer {dealer} sent "
                        f"{got} field elements to {recipient}, closed "
                        f"form 2*{k}*{d1}*{r}*{c} = {want}")
