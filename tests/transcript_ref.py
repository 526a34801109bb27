"""Reference transcript encoder: the original string-building form.

This is the first implementation of the transcript text, kept as the
oracle that `compc.net`'s vectorised encoder must match byte for byte.
It builds one string per field element and per line, so it is slow on
large transcripts; use it only in tests.
"""

import numpy as np

from compc.net import BCAST


def ref_ser(obj):
    """Canonical, unambiguous text form for payload trees."""
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return obj
    if obj is None:
        return "~"
    if isinstance(obj, np.ndarray):
        dims = ",".join(str(d) for d in obj.shape)
        body = ",".join(str(int(v)) for v in obj.ravel())
        return f"[{dims}:{body}]"
    if isinstance(obj, (tuple, list)):
        return "(" + ";".join(ref_ser(x) for x in obj) + ")"
    raise TypeError(f"unserializable payload element {type(obj)}")


def ref_envelope_line(e):
    to = "*" if e.channel == BCAST else str(e.recipient)
    return f"E|{e.round}|{e.sender}|{to}|{e.phase}|{ref_ser(e.payload)}"


def ref_serialize(transcript):
    lines = [ref_envelope_line(e) for e in transcript.envelopes]
    for ev in transcript.events:
        lines.append("V|" + "|".join(ref_ser(x) for x in ev))
    if transcript.abort is not None:
        lines.append(f"A|{transcript.abort[0]}|{transcript.abort[1]}")
    if transcript.master_output is not None:
        lines.append(f"M|{ref_ser(transcript.master_output.a)}")
    return "\n".join(lines) + "\n"
