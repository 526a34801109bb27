"""Reference transcript encoder and a parser for the transcript text.

`ref_ser` builds the text one element at a time from Python ints, the
oracle that `compc.net`'s encoder must match byte for byte. It is slow
on large transcripts; use it only in tests.

`parse_value` and `parse_envelope_line` read the text back into
payload trees, both array forms included, so tests can check that the
encoding loses nothing.
"""

import base64
import re

import numpy as np

from compc.net import BCAST


NAME = re.compile(r"[A-Za-z][A-Za-z0-9_:.\-]*")


def ref_ser(obj):
    """Canonical, unambiguous text form for payload trees."""
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        if not NAME.fullmatch(obj):
            raise TypeError(f"unserializable string {obj!r}")
        return obj
    if obj is None:
        return "~"
    if isinstance(obj, np.ndarray):
        dims = ",".join(str(d) for d in obj.shape)
        values = [int(v) for v in obj.ravel()]
        if obj.dtype.kind in "iu" and all(0 <= v < 2 ** 32 for v in values):
            raw = b"".join(v.to_bytes(4, "little") for v in values)
            return f"[{dims}#{base64.b64encode(raw).decode()}]"
        return f"[{dims}:{','.join(str(v) for v in values)}]"
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


_INT = re.compile(r"-?\d+")


def _scalar(token):
    if token == "~":
        return None
    return int(token) if _INT.fullmatch(token) else token


def _parse(text, k):
    """(tree, next index) for the value starting at text[k]: ints,
    strings, None, int64 arrays and tuples (lists read as tuples)."""
    if text.startswith("(", k):
        items, k = [], k + 1
        if text.startswith(")", k):
            return (), k + 1
        while True:
            item, k = _parse(text, k)
            items.append(item)
            k += 1
            if text[k - 1] == ")":
                return tuple(items), k
    if text.startswith("[", k):
        end = text.index("]", k)
        head, form, body = re.split(r"([:#])", text[k + 1:end], maxsplit=1)
        shape = tuple(int(d) for d in head.split(",")) if head else ()
        if form == "#":
            flat = np.frombuffer(base64.b64decode(body), dtype="<u4")
        else:
            flat = [int(v) for v in body.split(",")] if body else []
        return np.array(flat, dtype=np.int64).reshape(shape), end + 1
    end = k
    while end < len(text) and text[end] not in ";)":
        end += 1
    return _scalar(text[k:end]), end


def parse_value(text):
    tree, k = _parse(text, 0)
    if k != len(text):
        raise ValueError(f"trailing text at {k}: {text[k:k + 20]!r}")
    return tree


def parse_envelope_line(line):
    """(round, sender, recipient, phase, payload tree) of an E| line;
    recipient -1 is a broadcast."""
    tag, rnd, sender, to, phase, value = line.split("|", 5)
    if tag != "E":
        raise ValueError(f"not an envelope line: {line[:20]!r}")
    return (int(rnd), int(sender), -1 if to == "*" else int(to), phase,
            parse_value(value))
