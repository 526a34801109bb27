"""The transcript text: encoder against the reference, and a golden run.

`compc.net` writes an integer array with every entry in [0, 2**32) as
base64 of its little-endian uint32 words and any other array in
decimal; both must give exactly the text of the reference encoder in
`transcript_ref.py`, which builds the text one element at a time, and
real transcripts must parse back into their payloads. Strings must be
names, so that no two payloads share a text. The golden test pins the
whole format on a real adversarial run.
"""

import hashlib
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from compc import cli
from compc.audit import view_of
from compc.gf import DEFAULT_PRIME, FMatrix
from compc.mpc import ProgramOp
from compc.net import (BCAST, PRIV, Envelope, Field, Scenario, Transcript,
                       _fits, encode, run_scenario)
from transcript_ref import (NAME, parse_envelope_line, parse_value,
                            ref_envelope_line, ref_ser, ref_serialize)

THRESHOLD_SCN = Path(__file__).resolve().parent.parent / "scenarios" \
    / "threshold.scn"

EDGES = [0, 9, 10, 99, 100, DEFAULT_PRIME - 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32,
         10 ** 18, 2 ** 63 - 1]
SIZES = [0, 1, 2, 127, 128, 129, 130, 389]

nonneg = st.sampled_from(EDGES) | st.integers(0, 2 ** 63 - 1) \
    | st.integers(0, 2 ** 31)
signed = nonneg | st.integers(-2 ** 63, -1) | st.sampled_from([-1, -10])


@st.composite
def int64_arrays(draw):
    size = draw(st.sampled_from(SIZES) | st.integers(0, 512))
    values = signed if draw(st.booleans()) else nonneg
    flat = draw(hnp.arrays(np.int64, size, elements=values))
    if draw(st.booleans()) and size % 2 == 0 and size:
        return flat.reshape(2, size // 2)
    return flat


def scenario(n, t, m, p, inputs, program, adversaries=()):
    return Scenario(n=n, t=t, m=m, p=p, seed=21, z=inputs[0].shape[0],
                    program=tuple(program), adversaries=adversaries,
                    inputs=tuple(FMatrix(x, p) for x in inputs))


arrays = int64_arrays() | st.builds(np.int64, signed).map(np.array)
# mostly names, which the encoder writes, and some arbitrary text,
# which both encoders refuse
strings = st.from_regex(NAME, fullmatch=True) | st.text()
leaves = (arrays | strings | st.integers() | st.builds(np.int64, signed)
          | st.none())
trees = st.recursive(
    leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.lists(strings, max_size=4).map(tuple),
    max_leaves=12)


def agree(ours, reference, arg):
    """ours(arg) equals reference(arg), or both raise TypeError."""
    try:
        want = reference(arg)
    except TypeError:
        with pytest.raises(TypeError):
            ours(arg)
        return
    assert ours(arg) == want


@settings(max_examples=300, deadline=None)
@given(trees)
def test_encoder_matches_reference(tree):
    agree(encode, lambda x: ref_ser(x).encode(), tree)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("value", EDGES)
def test_every_edge_value_on_both_sides_of_the_cutoff(size, value):
    a = np.full(size, value, dtype=np.int64)
    a[::3] = 0
    assert encode(a) == ref_ser(a).encode()
    a[-1:] = -1
    assert encode(a) == ref_ser(a).encode()
    a[1::2] = -value
    assert encode(a) == ref_ser(a).encode()


def test_zero_dimensional_and_empty_arrays():
    assert encode(np.array(7)) == b"[#BwAAAA==]"
    assert encode(np.array(-7)) == b"[:-7]"
    assert encode(np.zeros((0, 3), dtype=np.int64)) == b"[0,3#]"
    assert encode(np.zeros(0, dtype=bool)) == b"[0:]"
    assert encode(np.zeros((2, 0), dtype=float)) == b"[2,0:]"
    assert encode((None, "a", 5, [])) == b"(~;a;5;())"


@pytest.mark.parametrize("a, text", [
    (np.array([2 ** 32 - 1, 0]), b"[2#/////wAAAAA=]"),
    (np.array([2 ** 32, 0]), b"[2:4294967296,0]"),
    (np.array([2 ** 32 - 1], dtype=np.uint64), b"[1#/////w==]"),
    (np.array([2 ** 32], dtype=np.uint64), b"[1:4294967296]"),
    (np.array([[1, 2], [3, 4]]), b"[2,2#AQAAAAIAAAADAAAABAAAAA==]"),
    (np.array([[1, 2], [3, 4]]).T, b"[2,2#AQAAAAMAAAACAAAABAAAAA==]"),
    (np.array([1, -1]), b"[2:1,-1]"),
    (np.array([True, False]), b"[2:1,0]"),
    (np.array([1.0, 2.0]), b"[2:1,2]"),
    (np.array(True), b"[:1]"),
])
def test_array_forms_at_the_boundaries(a, text):
    """Entries in [0, 2**32) of an integer dtype take the base64 form,
    in C order; a negative entry, an entry of 2**32 or more, a bool or
    a float array keeps the decimal form."""
    assert encode(a) == text == ref_ser(a).encode()
    assert np.array_equal(parse_value(text.decode()), a)


@pytest.mark.parametrize("a", [
    np.arange(300, dtype=np.int32), np.arange(300, dtype=np.uint64) * 7,
    np.array([True, False]), np.array([1.5, -2.7, 3.0])])
def test_other_dtypes_print_as_integers(a):
    assert encode(a) == ref_ser(a).encode()


@pytest.mark.parametrize("bad", [1.5, np.bool_(True), {"a": 1}, (1, b"x")])
def test_unknown_elements_are_refused(bad):
    with pytest.raises(TypeError):
        ref_ser(bad)
    with pytest.raises(TypeError):
        encode(bad)


@pytest.mark.parametrize("refused, kept, text", [
    (("a;b",), ("a", "b"), b"(a;b)"),
    (("",), (), b"()"),
    (("12",), (12,), b"(12)"),
    (("~",), (None,), b"(~)"),
    (("(a)",), (("a",),), b"((a))"),
])
def test_strings_that_would_collide_are_refused(refused, kept, text):
    """Written as they are, the refused strings would give the text of
    the kept payload."""
    assert encode(kept) == ref_ser(kept).encode() == text
    with pytest.raises(TypeError):
        encode(refused)


@pytest.mark.parametrize("bad", [
    "", "1a", "_a", "-a", ".a", ":a", " a", "a b", "a|b", "a;b", "a(b",
    "a)", "a[0]", "a#", "a~", "a,b", "\u00e9", "a\u00e9", "a\n", "~"])
def test_strings_that_are_not_names_are_refused(bad):
    for tree in (bad, (bad,), ("ok", bad), (bad, "ok"), ("ok", 1, bad),
                 [bad]):
        with pytest.raises(TypeError):
            encode(tree)
        with pytest.raises(TypeError):
            ref_ser(tree)


def test_names_are_written_as_they_are():
    names = ("a", "Z", "r2mul:res00", "q001f02", "A-b.c_d:9")
    assert encode(names) == b"(a;Z;r2mul:res00;q001f02;A-b.c_d:9)"
    assert encode(("evc", (("c001", "self"),))) == b"(evc;((c001;self)))"


envelopes = st.builds(
    Envelope, st.integers(0, 500), st.integers(0, 30),
    st.sampled_from([BCAST, PRIV]), st.integers(-1, 30),
    st.text(min_size=1), trees)


@settings(max_examples=100, deadline=None)
@given(st.lists(envelopes, max_size=5), st.lists(st.lists(trees, max_size=4)
                                                   .map(tuple), max_size=3),
       st.none() | st.tuples(st.text(), st.text()),
       st.none() | int64_arrays())
def test_serialize_matches_reference(envs, events, abort, master):
    tr = Transcript(envelopes=list(envs), events=list(events), abort=abort,
                    master_output=None if master is None
                    else types.SimpleNamespace(a=master))
    agree(Transcript.serialize, ref_serialize, tr)


def test_empty_transcript_is_one_newline():
    assert Transcript().serialize() == ref_serialize(Transcript()) == "\n"


def test_views_use_the_transcript_line_format():
    tr = run_scenario(scenario(
        4, 1, 1, 13, [np.arange(4).reshape(2, 2)],
        [ProgramOp("share", (0, "direct"), "x"), ProgramOp("reveal", ("x",))]))
    for subset in ((), (1,), (2, 3)):
        lines = [ref_envelope_line(e) for e in tr.envelopes
                 if e.channel == BCAST or e.recipient in subset]
        assert view_of(tr, subset).messages == "\n".join(lines).encode()


def same_tree(parsed, payload):
    """A parsed payload tree equals the payload it was written from:
    arrays in shape and entries, tuples and lists item by item, ints
    by value, strings and None as they are."""
    if isinstance(payload, np.ndarray):
        return isinstance(parsed, np.ndarray) \
            and parsed.shape == payload.shape \
            and np.array_equal(parsed, payload)
    if isinstance(payload, (tuple, list)):
        return isinstance(parsed, tuple) and len(parsed) == len(payload) \
            and all(map(same_tree, parsed, payload))
    if isinstance(payload, (int, np.integer)):
        return type(parsed) is int and parsed == int(payload)
    return type(parsed) is type(payload) and parsed == payload


def assert_envelopes_parse_back(tr):
    lines = tr.serialize().splitlines()
    assert len(lines) >= len(tr.envelopes)
    for line, e in zip(lines, tr.envelopes):
        rnd, sender, to, phase, tree = parse_envelope_line(line)
        assert (rnd, sender, to, phase) == (e.round, e.sender, e.recipient,
                                            e.phase)
        assert same_tree(tree, e.payload), line[:80]


def test_threshold_transcript_parses_back():
    args = cli.build_parser().parse_args(
        ["run", "--scenario", str(THRESHOLD_SCN)])
    tr = run_scenario(cli.load_scenario(args))
    assert_envelopes_parse_back(tr)


def test_byzantine_transcript_parses_back():
    """m=3, t=2, N=11 with a false complainer and a random liar:
    complaints, settlement and mutated arrays, on the direction and
    transpose drivers too."""
    rng = np.random.default_rng(5)
    xs = [rng.integers(0, DEFAULT_PRIME, size=(6, 6)) for _ in range(2)]
    program = [ProgramOp("share", (0, "direct"), "a"),
               ProgramOp("share", (1, "direct"), "b0"),
               ProgramOp("d2r", ("b0",), "b"),
               ProgramOp("mul", ("a", "b"), "c"),
               ProgramOp("transpose", ("c",), "d"),
               ProgramOp("reveal", ("d",))]
    tr = run_scenario(scenario(11, 2, 3, DEFAULT_PRIME, xs, program,
                               adversaries=((2, "FalseComplainer"),
                                            (7, "RandomByzantine"))))
    assert any(e.phase.endswith(":res") for e in tr.envelopes)
    assert_envelopes_parse_back(tr)


# pinned when the EVSS cross round stopped sending the points of an
# instance dealt by the sender or the recipient; the revealed product
# and the elimination of party 6 are unchanged
GOLDEN_SHA256 = \
    "8217259737a216e4723d14f1b5293bfe6a8215d03cc3181cd08089312f6c0b99"
GOLDEN_BYTES = 51_301
GOLDEN_MASTER = \
    "master=642e8e050764e67a63a82d39c88293b2f303e30cfdd4aab049e4935c86106e9e"


def test_golden_threshold_transcript(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["run", "--scenario", str(THRESHOLD_SCN),
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out.rstrip("\n").endswith(GOLDEN_MASTER)
    data = (tmp_path / "run.transcript").read_bytes()
    assert len(data) == GOLDEN_BYTES
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256


def cross_claims(envelopes, prefix, i, workers, p):
    """The pair claims party i owes on batch `prefix`, recomputed from
    the transcript alone: for each instance i holds and each other
    worker j such that neither i nor j dealt it (its dealer is the
    sender of its deal envelopes), i's own points sent to j,
    (f_i(a_j), g_i(a_j)), whenever j's stack to i is missing,
    malformed, lacks the instance, or does not carry (g_i(a_j),
    f_i(a_j))."""
    dealer = {iid: e.sender for e in envelopes
              if e.phase == f"{prefix}:deal" for iid in e.payload[1]}
    cross = [e for e in envelopes if e.phase == f"{prefix}:cross"]
    mine = {e.recipient: e.payload for e in cross if e.sender == i}
    if not mine:
        return []
    held = sorted({iid for _, iids, _, _ in mine.values() for iid in iids})
    point = Field((None,) + next(iter(mine.values()))[2].shape[1:], p)
    got = {}
    for e in cross:
        _, iids, us, vs = e.payload
        if e.recipient == i and e.sender not in got and _fits(
                e.payload, ("evx", [str], point, point)) \
                and len(set(iids)) == len(iids) == len(us) == len(vs):
            got[e.sender] = {iid: (us[k], vs[k]) for k, iid in enumerate(iids)}
    out = []
    for iid in held:
        for j in workers:
            if j in (i, dealer[iid]):
                continue
            _, iids, us, vs = mine[j]
            k = iids.index(iid)
            back = got.get(j, {}).get(iid)
            if back is None or not (np.array_equal(back[0], vs[k])
                                    and np.array_equal(back[1], us[k])):
                out.append((iid, j, us[k], vs[k]))
    return out


@pytest.mark.parametrize("name", ["Silent", "RandomByzantine",
                                  "InconsistentEvssDealer"])
def test_complaints_need_only_the_senders_the_screen_doubts(name):
    """Every honest complaint broadcast claims exactly the cross pairs
    that its sender's cross envelopes show missing or mismatched,
    recomputed here from the transcript alone, and nothing else."""
    n = 6
    xs = [np.arange(16).reshape(4, 4) % 97, np.eye(4, dtype=np.int64)]
    program = [ProgramOp("share", (0, "direct"), "a"),
               ProgramOp("share", (1, "reverse"), "b"),
               ProgramOp("mul", ("a", "b"), "c"),
               ProgramOp("reveal", ("c",))]
    claimed = 0
    for seed in (21, 22, 23):
        s = replace(scenario(n, 1, 2, 97, xs, program,
                             adversaries=((2, name),)), seed=seed)
        envelopes = run_scenario(s).envelopes
        prefixes = {e.phase.rsplit(":", 1)[0] for e in envelopes
                    if e.phase.endswith(":cross")}
        for prefix in sorted(prefixes):
            for i in s.workers:
                if i == 2:
                    continue
                said = [e.payload[2] for e in envelopes if e.sender == i
                        and e.phase == f"{prefix}:complain"]
                want = cross_claims(envelopes, prefix, i, s.workers, s.p)
                pairs = said[0] if said else ()
                assert [c[:2] for c in pairs] == [c[:2] for c in want]
                assert all(np.array_equal(a[2], b[2])
                           and np.array_equal(a[3], b[3])
                           for a, b in zip(pairs, want))
                claimed += len(pairs)
    assert claimed
