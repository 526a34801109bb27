"""Run a fixed set of compc scenarios and compare two trees run by run.

    python3 tools/runset.py --tree PATH --out FILE
    python3 tools/runset.py --diff A B

--tree imports compc from PATH/src and from nowhere else, runs every
scenario of the run set through compc.net.run_scenario, one at a time,
and writes one JSON line per run to FILE: the SHA-256 and byte count
of Transcript.serialize(), the eliminations, a digest of the event
lines, a digest of the revealed output, the typed error a run raised,
and the rounds, envelopes and field elements as mulperf/traffic.py
counts them. Run the same script on two checkouts (a parent and a
change, say) and --diff the two files: it names, for each run, every
field that differs, and exits 1 if any does or a run is missing.

The run set (1 018 runs):
  - the six mulperf scenarios at input seed 1;
  - the AC02 grid: 7 strategies x (m,t) in {(1,1),(1,2),(2,1),(2,2)}
    x 20 seeds at N = 3t+2m-1, z = 4, p = 2^31-1 (560 runs);
  - the AC09 grid: WrongSubshareConstant and BadGapCoefficient x 50
    seeds at m=2, t=1, N=6, z=2 (100 runs);
  - beyond the budget: 8 strategies x the AC02 (m,t) x 2 seeds at
    N = 3t+2m-2, z = 2m, p = 97 (64 runs);
  - the strategy grid: 8 strategies x p in {11, 13, 97} x (m,t) in
    {(1,1),(2,1),(2,2),(3,1)} x 3 seeds, SHARE/SHARE/D2R/MUL/TRANSPOSE/
    REVEAL at z = 2m (288 runs).
mulperf's modules are imported, never changed.
"""

import argparse
import hashlib
import importlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "mulperf"))

import traffic      # noqa: E402  (mulperf/traffic.py)
import workloads    # noqa: E402  (mulperf/workloads.py)

P31 = 2 ** 31 - 1
MUL = (("share", (0, "direct"), "ra"), ("share", (1, "reverse"), "rb"),
       ("mul", ("ra", "rb"), "rc"), ("reveal", ("rc",), ""))
PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))


def import_tree(tree):
    """Import compc from tree/src; exit if it comes from anywhere else."""
    src = (Path(tree) / "src").resolve()
    sys.path.insert(0, str(src))
    compc = importlib.import_module("compc")
    if Path(compc.__file__).resolve().parent != src / "compc":
        raise SystemExit(f"compc was imported from {compc.__file__}")


def _matrices(seed, count, size, p):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, p, size=(size, size)) for _ in range(count)]


def run_set():
    """(run id, Scenario) for every run of the set, in a fixed order."""
    from compc.gf import FMatrix
    from compc.net import STRATEGY_NAMES, Scenario

    def scenario(n, t, m, p, seed, z, program, adversaries, xs, **kw):
        return Scenario(n=n, t=t, m=m, p=p, seed=seed, z=z, program=program,
                        adversaries=adversaries,
                        inputs=tuple(FMatrix(x, p) for x in xs), **kw)

    for name, w in workloads.WORKLOADS.items():
        a, b = workloads.make_inputs(w, 1)
        for ix, s in enumerate(workloads.scenarios(w, a, b)):
            yield f"mulperf/{name}/{ix}", s
    for (m, t), name, seed in itertools.product(
            PAIRS, [x for x in STRATEGY_NAMES if x != "SemiHonest"],
            range(20)):
        n = 3 * t + 2 * m - 1
        yield f"ac02/m{m}t{t}/{name}/{seed}", scenario(
            n, t, m, P31, seed, 4, MUL, tuple((n - i, name) for i in range(t)),
            _matrices(seed, 2, 4, P31))
    for name, seed in itertools.product(
            ("WrongSubshareConstant", "BadGapCoefficient"), range(50)):
        yield f"ac09/{name}/{seed}", scenario(
            6, 1, 2, P31, seed, 2, MUL, ((6, name),),
            _matrices(seed, 2, 2, P31))
    for (m, t), name, seed in itertools.product(
            PAIRS, STRATEGY_NAMES, (0, 1)):
        yield f"beyond/m{m}t{t}/{name}/{seed}", scenario(
            3 * t + 2 * m - 2, t, m, 97, seed, 2 * m, MUL, ((2, name),),
            _matrices(seed, 2, 2 * m, 97), sub_threshold=True)
    for name, p, (m, t), seed in itertools.product(
            STRATEGY_NAMES, (11, 13, 97), ((1, 1), (2, 1), (2, 2), (3, 1)),
            range(3)):
        yield f"grid/{name}/p{p}/m{m}t{t}/{seed}", scenario(
            3 * t + 2 * m - 1, t, m, p, seed, 2 * m,
            workloads.BYZANTINE_PROGRAM, ((2, name),),
            _matrices(seed, 2, 2 * m, p))


def _digest(lines):
    return hashlib.sha256(b"\n".join(lines)).hexdigest() if lines else None


def record(run, s):
    """One run's JSON-ready fields."""
    from compc.errors import CompcError
    from compc.net import run_scenario
    out = dict.fromkeys(("sha256", "bytes", "eliminations", "events",
                         "output", "error", "rounds", "envelopes",
                         "field_elements"))
    out["run"] = run
    try:
        tr = run_scenario(s)
    except CompcError as e:
        out["error"] = f"{type(e).__name__}: {e}"
        return out
    data = tr.serialize().encode()
    lines = data.split(b"\n")
    out.update(
        sha256=hashlib.sha256(data).hexdigest(), bytes=len(data),
        eliminations=[[int(ev[2]), ev[3]] for ev in tr.events
                      if ev[0] == "eliminate"],
        events=_digest([x for x in lines if x.startswith(b"V|")]),
        output=_digest([x for x in lines if x.startswith(b"M|")]),
        **traffic.totals([tr]))
    return out


def write(tree, path):
    import_tree(tree)
    with open(path, "w") as f:
        for run, s in run_set():
            f.write(json.dumps(record(run, s), sort_keys=True) + "\n")


def diff(path_a, path_b):
    """Lines naming every run whose fields differ; empty when equal."""
    a, b = ({r["run"]: r for r in map(json.loads,
                                      Path(path).read_text().splitlines())}
            for path in (path_a, path_b))
    out = []
    for run in list(a) + [r for r in b if r not in a]:
        if run not in a or run not in b:
            out.append(f"{run}: only in {path_a if run in a else path_b}")
            continue
        fields = sorted(k for k in a[run].keys() | b[run].keys()
                        if a[run].get(k) != b[run].get(k))
        if fields:
            out.append(f"{run}: {' '.join(fields)}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", help="checkout whose src/compc runs the set")
    ap.add_argument("--out", help="JSON-lines file to write")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.diff:
        lines = diff(*args.diff)
        print("\n".join(lines + [f"{len(lines)} runs differ"]))
        return 1 if lines else 0
    if not (args.tree and args.out):
        ap.error("need --tree and --out, or --diff A B")
    write(args.tree, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
