"""Benchmark of compc's verified multiply; one workload per process.

    python3 mulperf/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass runs each of the workload's scenarios once through
compc.net.run_scenario, then serialises and SHA-256 hashes every
transcript. The first pass is untimed set-up; timed passes follow
until S seconds have gone by, and a pass is never cut short. Every
pass is checked (see checks.py): outputs against the Python-integer
oracle, eliminations, reason codes, and digests and traffic counts
equal to the first pass's.

With --trace 0 the last stdout line holds the end-to-end metrics.
With --trace 1 untraced passes alternate with passes in which every
public compc function is wrapped (tracer.py); the last line holds the
per-layer metrics, per traced pass, the tracing overhead against the
neighbouring untraced passes, and the median protocol_s and
transcript_s of the untraced passes. A failed check exits 1; a checkout
without src/compc exits 2. Details go to mulperf/out/.
"""

import argparse
import collections
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import traffic
import workloads
from compc_src import MissingCompc, import_compc
from tracer import (PER_LAYER, Tracer, batch_summary, layer_values,
                    unit_of)

_T0 = time.perf_counter()

OUT = Path(__file__).resolve().parent / "out"

# protocol_s and transcript_s are per-layer metrics: on the 2-core VM
# they spread across runs by more than the largest bound allowed (see
# README). setup_s times one whole pass, so its median still moves with
# them.
END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("field_elements", "count"),
    ("envelopes", "count"), ("rounds", "count"), ("transcript_mb", "MB"))


def process_age():
    """Seconds since the kernel started this process; the time since
    this module was loaded when the kernel's start time is unreadable."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start
        if 0 <= age < 3600:
            return age
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - _T0


def run_pass(workload, scenarios, expected, label, tracer=None):
    """One pass: run, time, serialise, hash, check. Returns a dict.

    Each scenario is serialised right after it runs, and only one
    transcript is alive at a time, so protocol_s and transcript_s both
    sample the whole pass rather than one half of it each.
    """
    import compc.errors
    import compc.net

    protocol_s = transcript_s = 0.0
    digests, codes, deals = [], set(), []
    counts = collections.Counter()
    for ix, scenario in enumerate(scenarios):
        t0 = time.perf_counter()
        try:
            tr = compc.net.run_scenario(scenario)
        except compc.errors.CompcError as exc:
            protocol_s += time.perf_counter() - t0
            digests.append(f"abort:{type(exc).__name__}")
            counts["failed"] += 1
            continue
        t1 = time.perf_counter()
        text = tr.serialize().encode()
        digests.append(hashlib.sha256(text).hexdigest())
        t2 = time.perf_counter()
        protocol_s += t1 - t0
        transcript_s += t2 - t1
        counts["transcript_mb"] += len(text) / 1e6
        del text

        where = f"{label} scenario {ix}"
        got = None if tr.master_output is None else tr.master_output.a.tolist()
        checks.check_output(where, got, expected)
        elim = checks.eliminations(tr)
        checks.check_eliminations(where, elim, workload.declared(ix))
        codes |= set(elim.values())
        counts["eliminations"] += len(elim)
        counts.update(traffic.totals([tr]))
        if tracer is not None:
            contested, records = batch_summary(tracer.batches)
            tracer.batches.clear()
            deals += records
            counts["evss.run_evss_batch.contested"] += contested
            counts.update(traffic.by_family([tr]))
        del tr
    if any(workload.adversaries):
        checks.check_all_codes(label, codes)
    if tracer is not None and not any(workload.adversaries):
        checks.check_deals(label, deals)
    failed = counts.pop("failed", 0)
    return {"protocol_s": protocol_s, "transcript_s": transcript_s,
            "digests": digests, "failed": failed, "counts": dict(counts),
            "deals": deals}


def bench(workload_name, seed, seconds, trace):
    """Returns (result object for the last stdout line, details)."""
    wl = workloads.WORKLOADS[workload_name]
    a, b = workloads.make_inputs(wl, seed)
    expected = workloads.oracle(wl, a, b)
    scenarios = workloads.scenarios(wl, a, b)
    first = run_pass(wl, scenarios, expected, "pass 0")
    setup_s = process_age()

    def repeat(p, label):
        checks.check_same(label, "transcript digests", first["digests"],
                          p["digests"])
        for key, value in first["counts"].items():
            checks.check_same(label, key, value, p["counts"][key])
        return p

    timed = []
    start = time.perf_counter()
    if trace:
        # untraced and traced passes alternate, so that the overhead is
        # a median of ratios between neighbouring passes
        tracer = Tracer()
        traced, ratios = [], []
        while not traced or time.perf_counter() - start < seconds:
            label = f"pass {len(timed) + 1}"
            base = repeat(run_pass(wl, scenarios, expected, label), label)
            label = f"pass {len(timed) + 2}"
            tracer.install()
            try:
                p = run_pass(wl, scenarios, expected, label, tracer)
            finally:
                tracer.uninstall()
            if traced:
                for key, value in traced[0]["counts"].items():
                    checks.check_same(label, key, value, p["counts"][key])
            timed += [base, repeat(p, label)]
            traced.append(p)
            ratios.append(p["protocol_s"] / base["protocol_s"])
        extra = {k: v for k, v in p["counts"].items()
                 if k.startswith(("net.", "evss."))}
        extra["mpc.eliminations"] = p["counts"]["eliminations"]
        extra["trace.overhead_pct"] = 100 * (statistics.median(ratios) - 1)
        for key in ("protocol_s", "transcript_s"):
            extra[key] = statistics.median(p[key] for p in timed[::2])
        values = layer_values(tracer, len(traced), extra)
        metrics = {n: {"value": values[n], "unit": unit_of(n)}
                   for n in PER_LAYER}
        details = {"overhead_ratios": ratios,
                   "deal_batches_checked": len(p["deals"]),
                   "functions": {name: {"calls": s[0], "s": s[1],
                                        "self_s": s[1] - s[2]}
                                 for name, s in sorted(tracer.stats.items())
                                 if s[0]}}
    else:
        while not timed or time.perf_counter() - start < seconds:
            label = f"pass {len(timed) + 1}"
            timed.append(repeat(run_pass(wl, scenarios, expected, label),
                                label))
        counts = timed[-1]["counts"]
        values = {
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "field_elements": counts["field_elements"],
            "envelopes": counts["envelopes"],
            "rounds": counts["rounds"],
            "transcript_mb": counts["transcript_mb"]}
        metrics = {n: {"value": values[n], "unit": unit}
                   for n, unit in END_TO_END}
        details = {key: statistics.median(p[key] for p in timed)
                   for key in ("protocol_s", "transcript_s")}
    attempted = len(timed) * len(scenarios)
    failed = sum(p["failed"] for p in timed)
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details.update(
        workload=workload_name, seed=seed, seconds=seconds, trace=trace,
        setup_s=setup_s, digests=first["digests"], counts=first["counts"],
        passes=[{"protocol_s": p["protocol_s"],
                 "transcript_s": p["transcript_s"]} for p in timed])
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_compc()
    except MissingCompc as exc:
        print(f"mulperf: cannot run without the checkout's compc: {exc}",
              file=sys.stderr)
        return 2
    try:
        result, details = bench(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    except checks.CheckFailed as exc:
        print(f"mulperf: check failed: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    for p in details["passes"]:
        print(f"pass protocol_s={p['protocol_s']:.4f} "
              f"transcript_s={p['transcript_s']:.4f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
