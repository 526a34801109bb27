"""Self-test of the benchmark's own checks: each must fire on its fault.

    python3 mulperf/selftest.py

Runs two small real scenarios through the same pass code as run.py
(so every check first passes on genuine data), then plants one fault
per check and requires that check to raise CheckFailed: an output
entry off by one, an honest worker eliminated, a changed digest, a
missing reason code and a deal count off by one element. It also
requires BENCHMARK.json to name exactly the workloads and metrics the
benchmark produces. Exits 0 when all hold, 1 otherwise.
"""

import copy
import json
import sys

import checks
import run
import traffic
import workloads
from compc_src import ROOT, MissingCompc, import_compc
from tracer import PER_LAYER, Tracer, unit_of


def expect_fires(what, check, *args):
    try:
        check(*args)
    except checks.CheckFailed as exc:
        print(f"ok: {what} -> {exc}")
        return
    raise SystemExit(f"FAIL: {what} went unnoticed")


def main():
    try:
        import_compc()
    except MissingCompc as exc:
        print(f"mulperf selftest: {exc}", file=sys.stderr)
        return 2
    import compc.net

    honest = workloads.Workload("tiny-honest", m=2, t=1, n=6, z=4,
                                program=workloads.HONEST_PROGRAM,
                                adversaries=((),), transposed=False)
    hostile = workloads.Workload(
        "tiny-hostile", m=1, t=1, n=4, z=2,
        program=workloads.HONEST_PROGRAM,
        adversaries=(((2, "CorruptProductPoly"),),), transposed=False)

    a, b = workloads.make_inputs(honest, 7)
    expected = workloads.oracle(honest, a, b)
    scenarios = workloads.scenarios(honest, a, b)
    tracer = Tracer()
    tracer.install()
    try:
        first = run.run_pass(honest, scenarios, expected, "honest", tracer)
    finally:
        tracer.uninstall()
    again = run.run_pass(honest, scenarios, expected, "honest")
    checks.check_same("honest", "digests", first["digests"], again["digests"])
    deals = first["deals"]
    if first["counts"]["evss.run_evss_batch.contested"] or not deals:
        raise SystemExit("FAIL: honest run had contested or no EVSS batches")
    transcript = compc.net.run_scenario(scenarios[0])
    for e in transcript.envelopes:
        if traffic.phase_keys(e.phase)[0] is None:
            raise SystemExit(f"FAIL: phase {e.phase} has no family")

    ha, hb = workloads.make_inputs(hostile, 7)
    hexp = workloads.oracle(hostile, ha, hb)
    hscen = workloads.scenarios(hostile, ha, hb)
    htr = compc.net.run_scenario(hscen[0])
    helim = checks.eliminations(htr)
    checks.check_output("hostile", htr.master_output.a.tolist(), hexp)
    checks.check_eliminations("hostile", helim, hostile.declared(0))
    if helim != {2: "BadProductRelation"}:
        raise SystemExit(f"FAIL: unexpected eliminations {helim}")

    got = transcript.master_output.a.tolist()
    checks.check_output("honest", got, expected)
    off = copy.deepcopy(got)
    off[1][0] = (off[1][0] + 1) % workloads.P
    expect_fires("output entry off by one", checks.check_output,
                 "planted", off, expected)

    expect_fires("honest worker eliminated", checks.check_eliminations,
                 "planted", {**helim, 1: "BadSubshareValue"},
                 hostile.declared(0))

    changed = list(first["digests"])
    changed[0] = changed[0][:-1] + ("0" if changed[0][-1] != "0" else "1")
    expect_fires("changed digest", checks.check_same, "planted", "digests",
                 first["digests"], changed)

    codes = set(workloads.REASON_CODES)
    checks.check_all_codes("all codes", codes)
    expect_fires("missing reason code", checks.check_all_codes, "planted",
                 codes - {"BadGapForm"})

    short = copy.deepcopy(deals)
    dealer = sorted(short[0]["sent"])[0]
    recipient = sorted(short[0]["sent"][dealer])[0]
    short[0]["sent"][dealer][recipient] -= 1
    expect_fires("deal count off by one element", checks.check_deals,
                 "planted", short)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = ([w["name"] for w in spec["workloads"]],
              [(m["name"], m["unit"]) for m in spec["end_to_end"]],
              [(m["name"], m["unit"]) for m in spec["per_layer"]])
    produced = (list(workloads.WORKLOADS), list(run.END_TO_END),
                [(n, unit_of(n)) for n in PER_LAYER])
    for key, want, have in zip(("workloads", "end_to_end", "per_layer"),
                               listed, produced):
        if want != have:
            raise SystemExit(f"FAIL: BENCHMARK.json {key} differ from what "
                             f"the benchmark produces")
    print("ok: BENCHMARK.json matches the benchmark")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
