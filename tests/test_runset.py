"""Smoke test of the run-set comparator, tools/runset.py."""

import importlib.util
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runset(monkeypatch):
    # runset puts mulperf/ on sys.path; monkeypatch restores it after
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "runset", ROOT / "tools" / "runset.py")
    runset = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runset)
    return runset


def test_three_runs_equal_themselves_and_a_changed_field_is_named(
        tmp_path, monkeypatch, capsys):
    runset = load_runset(monkeypatch)
    rows = [runset.record(run, s)
            for run, s in itertools.islice(runset.run_set(), 3)]
    assert [r["run"] for r in rows] == [
        "mulperf/gapcheck-wide/0", "mulperf/wide-blocks/0",
        "mulperf/byzantine/0"]
    assert all(r["error"] is None and r["rounds"] > 0 for r in rows)
    out = tmp_path / "runs.jsonl"
    out.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                           for r in rows))

    def totals(path, rs):
        return f"totals {path}: " + " ".join(
            f"{k} {sum(r[k] for r in rs)}"
            for k in ("field_elements", "envelopes", "rounds", "bytes"))

    assert runset.main(["--diff", str(out), str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 runs differ", totals(out, rows), totals(out, rows)]
    before = totals(out, rows)

    rows[1]["rounds"] += 1
    changed = tmp_path / "changed.jsonl"
    changed.write_text("".join(json.dumps(r) + "\n" for r in rows[:2]))
    assert runset.main(["--diff", str(out), str(changed)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "mulperf/wide-blocks/0: rounds",
        f"mulperf/byzantine/0: only in {out}", "2 runs differ",
        before, totals(changed, rows[:2])]

    # a run that raised has no counts and adds nothing to the totals
    failed = dict.fromkeys(rows[0], None) | {"run": "x", "error": "E: e"}
    changed.write_text("".join(json.dumps(r) + "\n"
                               for r in rows[:2] + [failed]))
    assert runset.totals(changed) == totals(changed, rows[:2])
