"""The benchmark in mulperf/ drives this package from outside.

It wraps compc functions by name and checks its own checks against
real runs; these tests fail here, at tier 1, when a change to compc
would make every benchmark run crash.
"""

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MULPERF = ROOT / "mulperf"


def test_mulperf_selftest_passes():
    proc = subprocess.run([sys.executable, str(MULPERF / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_functions_exist():
    # a per-layer metric "<module>.<function>.<stat>" (or
    # "<module>.<Class>.<method>.<stat>") needs that function in compc
    sys.path.insert(0, str(MULPERF))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(MULPERF))
    named = set()
    for name in tracer.PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if fn and stat in ("calls", "s", "self_s"):
            named.add(fn)
    assert named
    missing = []
    for fn in sorted(named):
        short, _, path = fn.partition(".")
        mod = importlib.import_module(f"compc.{short}")
        obj = mod
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if "." in path:
            ok = callable(obj)
        else:   # the tracer wraps only functions the module defines
            ok = inspect.isfunction(obj) and obj.__module__ == mod.__name__
        if not ok:
            missing.append(fn)
    assert missing == []
