"""Per-layer timing of compc, wrapped from outside the package.

Every public module-level function of the listed compc modules, and
the three network methods below, is replaced by a timing wrapper in
every compc module that bound it, so calls through `from .x import f`
are seen too. Each wrapped function records its calls, its inclusive
seconds, and the seconds spent in wrapped callees; self time is the
difference. A few functions also feed counters (hooks below).
"""

import importlib
import inspect
import sys
import time

import numpy as np

from traffic import EVSS_ROUNDS, FAMILIES, deal_sent

MODULES = ("gf", "poly", "rscode", "sharing", "evss", "subroutines", "mpc",
           "net")
METHODS = (("net", "Network", "exchange"),
           ("net", "AdversaryController", "filter"),
           ("net", "Transcript", "serialize"))


class Tracer:
    def __init__(self):
        self.stats = {}         # name -> [calls, inclusive s, callee s]
        self.counters = {}      # "<module>.<function>.<counter>" -> n
        self.batches = []       # one record per run_evss_batch call
        self._stack = []
        self._undo = []

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        before, after = _HOOKS.get(name, (None, None))
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(self, args, kwargs) if before else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                callee = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += callee
                if stack:
                    stack[-1] += dt
            if after:
                after(self, token, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        mods = [importlib.import_module(f"compc.{m}") for m in MODULES]
        bound = [mod for name, mod in sorted(sys.modules.items())
                 if name == "compc" or name.startswith("compc.")]
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for other in bound:
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, name, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"compc.{short}"), cls_name)
            self._set(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}",
                                            vars(cls)[meth]))

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _mat_mul_after(tracer, token, args, kwargs, result):
    a, b = np.shape(args[0]), np.shape(args[1])
    tracer.count("gf.mat_mul.macs", a[0] * a[1] * b[-1])


def _corrections(name):
    def after(tracer, token, args, kwargs, result):
        tracer.count(name, len(result[1]))
    return after


def _batch_before(tracer, args, kwargs):
    network = args[0] if args else kwargs["network"]
    return network, len(network.transcript.envelopes)


def _batch_after(tracer, token, args, kwargs, result):
    network, start = token
    names = ("network", "adv", "scenario", "prefix", "instances")
    bound = dict(zip(names, args), **kwargs)
    dealers = {}
    for b in bound["instances"]:
        k = dealers.get(b.dealer, (0,))[0]
        dealers[b.dealer] = (k + 1, b.deal.d1) + tuple(b.deal.shape)
    tracer.count("evss.run_evss_batch.instances", len(bound["instances"]))
    tracer.count("evss.run_evss_batch.rejected",
                 sum(1 for o in result.values() if not o.accepted))
    tracer.batches.append({
        "transcript": network.transcript, "start": start,
        "end": len(network.transcript.envelopes),
        "prefix": bound["prefix"], "workers": bound["scenario"].workers,
        "dealers": dealers})


_HOOKS = {
    "gf.mat_mul": (None, _mat_mul_after),
    "rscode.decode": (None, _corrections("rscode.decode.corrections")),
    "sharing.robust_reconstruct":
        (None, _corrections("sharing.robust_reconstruct.corrections")),
    "evss.run_evss_batch": (_batch_before, _batch_after),
}


def _fn(name, *stats):
    return tuple(f"{name}.{stat}" for stat in stats)


# the per-layer metrics a traced run reports, per pass; protocol_s and
# transcript_s are medians over the run's untraced passes
PER_LAYER = (
    ("protocol_s", "transcript_s")
    + _fn("gf.rref", "calls", "self_s")
    + _fn("gf.solve_particular", "calls", "s")
    + _fn("gf.mat_mul", "calls", "self_s", "macs")
    + _fn("poly.vandermonde", "calls", "s")
    + _fn("poly.interpolate", "calls", "s")
    + _fn("poly.lagrange_coeffs", "calls", "s")
    + _fn("poly.coeff_extraction_combo", "calls", "s")
    + _fn("rscode.build_code", "calls", "s")
    + _fn("rscode.decode", "calls", "s", "corrections")
    + _fn("rscode.syndrome_decode", "calls", "s")
    + _fn("sharing.make_share_poly", "calls", "s")
    + _fn("sharing.robust_reconstruct", "s", "corrections")
    + _fn("evss.run_evss_batch", "calls", "instances", "contested",
          "rejected", "s", "self_s")
    + _fn("evss.evss_deal", "calls", "s")
    + _fn("evss.complaints_for", "calls", "s")
    + _fn("evss.reveals_for", "calls", "s")
    + _fn("evss.vote_for", "calls", "s")
    + _fn("subroutines.subshare_of_shares", "calls", "s", "self_s")
    + _fn("subroutines.verify_gap_form", "calls", "s", "self_s")
    + _fn("subroutines.shares_times_matrix", "calls", "s", "self_s")
    + _fn("subroutines.eval_shared_poly", "calls", "s", "self_s")
    + _fn("mpc.multiply_malicious", "s", "self_s")
    + _fn("mpc.build_masks", "s")
    + _fn("mpc.direct_to_reverse", "s")
    + _fn("mpc.transpose_shares", "s")
    + ("mpc.eliminations",)
    + _fn("net.Network.exchange", "calls", "s")
    + _fn("net.AdversaryController.filter", "s")
    + _fn("net.Transcript.serialize", "s")
    + _fn("net.fe", *FAMILIES, *EVSS_ROUNDS)
    + _fn("net.envelopes", *FAMILIES, *EVSS_ROUNDS)
    + ("trace.overhead_pct",)
)


def unit_of(name):
    stat = name.rpartition(".")[2]
    if stat in ("s", "self_s", "protocol_s", "transcript_s"):
        return "s"
    return "%" if stat == "overhead_pct" else "count"


def layer_values(tracer, passes, extra):
    """Per-pass value of every PER_LAYER metric. Timing stats come from
    the wrappers; counters from hooks or `extra`, zero when unseen."""
    out = {}
    for name in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if fn and stat in ("calls", "s", "self_s"):
            if fn not in tracer.stats:
                raise KeyError(f"{fn} is not a wrapped function")
            calls, incl, callee = tracer.stats[fn]
            value = {"calls": calls, "s": incl,
                     "self_s": incl - callee}[stat] / passes
        elif name in extra:
            value = extra[name]
        else:
            value = tracer.counters.get(name, 0) / passes
        out[name] = value
    return out


def batch_summary(batches):
    """(contested instances, deal-check records) of run_evss_batch
    calls, read from the transcript slice each call produced."""
    contested = 0
    records = []
    for b in batches:
        env = b["transcript"].envelopes[b["start"]:b["end"]]
        vote = f"{b['prefix']}:vote"
        contested += max((len(e.payload[1]) for e in env
                          if e.phase == vote and isinstance(e.payload, tuple)
                          and len(e.payload) == 2
                          and isinstance(e.payload[1], tuple)), default=0)
        deal = f"{b['prefix']}:deal"
        records.append({"phase": deal, "workers": b["workers"],
                        "dealers": b["dealers"],
                        "sent": deal_sent(env, deal)})
    return contested, records
