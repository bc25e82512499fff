"""Span tracer that wraps the package's layer functions from outside.

`Tracer.installed()` replaces every layer function and method of
`semibandit_conformal` with a wrapper that records one span per call:
name, start, end and the span that was open when the call began.  A
function is replaced under every name it is imported as (for example
`sup_quantile` in `cdf_band`, `policies` and `environments`), so no call
escapes the trace.  Spans go into compact arrays in memory; `layer_metrics`
turns them into per-layer counts and self times, and `write` saves them.
The originals are put back when the context exits.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

PACKAGE = "semibandit_conformal"

# span name -> (module, function); patched in every package module that
# holds the same function object
FUNCTIONS = {
    "cdf_band.sup_quantile": ("cdf_band", "sup_quantile"),
    "environments.apply_feedback": ("environments", "apply_feedback"),
    "environments.set_size": ("environments", "set_size"),
    "metrics.loss_phi": ("metrics", "loss_phi"),
    "harness.load_config": ("harness", "load_config"),
    "harness.run_batch": ("harness", "run_batch"),
    "harness.run_single": ("harness", "run_single"),
    "harness.emit_csv": ("harness", "emit_csv"),
}

# span name -> (module, method names); patched on every class of that
# module that defines the method itself
METHODS = {
    "cdf_band.insert": ("cdf_band", ("insert",)),
    "cdf_band.conformal_cutoff": ("cdf_band", ("conformal_cutoff",)),
    "policies.propose": ("policies", ("propose",)),
    "policies.update": ("policies", ("update",)),
    "environments.next_round": ("environments", ("next_round",)),
    "environments.build": ("environments", ("build",)),
    "environments.oracle": ("environments", ("oracle_cdf", "oracle_tau_star")),
}

NO_PARENT = -1


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _module(short: str):
    return sys.modules[f"{PACKAGE}.{short}"]


def _targets():
    """(owner, attribute, original, span name) for every name to patch."""
    targets = []
    for span, (short, attr) in FUNCTIONS.items():
        fn = getattr(_module(short), attr)
        owners = [mod for mod in package_modules() if vars(mod).get(attr) is fn]
        targets.extend((mod, attr, fn, span) for mod in owners)
    for span, (short, attrs) in METHODS.items():
        mod = _module(short)
        classes = [obj for obj in vars(mod).values()
                   if isinstance(obj, type) and obj.__module__ == mod.__name__]
        for cls in classes:
            targets.extend((cls, attr, vars(cls)[attr], span)
                           for attr in attrs if attr in vars(cls))
    return targets


class Tracer:
    """In-memory span recorder plus the layer counters the spans can't give."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [NO_PARENT]
        # t-decile (10 * count // horizon) of each insert call, in call order
        self.insert_decile = array("b")
        self.sps_updates = 0
        self.sps_raised = 0
        self.cutoff_neg_inf = 0

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records one span named `name`."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(open_spans[-1])
            start.append(0.0)
            end.append(0.0)
            open_spans.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                open_spans.pop()

        return traced

    def _wrap(self, name: str, fn):
        """A span wrapper, plus the counter some layers keep beside it."""
        inner = self.span(name, fn)
        if name == "cdf_band.insert":
            def insert(ecdf, value):
                self.insert_decile.append(10 * ecdf.count // ecdf.horizon)
                return inner(ecdf, value)
            return insert
        if name == "cdf_band.conformal_cutoff":
            def conformal_cutoff(*args, **kwargs):
                cutoff = inner(*args, **kwargs)
                self.cutoff_neg_inf += cutoff == float("-inf")
                return cutoff
            return conformal_cutoff
        if name == "policies.update":
            sps_policy = _module("policies").SpsPolicy

            def update(policy, feedback):
                before = policy.tau
                inner(policy, feedback)
                if type(policy) is sps_policy:
                    self.sps_updates += 1
                    self.sps_raised += policy.tau > before
            return update
        return inner

    @contextmanager
    def installed(self):
        """Patch every layer name for the duration of the block."""
        patched = []
        try:
            for owner, attr, original, span in _targets():
                setattr(owner, attr, self._wrap(span, original))
                patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times (seconds) from the recorded spans.

        A span's self time is its duration minus the durations of its
        direct children, which run one after another inside it.
        """
        import numpy as np

        n_names = len(self.names)
        name = np.frombuffer(self.span_name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent != NO_PARENT
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        out = {}
        for i, span in enumerate(self.names):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_s"] = float(self_s[i])
        if "cdf_band.insert" in self.names:
            insert_us = dur[name == self.names.index("cdf_band.insert")] * 1e6
            decile = np.frombuffer(self.insert_decile, dtype=np.int8)
            out["cdf_band.insert.us_first_decile"] = float(np.median(insert_us[decile == 0]))
            out["cdf_band.insert.us_last_decile"] = float(np.median(insert_us[decile == 9]))
        return out

    def write(self, path) -> None:
        """Save the spans as arrays: name ids, names, parent, start, end."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
