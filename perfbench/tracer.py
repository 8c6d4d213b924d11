"""Per-layer timing of ``weaktri`` from outside the library.

The tracer replaces each traced public function at every module binding that
holds it (modules import with ``from .linalg import char_poly``, so
``weaktri.triang.char_poly`` and ``weaktri.survey.char_poly`` are separate
bindings of one function) and restores the originals when it is removed.

Spans are kept only for coarse entry calls, one per benchmark op.  Inside an
op span, each traced function keeps just its call count, total time and self
time, so a campaign with a million ``char_poly`` calls stays small.  Self
time is a call's duration minus the time covered by traced calls it made;
total time counts only the outermost call when a function re-enters itself.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# (layer, function) pairs; the metric key is "<layer>.<function name>"
TRACED = (
    ("survey", "run_campaign"),
    ("triang", "space_weakly_triangularizable"),
    ("triang", "is_triangularizable"),
    ("linalg", "char_poly"),
    ("linalg", "rref"),
    ("linalg", "invert"),
    ("linalg", "kernel_basis"),
    ("linalg", "rref_solve"),
    ("gf", "splits_over"),
    ("spaces", "MatSpace.from_span"),
    ("adapted", "find_adapted_vector"),
    ("adapted", "range_constrained"),
    ("flags", "recover_flag"),
    ("flags", "extract_structure_maps"),
    ("flags", "flag_space"),
    ("pencils", "verify_pencil_division"),
    ("pencils", "char2_odd_counterexample"),
    ("pencils", "pencil_splits_all"),
)


def metric_key(layer, qualname):
    return f"{layer}.{qualname.rpartition('.')[2]}"


# Calls made through one module's binding are also summed under a second key:
# survey's goodness-table and span-check char polys, and its hit verification.
BINDING_KEYS = {
    ("survey", "char_poly"): "survey.char_poly",
    ("survey", "space_weakly_triangularizable"): "survey.verify",
    ("survey", "recover_flag"): "survey.verify",
    ("survey", "extract_structure_maps"): "survey.verify",
}

TIMED = ("calls", "s", "self_s")

# (metric name, unit, better); every traced run reports all of them, as
# per-pass averages over its traced passes.
LAYER_METRICS = (
    [
        ("survey.run_campaign.calls", "count", "lower"),
        ("survey.run_campaign.s", "s", "lower"),
        ("survey.self_s", "s", "lower"),
        ("survey.char_poly.calls", "count", "lower"),
        ("survey.char_poly.s", "s", "lower"),
        ("survey.verify.calls", "count", "lower"),
        ("survey.verify.s", "s", "lower"),
        ("survey.candidates", "count", "higher"),
        ("survey.hits", "count", "higher"),
        ("triang.elements_checked", "count", "lower"),
    ]
    + [
        (f"{key}.{part}", "count" if part == "calls" else "s", "lower")
        for key in (
            "triang.space_weakly_triangularizable",
            "triang.is_triangularizable",
            "linalg.char_poly",
            "linalg.rref",
            "linalg.invert",
            "linalg.kernel_basis",
            "linalg.rref_solve",
            "gf.splits_over",
            "spaces.from_span",
            "adapted.find_adapted_vector",
            "adapted.range_constrained",
            "flags.recover_flag",
            "flags.extract_structure_maps",
            "flags.flag_space",
            "pencils.pencil_splits_all",
        )
        for part in TIMED
    ]
    + [
        ("linalg.char_poly.us_per_call", "us", "lower"),
        ("gf.splits_over.us_per_call", "us", "lower"),
        ("gf.splits_over.distinct_share", "ratio", "lower"),
        ("pencils.pairs", "count", "higher"),
        ("pencils.hypothesis_hits", "count", "higher"),
        ("pencils.self_s", "s", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
)


def _observe_campaign(tracer, args, report):
    counts = tracer.counts
    counts["survey.candidates"] += report.total
    counts["survey.hits"] += report.hit_count


def _observe_sweep(tracer, args, verdict):
    tracer.counts["triang.elements_checked"] += verdict.checked


def _observe_split(tracer, args, verdict):
    poly = args[0]
    tracer.split_inputs.add((poly.field, poly.coeffs))


def _observe_pencils(tracer, args, report):
    tracer.counts["pencils.pairs"] += report.pairs_checked
    tracer.counts["pencils.hypothesis_hits"] += report.hypothesis_hits


OBSERVERS = {
    "survey.run_campaign": _observe_campaign,
    "triang.space_weakly_triangularizable": _observe_sweep,
    "gf.splits_over": _observe_split,
    "pencils.verify_pencil_division": _observe_pencils,
}


class Tracer:
    """Wrappers, op spans and their per-function aggregates."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._depth = Counter()
        self._patches = []
        self.funcs = {}
        self.counts = Counter()
        self.split_inputs = set()
        self._pass_id = None

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, fn, keys):
        stack, depth, perf = self._stack, self._depth, time.perf_counter
        primary = keys[0]
        observe = OBSERVERS.get(primary)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            level = depth[primary]
            depth[primary] = level + 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - start
                depth[primary] = level
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                funcs = self.funcs
                for key in keys:
                    rec = funcs.get(key)
                    if rec is None:
                        rec = funcs[key] = [0, 0.0, 0.0]
                    rec[0] += 1
                    if not level:
                        rec[1] += dur
                    rec[2] += dur - frame[0]
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding of the traced functions for the duration."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "weaktri" or name.startswith("weaktri.")
        }
        try:
            for layer, qualname in TRACED:
                home = modules[f"weaktri.{layer}"]
                key = metric_key(layer, qualname)
                if "." in qualname:  # a classmethod: one binding, on the class
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, classmethod(self._wrap(original.__func__, (key,))))
                    continue
                fn = getattr(home, qualname)
                for mod_name, mod in modules.items():
                    short = mod_name.rpartition(".")[2]
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            extra = BINDING_KEYS.get((short, name))
                            keys = (key, extra) if extra else (key,)
                            self._patch(mod, name, self._wrap(fn, keys))
            yield self
        finally:
            while self._patches:
                owner, name, original = self._patches.pop()
                setattr(owner, name, original)

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    # -- spans ---------------------------------------------------------------------

    @contextmanager
    def traced_pass(self):
        """A pass span; op spans opened inside it are its children."""
        self.split_inputs = set()
        with self.span("pass") as pass_id:
            self._pass_id = pass_id
            try:
                yield pass_id
            finally:
                self._pass_id = None
        self.spans[pass_id]["counts"]["gf.splits_over.distinct"] = len(self.split_inputs)

    @contextmanager
    def span(self, name):
        """Record one span; an op span also keeps the traced calls made in it."""
        record = {"id": len(self.spans), "parent": self._pass_id, "name": name}
        self.spans.append(record)
        outer_funcs, outer_counts = self.funcs, self.counts
        self.funcs, self.counts = {}, Counter()
        record["start"] = time.perf_counter()
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter()
            record["funcs"], record["counts"] = self.funcs, dict(self.counts)
            self.funcs, self.counts = outer_funcs, outer_counts

    # -- metrics -------------------------------------------------------------------

    def layer_metrics(self, overhead_share):
        """Every LAYER_METRICS value, averaged over the traced passes."""
        passes = sum(1 for s in self.spans if s["name"] == "pass") or 1
        funcs = {}
        counts = Counter()
        for span in self.spans:
            for key, rec in span["funcs"].items():
                acc = funcs.setdefault(key, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += rec[i]
            counts.update(span["counts"])

        def timed(key):
            calls, total, self_s = funcs.get(key, (0, 0.0, 0.0))
            return {"calls": calls / passes, "s": total / passes, "self_s": self_s / passes}

        def per_call_us(key):
            calls, total, _ = funcs.get(key, (0, 0.0, 0.0))
            return total / calls * 1e6 if calls else 0.0

        keys = [metric_key(*traced) for traced in TRACED] + list(BINDING_KEYS.values())
        values = {
            f"{key}.{part}": value
            for key in keys
            for part, value in timed(key).items()
        }
        split_calls = funcs.get("gf.splits_over", (0,))[0]
        values.update(
            {
                "survey.self_s": timed("survey.run_campaign")["self_s"],
                "survey.candidates": counts["survey.candidates"] / passes,
                "survey.hits": counts["survey.hits"] / passes,
                "triang.elements_checked": counts["triang.elements_checked"] / passes,
                "linalg.char_poly.us_per_call": per_call_us("linalg.char_poly"),
                "gf.splits_over.us_per_call": per_call_us("gf.splits_over"),
                "gf.splits_over.distinct_share": (
                    counts["gf.splits_over.distinct"] / split_calls if split_calls else 0.0
                ),
                "pencils.pairs": counts["pencils.pairs"] / passes,
                "pencils.hypothesis_hits": counts["pencils.hypothesis_hits"] / passes,
                "pencils.self_s": sum(
                    timed(f"pencils.{name}")["self_s"]
                    for name in ("verify_pencil_division", "char2_odd_counterexample", "pencil_splits_all")
                ),
                "trace.overhead_share": overhead_share,
            }
        )
        return {
            name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS
        }
