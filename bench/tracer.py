"""Span and counter wrappers installed on kbd from outside, for traced runs.

``Tracer.install`` replaces the public functions of every kbd module, in
the defining module and in every module that imported them, and the phase
methods of the completion drivers, with wrappers.  A wrapper keeps a stack
of open frames so that each frame's self time is its duration minus that
of the frames it encloses.

Two kinds of wrapper keep the overhead bounded:

* span functions record a span (name, start, end, parent span, case id);
* kernel functions, called per term or per comparison, are counted and
  timed into their totals but leave no span record.  A call that recurses
  directly into the same function is only counted.

``Var``/``Fun`` ``__hash__`` and ``__eq__`` are counted only, without
timing: their time falls to whichever frame is open when they run.
Generator functions are not wrapped; their work falls to the consumer.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("terms", "orders", "rewriting", "critical_pairs", "completion",
          "ordered", "canonicity", "parsing", "cli")

KERNEL = {
    "terms.*", "orders.*",
    "rewriting.rewrite_step", "rewriting.step_at", "rewriting.is_normal_form",
    "rewriting.ordered_step", "rewriting.ordered_step_at",
    "rewriting.all_steps", "critical_pairs.peak_of_overlap",
    "completion.single_step_connects", "completion.is_linear",
    "cli.show_pair",
}

DRIVER_PHASES = ("run", "interreduce", "simplify_to_normal_form",
                 "fairness_gap")

# counts that must repeat exactly across runs and PYTHONHASHSEED values;
# hash/eq calls are left out, because dict and set probes call __eq__ on
# hash collisions, which depend on the hash seed
DETERMINISTIC = ("completion.inferences", "completion.R_peak",
                 "completion.E_peak", "completion.e_union_peak",
                 "completion.fairness_gap.calls",
                 "completion.fairness.examined",
                 "critical_pairs.overlaps.calls",
                 "critical_pairs.overlaps.found",
                 "critical_pairs.extended_overlaps.calls",
                 "critical_pairs.peaks", "critical_pairs.prime_peaks",
                 "rewriting.rewrite_step.calls", "rewriting.steps",
                 "rewriting.ordered_step.calls", "orders.gt.calls",
                 "orders.gt.true", "terms.match.calls", "terms.unify.calls",
                 "terms.apply_subst.calls", "terms.replace_at.calls")


def _is_kernel(name: str) -> bool:
    return name in KERNEL or name.split(".")[0] + ".*" in KERNEL


class Tracer:
    def __init__(self):
        self.spans: list = []
        # open frames: [name, layer, child seconds, start, span id]
        self.stack: list = []
        self.case = None
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.hooks = {
            "completion.apply_inference": self._on_inference,
            "critical_pairs.overlaps": self._on_overlaps,
            "critical_pairs.critical_peaks": self._on_peaks,
            "critical_pairs.extended_overlaps": self._on_peaks,
            "critical_pairs.prime_critical_pairs": self._on_gap_candidates,
            "critical_pairs.extended_critical_pairs": self._on_gap_candidates,
            "critical_pairs.linear_critical_pairs": self._on_gap_candidates,
            "orders.gt": self._on_gt,
            "rewriting.rewrite_step": self._on_step,
            "rewriting.ordered_step": self._on_step,
        }

    # ------------------------------------------------------------ hooks

    def _on_inference(self, args, result):
        state, inf = args[0], args[1]
        c = self.counts
        c["completion.inferences"] += 1
        c["completion.inferences." + inf.kind] += 1
        for key, n in (("completion.R_peak", len(state.R)),
                       ("completion.E_peak", len(state.E)),
                       ("completion.e_union_peak", len(state.e_union))):
            if n > c[key]:
                c[key] = n

    def _on_overlaps(self, args, result):
        self.counts["critical_pairs.overlaps.found"] += len(result)

    def _on_peaks(self, args, result):
        self.counts["critical_pairs.peaks"] += len(result)
        self.counts["critical_pairs.prime_peaks"] += sum(
            1 for p in result if p.prime)

    def _on_gap_candidates(self, args, result):
        if self.stack and self.stack[-1][0] == "completion.fairness_gap":
            self.counts["completion.fairness.examined"] += len(result)

    def _on_gt(self, args, result):
        if result:
            self.counts["orders.gt.true"] += 1

    def _on_step(self, args, result):
        if result is not None and self.stack and self.stack[-1][0] in (
                "rewriting.normalize", "rewriting.ordered_normalize"):
            self.counts["rewriting.steps"] += 1

    # ---------------------------------------------------------- wrapping

    def wrap(self, name: str, fn):
        layer = name.split(".")[0]
        kernel = _is_kernel(name)
        hook = self.hooks.get(name)
        calls_key = name + ".calls"
        stack, counts, spans = self.stack, self.counts, self.spans
        total_s, self_s = self.total_s, self.self_s
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            parent = stack[-1][4] if stack else None
            sid = parent
            if not kernel:
                sid = len(spans)
                spans.append(None)
            frame = [name, layer, 0.0, clock(), sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[3]
                total_s[name] += duration
                self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if not kernel:
                    spans[sid] = (name, frame[3], end, parent, tracer.case)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap kbd in the running interpreter; call after importing it."""
        modules = {layer: sys.modules["kbd." + layer] for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrapped[obj] = self.wrap("%s.%s" % (layer, attr), obj)
        for mod in list(modules.values()) + [sys.modules["kbd"]]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        # driver phases count under completion for both drivers
        for cls in (modules["completion"]._Driver,
                    modules["ordered"]._OrderedDriver):
            for phase in DRIVER_PHASES:
                if phase in vars(cls):
                    setattr(cls, phase, self.wrap("completion." + phase,
                                                  vars(cls)[phase]))
        spec = modules["orders"].OrderSpec
        spec.gt = self.wrap("orders.gt", spec.gt)
        spec.orient = self.wrap("orders.orient", spec.orient)
        terms = modules["terms"]
        for cls in (terms.Var, terms.Fun):
            for dunder in ("__hash__", "__eq__"):
                setattr(cls, dunder, self._count_only(
                    "terms.hash_eq.calls", vars(cls)[dunder]))

    def _count_only(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # ----------------------------------------------------------- output

    @contextlib.contextmanager
    def root(self, name: str, case):
        """A root span around one case, query, setup or check."""
        self.case = case
        sid = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()
        self.stack.append([name, "harness", 0.0, start, sid])
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[sid] = (name, start, time.perf_counter(), None, case)
            self.case = None

    def summary(self) -> dict:
        return {"total_s": dict(self.total_s), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "spans": len(self.spans)}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, case) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "case": case}) + "\n")
