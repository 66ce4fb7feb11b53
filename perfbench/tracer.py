"""Spans around signalbox's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at every signalbox
module namespace that holds it (``simulate.signal_info`` and
``quantum.signal_info`` as well as ``signaling.signal_info``), and the
two validators on their classes.  ``Tracer.remove`` puts every original
object back.  A span records name, start, end, parent span and operation
id; spans stay in memory until ``write_spans``.  Counts that only a
return value or an argument carries (simplex pivots, channels per
``signal_info`` call, nonzero exit codes) are recorded at the same
boundary.
"""

from __future__ import annotations

import importlib
import sys
import time

# Span name -> (module, attribute path) of the original object.
TARGETS = {
    "correlation.Correlation.__post_init__": ("signalbox.correlation", "Correlation.__post_init__"),
    "correlation.Strategy.as_correlation": ("signalbox.correlation", "Strategy.as_correlation"),
    "correlation.functional_value": ("signalbox.correlation", "functional_value"),
    "correlation.disturbance_cost": ("signalbox.correlation", "disturbance_cost"),
    "correlation.signed_functional": ("signalbox.correlation", "signed_functional"),
    "correlation.signaling_deltas": ("signalbox.correlation", "signaling_deltas"),
    "correlation.marginal": ("signalbox.correlation", "marginal"),
    "signaling.signal_info": ("signalbox.signaling", "signal_info"),
    "signaling.channel_mutual_info": ("signalbox.signaling", "channel_mutual_info"),
    "simplex.solve_lp": ("signalbox.simplex", "solve_lp"),
    "simulate.classify": ("signalbox.simulate", "classify"),
    "simulate.lp_min_cost": ("signalbox.simulate", "lp_min_cost"),
    "simulate.verify_reconstruction": ("signalbox.simulate", "verify_reconstruction"),
    "simulate.closed_form_decompose": ("signalbox.simulate", "closed_form_decompose"),
    "quantum.sequential_correlation": ("signalbox.quantum", "sequential_correlation"),
    "quantum.projector_update_table": ("signalbox.quantum", "projector_update_table"),
    "quantum.expanded_formula_table": ("signalbox.quantum", "expanded_formula_table"),
    "quantum.QubitState.__post_init__": ("signalbox.quantum", "QubitState.__post_init__"),
    "quantum.holevo_max": ("signalbox.quantum", "holevo_max"),
    "quantum.holevo": ("signalbox.quantum", "holevo"),
    "quantum.theta_sweep": ("signalbox.quantum", "theta_sweep"),
    "quantum.find_crossover": ("signalbox.quantum", "find_crossover"),
    "cli.run": ("signalbox.cli", "run"),
}

# Per-layer metric -> (kind, span names).  "calls" counts spans,
# "self_ms" sums their self time.
SPAN_METRICS = {
    "correlation.validate.calls": ("calls", ["correlation.Correlation.__post_init__"]),
    "correlation.validate.self_ms": ("self_ms", ["correlation.Correlation.__post_init__"]),
    "correlation.functional.self_ms": (
        "self_ms",
        ["correlation.functional_value", "correlation.disturbance_cost", "correlation.signed_functional"],
    ),
    "correlation.deltas.self_ms": ("self_ms", ["correlation.signaling_deltas", "correlation.marginal"]),
    "correlation.strategy_tables.calls": ("calls", ["correlation.Strategy.as_correlation"]),
    "signaling.signal_info.calls": ("calls", ["signaling.signal_info"]),
    "signaling.signal_info.self_ms": ("self_ms", ["signaling.signal_info", "signaling.channel_mutual_info"]),
    "signaling.mi_evals": ("calls", ["signaling.channel_mutual_info"]),
    "simplex.solve_lp.calls": ("calls", ["simplex.solve_lp"]),
    "simplex.solve_lp.self_ms": ("self_ms", ["simplex.solve_lp"]),
    "simulate.classify.self_ms": ("self_ms", ["simulate.classify"]),
    "simulate.lp_min_cost.self_ms": ("self_ms", ["simulate.lp_min_cost"]),
    "simulate.verify_reconstruction.calls": ("calls", ["simulate.verify_reconstruction"]),
    "simulate.verify_reconstruction.self_ms": ("self_ms", ["simulate.verify_reconstruction"]),
    "simulate.closed_form_decompose.self_ms": ("self_ms", ["simulate.closed_form_decompose"]),
    "quantum.sequential_correlation.self_ms": ("self_ms", ["quantum.sequential_correlation"]),
    "quantum.projector_route.self_ms": ("self_ms", ["quantum.projector_update_table"]),
    "quantum.formula_route.self_ms": ("self_ms", ["quantum.expanded_formula_table"]),
    "quantum.qubit_states.calls": ("calls", ["quantum.QubitState.__post_init__"]),
    "quantum.qubit_states.self_ms": ("self_ms", ["quantum.QubitState.__post_init__"]),
    "quantum.holevo_max.calls": ("calls", ["quantum.holevo_max"]),
    "quantum.holevo_max.self_ms": ("self_ms", ["quantum.holevo_max", "quantum.holevo"]),
    "quantum.holevo_evals": ("calls", ["quantum.holevo"]),
    "quantum.theta_sweep.self_ms": ("self_ms", ["quantum.theta_sweep"]),
    "quantum.find_crossover.self_ms": ("self_ms", ["quantum.find_crossover"]),
    "cli.run.calls": ("calls", ["cli.run"]),
    "cli.run.self_ms": ("self_ms", ["cli.run"]),
}

# Metrics derived from counters and span ancestry, with their units.
DERIVED_METRICS = {
    "signaling.mi_evals_per_channel": "count/channel",
    "simplex.pivots": "count/op",
    "simplex.feasible_ratio": "ratio",
    "quantum.crossover_holevo_calls": "count/op",
    "cli.exit_nonzero": "count/op",
}


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans of traced passes; one caller, no threads.

    ``fold`` turns the spans of a finished pass into per-name totals and
    clears them, so a run can trace many passes in bounded memory.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, returned]
        self.stack = []
        self.op = -1
        self.calls, self.self_s, self.returned = {}, {}, {}
        self.pivots = self.channels = self.exit_nonzero = self.crossover_holevo = 0
        self.patched = []  # (owner, attribute, original)

    def install(self):
        """Wrap every target at every namespace that holds it."""
        originals = {}
        for name, (module_name, path) in TARGETS.items():
            owner, attr = _resolve(module_name, path)
            fn = vars(owner)[attr]
            originals[id(fn)] = (fn, self._wrap(name, fn))
            if isinstance(owner, type):
                self.patched.append((owner, attr, fn))
                setattr(owner, attr, originals[id(fn)][1])
        for module_name, module in list(sys.modules.items()):
            if module_name != "signalbox" and not module_name.startswith("signalbox."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self.patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def remove(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = True
            self._count(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, args, kwargs, result):
        if name == "simplex.solve_lp":
            self.pivots += result.iterations
        elif name == "signaling.signal_info":
            self.channels += len(tuple(kwargs.get("b_set", args[1] if len(args) > 1 else (0, 1))))
        elif name == "cli.run" and result != 0:
            self.exit_nonzero += 1

    def fold(self):
        """Add the finished pass's spans to the totals and clear them."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for k, (name, start, end, parent, _, ok) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start - child_time[k])
            self.returned[name] = self.returned.get(name, 0) + ok
            if name == "quantum.holevo_max":
                while parent >= 0 and spans[parent][0] != "quantum.find_crossover":
                    parent = spans[parent][3]
                self.crossover_holevo += parent >= 0
        spans.clear()

    def metrics(self, ops):
        """Per-layer metrics per operation, over ``ops`` folded operations.

        Counts are integer totals divided once, so equal passes give
        bit-identical values however many passes ran.
        """
        out = {}
        for metric, (kind, names) in SPAN_METRICS.items():
            if kind == "calls":
                out[metric] = (sum(self.calls.get(n, 0) for n in names) / ops, "count/op")
            else:
                out[metric] = (sum(self.self_s.get(n, 0.0) for n in names) * 1e3 / ops, "ms/op")
        mi = self.calls.get("signaling.channel_mutual_info", 0)
        attempted = self.calls.get("simplex.solve_lp", 0)
        values = {
            "signaling.mi_evals_per_channel": mi / self.channels if self.channels else 0.0,
            "simplex.pivots": self.pivots / ops,
            "simplex.feasible_ratio": self.returned.get("simplex.solve_lp", 0) / attempted if attempted else 0.0,
            "quantum.crossover_holevo_calls": self.crossover_holevo / ops,
            "cli.exit_nonzero": self.exit_nonzero / ops,
        }
        for metric, unit in DERIVED_METRICS.items():
            out[metric] = (values[metric], unit)
        return out

    def write_spans(self, path):
        """One CSV line per span, times in microseconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_us,end_us,parent,op,returned\n")
            for name, start, end, parent, op, ok in self.spans:
                handle.write(f"{name},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},{parent},{op},{int(ok)}\n")
