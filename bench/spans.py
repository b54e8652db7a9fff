"""Spans around the public functions of each sgharm module, installed from
the benchmark's side (nothing in the library changes).

A span records its name, start, end and the span of the call that caused
it.  Self time is a span's duration minus the time of its direct children.
The per-layer metrics below are sums of self time (``*_ms``) or counts of
work over every traced operation of a run, divided by the run's number of
rounds.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import sgharm
import sgharm.cli
import sgharm.exact
import sgharm.harmonic
import sgharm.holder
import sgharm.tangent

MODULES = (sgharm, sgharm.exact, sgharm.harmonic, sgharm.tangent, sgharm.holder, sgharm.cli)


def _len_arg(args, kwargs, out):
    return len(args[0])


# (owner, attribute, span name, (counter, amount) or None)
TARGETS = (
    (sgharm.exact, "expand", "exact.expand",
     ("exact.period_letters", lambda a, k, out: len(out.period))),
    (sgharm.exact, "expand_auto", "exact.expand_auto", None),
    (sgharm.exact, "edge_word_matrix", "exact.edge_word_matrix", ("exact.fold_letters", _len_arg)),
    (sgharm.exact, "chart_word_matrix", "exact.chart_word_matrix",
     ("exact.fold_letters", _len_arg)),
    (sgharm.exact, "word_product", "exact.word_product", ("exact.fold_letters", _len_arg)),
    (sgharm.exact.QuadraticValue, "compare", "exact.QuadraticValue.compare", None),
    (sgharm.exact, "dominant_eigen", "exact.dominant_eigen", None),
    (sgharm.holder, "alpha_enclosure", "holder.alpha_enclosure", None),
    (sgharm.holder, "holder_exponent", "holder.holder_exponent", None),
    (sgharm.holder, "classify_curve", "holder.classify_curve", None),
    (sgharm.holder, "classify_form", "holder.classify_form", None),
    (sgharm.holder, "lyapunov_sample", "holder.lyapunov_sample",
     ("holder.stream_bits", lambda a, k, out: a[0] * a[1])),
    (sgharm.holder, "exponent_estimate", "holder.exponent_estimate",
     ("holder.stream_bits", _len_arg)),
    (sgharm.tangent, "projective_word_matrix", "tangent.projective_word_matrix",
     ("tangent.projective_letters", _len_arg)),
    (sgharm.tangent, "direction_at_rational", "tangent.direction_at_rational", None),
    (sgharm.tangent, "direction_at", "tangent.direction_at", None),
    (sgharm.tangent, "kernel_test", "tangent.kernel_test", None),
    (sgharm.harmonic, "harmonic_grid", "harmonic.harmonic_grid",
     ("harmonic.grid_vertices", lambda a, k, out: len(out.values))),
    (sgharm.harmonic, "check_harmonic", "harmonic.check_harmonic", None),
    (sgharm.harmonic.HarmonicGrid, "to_json", "harmonic.HarmonicGrid.to_json", None),
    (sgharm.harmonic.HarmonicGrid, "to_csv", "harmonic.HarmonicGrid.to_csv", None),
    (sgharm.harmonic.HarmonicGrid, "side_values", "harmonic.HarmonicGrid.side_values", None),
    (sgharm.harmonic, "curve_point", "harmonic.curve_point", None),
    (sgharm.harmonic, "truncated_curve_value", "harmonic.truncated_curve_value", None),
    (sgharm.cli, "main", "cli.main", None),
)

# per-layer metric -> the spans whose self time it sums
SELF_TIME = {
    "exact.expand_ms": ("exact.expand", "exact.expand_auto"),
    "exact.fold_ms": ("exact.edge_word_matrix", "exact.chart_word_matrix", "exact.word_product"),
    "exact.quad_compare_ms": ("exact.QuadraticValue.compare", "exact.dominant_eigen"),
    "holder.enclosure_ms": ("holder.alpha_enclosure",),
    "holder.exponent_self_ms": ("holder.holder_exponent", "holder.classify_curve"),
    "holder.estimator_ms": ("holder.lyapunov_sample", "holder.exponent_estimate"),
    "tangent.projective_fold_ms": ("tangent.projective_word_matrix",),
    "tangent.direction_self_ms": ("tangent.direction_at_rational", "tangent.direction_at"),
    "tangent.kernel_ms": ("tangent.kernel_test",),
    "harmonic.grid_build_ms": ("harmonic.harmonic_grid",),
    "harmonic.grid_check_ms": ("harmonic.check_harmonic",),
    "harmonic.grid_export_ms": ("harmonic.HarmonicGrid.to_json", "harmonic.HarmonicGrid.to_csv",
                                "harmonic.HarmonicGrid.side_values"),
    "harmonic.curve_self_ms": ("harmonic.curve_point", "harmonic.truncated_curve_value"),
    "cli.interpreter_ms": ("cli.interpreter",),
    "cli.import_ms": ("cli.import",),
    "cli.main_ms": ("cli.main",),
}
# per-layer metric -> span whose calls it counts
CALLS = {"exact.expand_calls": "exact.expand", "holder.enclosure_calls": "holder.alpha_enclosure"}
COUNTS = ("exact.period_letters", "exact.fold_letters", "holder.stream_bits",
          "tangent.projective_letters", "harmonic.grid_vertices")

MAX_KEPT_SPANS = 20000  # spans written to the JSON-lines file; all are aggregated


class Tracer:
    def __init__(self):
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    def _open(self):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, 0.0])
        return self._next_id, parent

    def _close(self, name, span_id, parent, t0, t1):
        _, child = self._stack.pop()
        dur = t1 - t0
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += dur
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, parent, name, t0, t1))

    def begin(self, name: str):
        """Open a root span for one benchmark operation."""
        span_id, parent = self._open()
        return name, span_id, parent, perf_counter()

    def end(self, token):
        name, span_id, parent, t0 = token
        self._close(name, span_id, parent, t0, perf_counter())

    def record(self, name: str, seconds: float):
        """A span measured elsewhere (a subprocess), as a child of the current span."""
        t1 = perf_counter()
        span_id, parent = self._open()
        self._close(name, span_id, parent, t1 - seconds, t1)

    def wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            span_id, parent = tracer._open()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(name, span_id, parent, t0, perf_counter())
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counter)
            owners = [owner] if isinstance(owner, type) else MODULES
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, value in reversed(self._undo):
            setattr(mod, key, value)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric, summed over the run and divided by its
        number of rounds: the cost of one round of the workload's mix."""
        out = {}
        for metric, names in SELF_TIME.items():
            out[metric] = 1000.0 * sum(self.self_time.get(n, 0.0) for n in names) / rounds
        for metric, name in CALLS.items():
            out[metric] = self.calls.get(name, 0) / rounds
        for metric in COUNTS:
            out[metric] = self.counts.get(metric, 0) / rounds
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
