"""Span tracing of spinline's public layers, installed from outside.

The tracer wraps each function named in ``LAYERS`` in every loaded
``spinline`` module that binds it (``cli`` and ``disorder`` import names
directly, so their bindings are wrapped as well as the defining module's).
Each call records a span (layer, start, end, parent span, exception type)
in memory; ``COUNTED`` names are only counted, under the layer that called
them, so they do not carve time out of their caller's self time.  Nothing
under ``src/`` changes, and a name the package no longer defines is
reported as absent rather than failing the run.

Layer names are ``<module>.<function>``; in-program stage timers should
reuse them.
"""

import csv
import sys
import time
from collections import Counter

# layer name -> module and function wrapped as a span
LAYERS = (
    "hamiltonian.build_blocks",
    "dynamics.diagonalize",
    "receiver.line_params_at",
    "receiver.assemble_rho",
    "receiver.export_params_csv",
    "receiver.import_params_csv",
    "chainopt.optimize_boundary",
    "chainopt.first_maximum",
    "inverse.solve_werner",
    "inverse.solve_general",
    "inverse.feasibility_scan",
    "disorder.sample_chain",
    "disorder.param_statistics",
    "disorder.werner_robustness",
    "probing.simulate_probes",
    "probing.extract_params",
    "cli.validate_config",
    "cli.main",
)

# names wrapped as call counters only: the binding in that one module
# (``least_squares`` is scipy's, so only spinline.inverse's binding counts)
COUNTED = ("inverse.least_squares",)

PACKAGE = "spinline"


class Tracer:
    """Installs span wrappers, collects spans, restores the originals."""

    def __init__(self):
        self.spans = []  # [layer, start, end, parent index, exception name]
        self.counts = Counter()  # (counted name, enclosing layer) -> calls
        self.absent = []
        self._stack = []
        self._patches = []  # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            original = self._lookup(layer)
            if original is None:
                continue
            wrapper = self._span_wrapper(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for name in COUNTED:
            original = self._lookup(name)
            if original is None:
                continue
            module = sys.modules[f"{PACKAGE}.{name.split('.')[0]}"]
            self._patch(module, name.split(".", 1)[1], self._count_wrapper(name, original))
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _lookup(self, name):
        module_name, func = name.split(".", 1)
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        original = getattr(module, func, None) if module is not None else None
        if original is None and name not in self.absent:
            self.absent.append(name)
        return original

    def _patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span_wrapper(self, layer, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return func(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = func
        return traced

    def _count_wrapper(self, name, func):
        spans, stack, counts = self.spans, self._stack, self.counts

        def counted(*args, **kwargs):
            counts[name, spans[stack[-1]][0] if stack else None] += 1
            return func(*args, **kwargs)

        counted.__wrapped__ = func
        return counted

    # -- results -----------------------------------------------------------

    def layer_totals(self):
        """layer -> {calls, total_s, self_s, errors: Counter}.

        Self time is a span's duration minus the durations of its child
        spans; one thread runs everything, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": Counter()}
                  for layer in LAYERS}
        for i, (layer, start, end, _parent, err) in enumerate(self.spans):
            t = totals[layer]
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - child[i]
            if err:
                t["errors"][err] += 1
        return totals

    def calls_under(self, layer, ancestor):
        """Spans of ``layer`` with a span of ``ancestor`` above them."""
        n = 0
        for name, _s, _e, parent, _err in self.spans:
            if name != layer:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            n += parent >= 0
        return n

    def write_spans(self, path):
        """Spans as CSV rows: index, layer, start_s, end_s, parent, error."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "layer", "start_s", "end_s", "parent", "error"])
            for i, (layer, start, end, parent, err) in enumerate(self.spans):
                w.writerow([i, layer, f"{start - t_ref:.9f}", f"{end - t_ref:.9f}",
                            parent, err or ""])
        return len(self.spans)
