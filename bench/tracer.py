"""Spans around the calls into cylspec's modules, installed from outside the
package: every public function of the traced modules is replaced, in every
cylspec namespace that holds it, by a wrapper that records a span.  Nothing
under src/ changes, and uninstall() puts the original functions back.

A span is [name, parent span index or None, seconds, tracemalloc peak bytes
or None, size or None, failed].  Intra-module calls (wall_crossing calling
fredholm_index) are spans too, with the outer call as parent.
"""

import functools
import inspect
import sys
import time
import tracemalloc

LAYERS = ("dec", "mesh", "lattice", "models", "spectral", "index", "cylinder")

# functions whose tracemalloc peak is reported; only measured in memory mode,
# because tracing allocations slows the Python loops it watches
PEAK = {"models.build_sl_model", "models.check_model", "spectral.eigendecompose",
        "cylinder.solve_cylinder"}

# a work count recorded with the span, from the call's first argument
SIZE = {
    "spectral.eigendecompose": lambda model, *a, **k: model.dim,
    "cylinder.solve_cylinder": lambda op, *a, **k: op.dim * (op.tgrid.size - 1),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.memory = False
        self._stack = []
        self._patches = []   # (namespace, attribute, original)

    def _wrap(self, name, fn):
        size = SIZE.get(name)
        peak = name in PEAK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else None, 0.0, None,
                    size(*args, **kwargs) if size else None, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            mem = peak and self.memory and not tracemalloc.is_tracing()
            if mem:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter() - t0
                if mem:
                    span[3] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
        return traced

    def call(self, name, fn, *args):
        """fn(*args) as a span named by the benchmark (one CLI command)."""
        return self._wrap(name, fn)(*args)

    def install(self, memory=False):
        self.spans, self.memory = [], memory
        namespaces = [m for n, m in sys.modules.items()
                      if n == "cylspec" or n.startswith("cylspec.")]
        for layer in LAYERS:
            module = sys.modules[f"cylspec.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, orig in reversed(self._patches):
            setattr(ns, key, orig)
        self._patches = []
