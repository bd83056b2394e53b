"""Span recorder that wraps ges4's public functions from outside the package.

Every traced function is replaced, at each module namespace that binds it,
by a wrapper that records a span (operation, id, parent id, name, start,
end). Spans stay in memory and are written out once, at the end of a run.
``HilbertSpace.dim`` is only counted: it is a trivial property called tens
of thousands of times per report, and a span per call would be mostly
recorder overhead.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter_ns

# Layer -> functions traced in it. The names are the per-layer metrics.
TRACED = {
    "hilbert": ("embed", "partial_trace", "density_matrix", "unitary_exp", "tensor"),
    "circuit": ("mz_circuit", "evolve", "initial_state", "detect", "prepare_ges",
                "closed_form_pair"),
    "measures": ("measure_report", "concurrence", "bipartition_entropy",
                 "von_neumann_entropy", "calibrate_closed_forms"),
    "basis": ("explicit_basis", "generate_basis", "decompose", "compare_generated"),
    "verify": ("run_all_checks", "report_to_json"),
    "cli": ("main",),
}
LINALG = ("eigh", "eigvalsh", "svd")
PACKAGE_MODULES = ("ges4", "ges4.hilbert", "ges4.circuit", "ges4.measures",
                   "ges4.basis", "ges4.verify", "ges4.cli")


class SpanRecorder:
    """Collects spans while ``enabled``; installs and removes its wrappers."""

    def __init__(self):
        self.enabled = False
        self.op = -1
        self.spans = []
        self.calls = Counter()
        self.self_ns = Counter()
        self._stack = []          # [span id, ns covered by child spans]
        self._next_id = 0
        self._undo = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0]
            self._stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._stack.pop()
                self.calls[name] += 1
                self.self_ns[name] += (t1 - t0) - frame[1]
                if self._stack:
                    self._stack[-1][1] += t1 - t0
                self.spans.append((self.op, span_id, parent, name, t0, t1))
        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the traced functions everywhere ges4 binds them."""
        import numpy.linalg
        from ges4.hilbert import HilbertSpace

        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"ges4.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._patch(mod, name, wrapper)
        for name in LINALG:
            self._patch(numpy.linalg, name,
                        self._wrap(f"linalg.{name}", getattr(numpy.linalg, name)))

        dim = HilbertSpace.dim.fget

        def counted_dim(space):
            if self.enabled:
                self.calls["hilbert.HilbertSpace.dim"] += 1
            return dim(space)
        self._patch(HilbertSpace, "dim", property(counted_dim))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path):
        """Write the recorded spans as JSON lines: op, id, parent, name, t0, t1 (ns)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, n_ops: int) -> dict:
        """Per-operation calls and self time of every traced function."""
        out = {}
        for layer, names in TRACED.items():
            for name in names:
                key = f"{layer}.{name}"
                if layer != "cli":
                    out[f"{key}.calls"] = (self.calls[key] / n_ops, "count")
                out[f"{key}.self_ms"] = (self.self_ns[key] / 1e6 / n_ops, "ms")
        out["hilbert.HilbertSpace.dim.calls"] = (
            self.calls["hilbert.HilbertSpace.dim"] / n_ops, "count")
        for name in LINALG:
            out[f"linalg.{name}.calls"] = (self.calls[f"linalg.{name}"] / n_ops, "count")
        out["linalg.self_ms"] = (
            sum(self.self_ns[f"linalg.{n}"] for n in LINALG) / 1e6 / n_ops, "ms")
        return out
