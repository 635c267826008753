"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of each dpsan module from outside
the package: it replaces every attribute through which callers look a
function up (module globals, module-level dispatch dicts such as
``pipelines.MECHANISMS``, and class attributes for methods) with a wrapper
that records one span per call. Nothing under ``src/`` changes, and
:meth:`Tracer.uninstall` puts every original back.

A span is (name, start, end, parent). Spans are kept in flat arrays in
memory and written out once, when the run ends. A layer's self time is the
sum over its spans of the span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

# A function's statistics-grid argument, as audit_mechanism declares it.
_AUDIT_GRID_POS, _AUDIT_GRID_DEFAULT = 5, 400
# A proportion release keeps exactly four draws when it succeeds.
_PROPORTION_DRAWS = 4


class Tracer:
    """Records spans and counters around dpsan's public functions."""

    def __init__(self):
        self.layers: list[str] = []
        self._codes: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.audit_grid: dict[int, list[float]] = {}
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _code(self, layer: str) -> int:
        if layer not in self._codes:
            self._codes[layer] = len(self.layers)
            self.layers.append(layer)
        return self._codes[layer]

    def span(self, layer: str, fn, before=None, after=None):
        """Wrap ``fn`` so each call records one span of ``layer``.

        ``before(args, kwargs)`` runs ahead of the span and returns a token;
        ``after(token, result, exc, seconds)`` runs once the span is closed.
        """
        code = self._code(layer)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            idx = len(names)
            names.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if after:
                    after(token, None, exc, ends[idx] - starts[idx])
                raise
            ends[idx] = clock()
            stack.pop()
            if after:
                after(token, result, None, ends[idx] - starts[idx])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    # -- patching ----------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Point every dpsan module global and module-level dict entry that
        holds ``original`` at ``wrapper``."""
        found = False
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "dpsan" or modname.startswith("dpsan.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((setattr, mod, attr, original))
                    found = True
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._undo.append((dict.__setitem__, value, key, original))
                            found = True
        if not found:
            raise LookupError(f"no dpsan module refers to {original!r}")

    def _replace_method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((setattr, cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self, dpsan) -> "Tracer":
        """Wrap the public functions that the benchmark's workloads reach."""
        counts = self.counts
        mech, pipe, simlab = dpsan.mechanisms, dpsan.pipelines, dpsan.simlab

        def count_draws(args, kwargs):
            size = kwargs.get("size", args[5] if len(args) > 5 else None)
            draws = 1 if size is None else math.prod(np.atleast_1d(size).tolist())
            counts["sample.draws"] += draws
            if size is not None:
                counts["batched.draws"] += draws
            return size

        def time_batched(size, result, exc, seconds):
            if size is not None:
                counts["batched.seconds"] += seconds

        def mark_draws(args, kwargs):
            return counts["sample.draws"]

        def count_useful(drawn_before, result, exc, seconds):
            kept = 0 if exc is not None else _PROPORTION_DRAWS
            if isinstance(exc, pipe.RenormalizationDegenerateError):
                counts["release.degenerate"] += 1
            counts["sample.wasted"] += counts["sample.draws"] - drawn_before - kept

        def count_grid(args, kwargs):
            return kwargs.get("grid", args[_AUDIT_GRID_POS] if len(args) > _AUDIT_GRID_POS else _AUDIT_GRID_DEFAULT)

        def time_grid(grid, result, exc, seconds):
            counts["audit.grid_points"] += grid
            self.audit_grid.setdefault(grid, []).append(seconds)

        def count_summarized(args, kwargs):
            counts["summarize.rows"] += len(args[0])

        def count_written(args, kwargs):
            report = args[0]
            counts["write_csv.rows"] += len(report.replicates) + len(report.summary)

        def size_written(token, paths, exc, seconds):
            if paths is not None:
                counts["write_csv.bytes"] += sum(p.stat().st_size for p in paths)

        for layer, fn, before, after in (
            ("cli", dpsan.cli.main, None, None),
            ("simlab.run", simlab.run_study, None, None),
            ("simlab.summarize", simlab.summarize, count_summarized, None),
            ("pipelines.release", pipe.sanitize_covariance, None, None),
            ("pipelines.release", pipe.sanitize_proportions, mark_draws, count_useful),
            ("pipelines.release", pipe.multiple_synthesis, None, None),
            ("pipelines.wald_ci", pipe.wald_ci, None, None),
            ("sensitivity", dpsan.sensitivity.gs_catalog, None, None),
            ("sensitivity", dpsan.sensitivity.variance_output_bounds, None, None),
            ("sensitivity", dpsan.sensitivity.covariance_output_bounds, None, None),
            ("mechanisms.sample", mech.trunc_laplace_sample, count_draws, time_batched),
            ("mechanisms.sample", mech.bit_laplace_sample, count_draws, time_batched),
            ("mechanisms.normal_quantile", mech.standard_normal_quantile, None, None),
            ("moments", dpsan.moments.bias_order_check, None, None),
            ("dpaudit", dpsan.dpaudit.audit_mechanism, count_grid, time_grid),
        ):
            self._replace(fn, self.span(layer, fn, before, after))

        compose = dpsan.accountant.compose

        def counted_compose(entries):
            entries = list(entries)
            counts["compose.entries"] += len(entries)
            return compose(entries)

        self._replace(compose, counted_compose)
        for cls, attr, layer, before, after in (
            (mech.RandomStream, "generator", "mechanisms.generator", None, None),
            (dpsan.accountant.BudgetLedger, "spend", "accountant.spend", None, None),
            (simlab.SimReport, "write_csv", "simlab.write_csv", count_written, size_written),
        ):
            self._replace_method(cls, attr, self.span(layer, cls.__dict__[attr], before, after))
        return self

    def uninstall(self) -> None:
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per layer: (calls, self seconds)."""
        name = np.frombuffer(self._name, dtype=np.intc)
        parent = np.frombuffer(self._parent, dtype=np.intc)
        dur = np.frombuffer(self._end, dtype=float) - np.frombuffer(self._start, dtype=float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        calls = np.bincount(name, minlength=len(self.layers))
        total = np.bincount(name, weights=own, minlength=len(self.layers))
        return {layer: (int(calls[i]), float(total[i])) for i, layer in enumerate(self.layers)}

    def span_count(self) -> int:
        return len(self._name)

    def write(self, path) -> None:
        """Write every span as arrays: layer code, parent index, start, end."""
        np.savez(
            path,
            layers=np.array(self.layers),
            name=np.frombuffer(self._name, dtype=np.intc),
            parent=np.frombuffer(self._parent, dtype=np.intc),
            start=np.frombuffer(self._start, dtype=float),
            end=np.frombuffer(self._end, dtype=float),
        )
