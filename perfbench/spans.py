"""Spans and counters for the traced run, recorded from outside the library.

A Tracer replaces library functions and methods with wrappers for the
duration of a `with tracer.installed():` block and puts every original
back when the block ends, also when it ends by an exception.  Code
under src/ is never edited.

* A span wrapper records (name, parent, start, end) in flat arrays; the
  parent is the span open when the call started, so self time is a
  span's duration minus the durations of its direct children.
* A counter wrapper only counts calls.  Quaternion operations get
  counters, not spans: a span costs more than the operation it wraps.
* hardy.truncation_for gets a counter that also sums the truncation
  orders it returns, the number of kernel terms delta sums.

Library modules import functions from each other by name (geometry uses
`regular_differential`, cli uses `tensor_value` and `delta`), so a
function is replaced under every name any sliceball module binds it to.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

from sliceball import cli, geometry, hardy, mobius
from sliceball.quat import Quaternion
from sliceball.series import RegularPowerSeries

# span name -> (owner, attribute); owner is a module or a class
SPANNED = {
    "geometry.slice_hermitian_via_definition":
        (geometry, "slice_hermitian_via_definition"),
    "geometry.slice_hermitian": (geometry, "slice_hermitian"),
    "geometry.slice_riemannian": (geometry, "slice_riemannian"),
    "geometry.tensor_value": (geometry, "tensor_value"),
    "geometry.curve_length": (geometry, "curve_length"),
    "geometry.distance_estimate": (geometry, "distance_estimate"),
    "hardy.delta": (hardy, "delta"),
    "mobius.matrix_to_canonical": (mobius, "matrix_to_canonical"),
    "mobius.regular_apply": (mobius, "regular_apply"),
    "mobius.matrix_regular_apply": (mobius, "matrix_regular_apply"),
    "mobius.regular_differential": (mobius, "regular_differential"),
    "series.eval": (RegularPowerSeries, "eval"),
    "series.star": (RegularPowerSeries, "star"),
    "cli.sample_field": (cli, "cmd_sample_field"),
}

# counter name -> list of (owner, attribute) whose calls it counts
COUNTED = {
    "quat.alloc": [(Quaternion, "__init__")],
    "quat.mul": [(Quaternion, "__mul__"), (Quaternion, "__rmul__")],
    "quat.inv": [(Quaternion, "inv")],
}

SUITES = ("quat", "series", "mobius", "geometry", "hardy")

# Every per-layer metric a traced run reports, with its unit.  The
# benchmark definition lists the same names.
LAYER_METRICS = (
    [("verify.%s.s" % s, "s") for s in SUITES]
    + [("verify.checks.failed", "count"), ("verify.checks.raised", "count")]
    + [("geometry.%s.self_s" % f, "s") for f in (
        "slice_hermitian_via_definition", "slice_hermitian",
        "slice_riemannian")]
    + [("geometry.tensor_value.ns_per_call", "ns"),
       ("geometry.curve_length.self_s", "s"),
       ("geometry.distance_estimate.self_s", "s"),
       ("hardy.delta.calls", "count"), ("hardy.delta.self_s", "s"),
       ("hardy.delta.ns_per_call", "ns"), ("hardy.delta.failed", "count"),
       ("hardy.kernel_terms", "count"),
       ("mobius.matrix_to_canonical.calls", "count"),
       ("mobius.matrix_to_canonical.self_s", "s"),
       ("mobius.matrix_to_canonical.ns_per_call", "ns"),
       ("mobius.matrix_to_canonical.failed", "count"),
       ("mobius.matrix_to_canonical.evals_per_call", "count"),
       ("mobius.regular_apply.self_s", "s"),
       ("mobius.matrix_regular_apply.self_s", "s"),
       ("mobius.regular_differential.self_s", "s"),
       ("series.eval.calls", "count"), ("series.eval.self_s", "s"),
       ("series.star.calls", "count"), ("series.star.self_s", "s"),
       ("quat.alloc.calls", "count"), ("quat.mul.calls", "count"),
       ("quat.inv.calls", "count"),
       ("cli.sample_field.self_s", "s"), ("cli.bytes_out", "B"),
       ("trace.overhead_s", "s")])


def _sliceball_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sliceball"
                                  or name.startswith("sliceball."))]


class Tracer:
    """In-memory span and call-count recorder; see the module docstring."""

    def __init__(self):
        self.names = []                 # span name table; ids index it
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.failed = {}                # span name -> calls that raised
        self.counts = {name: 0 for name in COUNTED}
        self.counts["hardy.kernel_terms"] = 0
        self._saved = []                # (owner, attribute, original)

    # -- recording ------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.span_end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def _span_wrapper(self, name, fn):
        nid = self._id(name)
        opened, closed, failed = self._open, self._close, self.failed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = opened(nid)
            try:
                return fn(*args, **kwargs)
            except Exception:
                failed[name] = failed.get(name, 0) + 1
                raise
            finally:
                closed(i)
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _truncation_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trunc = fn(*args, **kwargs)
            counts["hardy.kernel_terms"] += trunc.order
            return trunc
        return wrapper

    # -- installing -----------------------------------------------------

    def _replace(self, owner, attr, make_wrapper):
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            # aliases such as RegularPowerSeries.__call__ = eval
            holders = [owner]
        else:
            holders = _sliceball_modules()
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._saved.append((holder, name, value))
                    setattr(holder, name, wrapper)

    def _install(self):
        for name, (owner, attr) in SPANNED.items():
            self._replace(owner, attr,
                          functools.partial(self._span_wrapper, name))
        for name, targets in COUNTED.items():
            for owner, attr in targets:
                self._replace(owner, attr,
                              functools.partial(self._count_wrapper, name))
        self._replace(hardy, "truncation_for", self._truncation_wrapper)

    def _uninstall(self):
        while self._saved:
            holder, name, value = self._saved.pop()
            setattr(holder, name, value)

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced attributes inside the block, restore after."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    # -- results --------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, parent index, start, end."""
        return (np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.span_parent, dtype=np.int32),
                np.frombuffer(self.span_start, dtype=np.float64),
                np.frombuffer(self.span_end, dtype=np.float64))

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Also the number of series.eval spans nested (at any depth) inside
        a mobius.matrix_to_canonical span, under "canonical_evals".
        """
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_s, minlength=k)
        out = {n: (int(calls[i]), float(total[i]), float(own[i]))
               for i, n in enumerate(self.names)}
        out["canonical_evals"] = self._count_inside(
            name, parent, "series.eval", "mobius.matrix_to_canonical")
        return out

    def _count_inside(self, name, parent, inner, outer):
        if inner not in self._ids or outer not in self._ids:
            return 0
        outer_id = self._ids[outer]
        safe_parent = np.where(parent >= 0, parent, 0)
        # inside[i]: some proper ancestor of span i is an `outer` span
        inside = (parent >= 0) & (name[safe_parent] == outer_id)
        while True:
            grown = inside | ((parent >= 0) & inside[safe_parent])
            if np.array_equal(grown, inside):
                break
            inside = grown
        return int(np.count_nonzero(inside & (name == self._ids[inner])))


def layer_metrics(tracer, passes, known):
    """Every LAYER_METRICS value as {name: value}, per traced pass.

    `known` supplies the values that do not come from spans or counters
    (per-suite seconds, check counts, bytes written, tracing overhead);
    a layer the workload never reaches reads 0.
    """
    spans = tracer.summary()
    out = {}
    for name, _ in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        calls, total, own = spans.get(layer, (0, 0.0, 0.0))
        if name in known:
            value = known[name]
        elif layer in tracer.counts:
            value = tracer.counts[layer] / passes
        elif name in tracer.counts:
            value = tracer.counts[name] / passes
        elif stat == "calls":
            value = calls / passes
        elif stat == "self_s":
            value = own / passes
        elif stat == "failed":
            value = tracer.failed.get(layer, 0) / passes
        elif stat == "ns_per_call":
            value = total / calls * 1e9 if calls else 0.0
        elif stat == "evals_per_call":
            value = spans["canonical_evals"] / calls if calls else 0.0
        else:
            value = 0
        out[name] = value
    return out
