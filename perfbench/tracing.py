"""Span tracing from outside the program: wrappers around its public calls.

:class:`Tracer` replaces a function or method with a wrapper that records
one span per call — name, layer, start, end, parent span and trace id —
in an in-memory list.  Nothing in ``src/`` changes; :meth:`Tracer.uninstall`
puts every original back.  Spans opened while no span is open on the
calling thread start a new trace id, so the spans of one batch (or one
protocol call) share an id.  Calls made in a forked child pass straight
through: their spans could never be collected.

:func:`layer_self_times` turns the spans of a window into each layer's
self time: a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

# Span record fields (lists, so the end time can be filled in place).
NAME, LAYER, START, END, PARENT, TRACE_ID = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.enabled = True
        self._pid = os.getpid()
        self._local = threading.local()
        self._trace_ids = itertools.count(1)
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, layer):
        """Replace ``owner.attr`` with a span-recording wrapper."""
        inherited = isinstance(owner, type) and attr not in owner.__dict__
        original = getattr(owner, attr)
        tracer = self
        spans = self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
                trace_id = spans[parent][TRACE_ID]
            else:
                parent = None
                trace_id = next(tracer._trace_ids)
            record = [name, layer, time.perf_counter(), 0.0, parent, trace_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                return original(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, inherited))

    def uninstall(self):
        for owner, attr, original, inherited in reversed(self._patches):
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def window(self, start, end):
        """Indices of the spans that started and ended inside ``[start, end]``."""
        return [
            index for index, span in enumerate(self.spans)
            if span[START] >= start and 0.0 < span[END] <= end
        ]

    def write(self, path):
        """Write every span once, as JSON, at the end of the run."""
        rows = [
            {"name": s[NAME], "layer": s[LAYER], "start": s[START], "end": s[END],
             "parent": s[PARENT], "trace_id": s[TRACE_ID]}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


def install_program_wrappers(tracer, backend_classes):
    """Wrap the public entry points of the backend, IR, curve and protocol layers."""
    from repro.backends.native import CompiledNativeIR, NativeIRExecutor
    from repro.curves import point, protocols, scalarmul

    for cls in backend_classes:
        for attr in ("multiply_batch", "square_batch", "inverse_batch"):
            tracer.wrap(cls, attr, f"{cls.__name__}.{attr}", "backends")
    tracer.wrap(NativeIRExecutor, "compile", "NativeIRExecutor.compile", "backends.ir")
    tracer.wrap(CompiledNativeIR, "run_arrays", "CompiledNativeIR.run_arrays", "backends.ir")
    tracer.wrap(point.BinaryCurve, "multiply_batch", "BinaryCurve.multiply_batch", "curves")
    for attr in ("comb_table", "multiply_tau_batch", "multiply_comb_batch"):
        tracer.wrap(scalarmul, attr, f"scalarmul.{attr}", "curves")
    for attr in ("ecdh_batch", "keygen_batch", "sign_batch"):
        tracer.wrap(protocols, attr, f"protocols.{attr}", "curves.protocols")


def layer_self_times(spans, indices):
    """``{layer: self seconds}`` summed over the spans ``indices`` of ``spans``."""
    members = set(indices)
    covered = {}
    for index in indices:
        parent = spans[index][PARENT]
        if parent in members:
            covered[parent] = covered.get(parent, 0.0) + spans[index][END] - spans[index][START]
    totals = {}
    for index in indices:
        own = spans[index][END] - spans[index][START] - covered.get(index, 0.0)
        totals[spans[index][LAYER]] = totals.get(spans[index][LAYER], 0.0) + own
    return totals


def span_cost_seconds(samples=20000):
    """Measured cost of one recorded span (wrapper + bookkeeping) on this machine."""

    class _Probe:
        def call(self):
            return None

    probe = _Probe()
    started = time.perf_counter()
    for _ in range(samples):
        probe.call()
    bare = time.perf_counter() - started
    tracer = Tracer()
    tracer.wrap(_Probe, "call", "probe", "probe")
    try:
        started = time.perf_counter()
        for _ in range(samples):
            probe.call()
        wrapped = time.perf_counter() - started
    finally:
        tracer.uninstall()
    return max(wrapped - bare, 0.0) / samples
