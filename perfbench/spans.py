"""Span tracing installed from outside the program.

``Tracer.install`` wraps every public function and public method named in
the ``__all__`` of each diskpoisson module, and rebinds the wrappers
wherever another module holds the same function through ``from .x import
y`` (``regimes.circle_derivs``, ``cli.deriv_field``, ``mappings.hyp2f1``
and so on). ``uninstall`` puts every original back. Closed-form callables
passed to ``BoundaryData.from_function`` are wrapped as
``mappings.closed_form`` spans.

A span is ``[name, start, end, parent, op, error]``; spans stay in memory
and are written out when the pass ends. Counters hold the work counts that
a span alone does not show (samples, nodes, bytes, records).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

PACKAGE = "diskpoisson"
MODULES = ("specfun", "kernel", "derivs", "norms", "regimes", "mappings", "elliptic", "cli")
CLOSED_FORM = "mappings.closed_form"
_MARK = "_perfbench_span"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op = None
        self._stack: list = []
        self._patches: list = []

    # -- spans -----------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """A wrapper recording one span per call of fn.

        ``before(tracer, args, kwargs)`` may return replacement
        (args, kwargs); ``after(tracer, span_index, args, kwargs, result)``
        updates counters once the span has ended.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self.op, False]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, index, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def closed_form(self, fn):
        """Wrap a closed-form boundary callable once."""
        if fn is None or getattr(fn, _MARK, False):
            return fn
        return self.wrap(CLOSED_FORM, fn, after=_count_closed_form_samples)

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}  # id(original function) -> (original, wrapper)
        for short in MODULES:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                continue
            for public in getattr(mod, "__all__", ()):
                obj = mod.__dict__.get(public)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap_named(f"{short}.{public}", obj)
                    wrapped[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(f"{short}.{public}", obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def _wrap_named(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))
        if before is not None or after is not None:
            sig = inspect.signature(fn)
            if before is not None:
                before = functools.partial(before, sig)
            if after is not None:
                after = functools.partial(after, sig)
        return self.wrap(name, fn, before=before, after=after)

    def _wrap_class(self, prefix, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, (classmethod, staticmethod)):
                new = type(value)(self._wrap_named(f"{prefix}.{attr}", value.__func__))
            elif inspect.isfunction(value):
                new = self._wrap_named(f"{prefix}.{attr}", value)
            else:
                continue
            self._patch(cls, attr, new)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def aggregate(spans) -> dict:
    """Per span name: calls, errors, total_s and self_s.

    Self time is a span's duration minus the durations of its direct
    children; spans nest because the traced code runs on one thread.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _, error) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["errors"] += int(bool(error))
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
    return out


# --- hooks: counters at the layer boundaries --------------------------------


def _bind(sig, args, kwargs):
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_closed_form_samples(tracer, index, args, kwargs, result):
    tracer.counters[CLOSED_FORM + ".samples"] += _size(args[0]) if args else 0


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        n = 1
        for s in shape:
            n *= s
        return n
    try:
        return len(x)
    except TypeError:
        return 1


def _from_function_before(sig, tracer, args, kwargs):
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    ba.arguments["fn"] = tracer.closed_form(ba.arguments["fn"])
    ba.arguments["deriv"] = tracer.closed_form(ba.arguments.get("deriv"))
    return ba.args, ba.kwargs


def _from_function_after(sig, tracer, index, args, kwargs, result):
    tracer.counters["kernel.BoundaryData.from_function.samples"] += int(
        _bind(sig, args, kwargs)["n"])


def _resample_after(sig, tracer, index, args, kwargs, result):
    made = any(s[0] == "kernel.BoundaryData.from_function"
               for s in tracer.spans[index + 1:])
    tracer.counters["kernel.BoundaryData.resample.hits"] += int(not made)


def _nodes_after(key):
    def after(sig, tracer, index, args, kwargs, result):
        first = result[0] if isinstance(result, tuple) else result
        tracer.counters[key] += _size(first)
    return after


def _kernel_evals_after(sig, tracer, index, args, kwargs, result):
    a = _bind(sig, args, kwargs)
    F, q = a["F"], a["q"]
    nodes = q.angular_nodes if F.closed_form is not None else F.n_samples
    tracer.counters["kernel.poisson_integral.kernel_evals"] += _size(a["z"]) * nodes


def _file_bytes_after(key, arg):
    def after(sig, tracer, index, args, kwargs, result):
        tracer.counters[key] += os.path.getsize(_bind(sig, args, kwargs)[arg])
    return after


def _stream_before(sig, tracer, args, kwargs):
    # The stream position before and after the call brackets the bytes written.
    tracer.counters["derivs.write_deriv_rows.bytes"] -= _bind(sig, args, kwargs)["fh"].tell()
    return args, kwargs


def _stream_after(sig, tracer, index, args, kwargs, result):
    tracer.counters["derivs.write_deriv_rows.bytes"] += _bind(sig, args, kwargs)["fh"].tell()


def _records_after(sig, tracer, index, args, kwargs, result):
    """Count certification records where they leave the regimes layer."""
    parent = tracer.spans[index][3]
    if parent is not None and tracer.spans[parent][0].startswith("regimes."):
        return
    records = result if isinstance(result, list) else [result]
    tracer.counters["regimes.records"] += len(records)
    tracer.counters["regimes.records_holding"] += sum(bool(r.holds) for r in records)


_HOOKS = {
    "kernel.BoundaryData.from_function": (_from_function_before, _from_function_after),
    "kernel.BoundaryData.resample": (None, _resample_after),
    "kernel.circle_poisson_values": (None, _nodes_after("kernel.circle_poisson_values.nodes")),
    "derivs.circle_derivs": (None, _nodes_after("derivs.circle_derivs.nodes")),
    "kernel.poisson_integral": (None, _kernel_evals_after),
    "kernel.write_boundary_csv": (None, _file_bytes_after("kernel.write_boundary_csv.bytes", "path")),
    "derivs.write_deriv_rows": (_stream_before, _stream_after),
    "regimes.check_kernel_mean_bound": (None, _records_after),
    "regimes.check_distance_integral_bound": (None, _records_after),
    "regimes.check_angular_derivative_bound": (None, _records_after),
    "regimes.check_scaled_kernel_bound": (None, _records_after),
    "regimes.certification_grid": (None, _records_after),
}
