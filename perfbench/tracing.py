"""Spans and counters from outside the package.

``instrumented(tracer)`` rebinds the package's public callables, in every
``semiconformal.*`` module namespace that holds them and on ``BiSeries``, to
wrappers that record a span per call, and restores the originals on exit.
The source is never edited.  ``counting(counts)`` does the same for the hot
counters (``CScalar.__init__`` and the supports of ``BiSeries.__mul__``) in a
separate pass, so that counting does not distort the traced self times.

A span is (name, layer, start, end, parent id, pipeline id, self seconds,
tag); ids are list positions in start order, so a parent precedes its
children.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter
from time import perf_counter

import semiconformal.closed_forms
import semiconformal.identities
import semiconformal.series
import semiconformal.solver
from semiconformal.scalars import CScalar
from semiconformal.series import BiSeries

# Layer -> module -> public callables that get a span.  ``scalars`` has no
# spans: CScalar operations run millions of times per pipeline, so their time
# stays in the caller's self time and the layer is measured by counters and
# microbenchmarks instead.
SERIES_METHODS = ["__add__", "__sub__", "__neg__", "__mul__", "scaled", "diff", "shift",
                  "truncate", "evaluate", "eval_complex", "to_floating", "to_json_dict",
                  "from_json_dict"]
MODULE_FUNCTIONS = {
    "solver": (semiconformal.solver, ["solve", "governing_residual", "eval_phi",
                                      "semiconformality_residual", "harmonicity_residual",
                                      "boundary_data_from_dict"]),
    "closed_forms": (semiconformal.closed_forms, ["one_param_series", "hopf_series",
                                                  "closed_q0", "closed_q1", "product_form_psi"]),
    "identities": (semiconformal.identities, ["default_suite", "check_series_coefficient_identity",
                                              "check_profile_recurrence",
                                              "check_profile_recurrence_reduced",
                                              "check_binomial_convolution",
                                              "check_odd_binomial_sum", "check_q_coefficient_sum"]),
}
# Which argument to keep as the span's tag.
TAGS = {"solver.solve": lambda args, kwargs: kwargs.get("order", args[1] if len(args) > 1 else None)}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []   # open spans: [id, seconds covered by children]
        self.pipeline = -1

    def _open(self) -> list:
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, layer, t0, t1, tag=None) -> None:
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dur
        self.spans[frame[0]] = (name, layer, t0, t1, parent[0] if parent else -1,
                                self.pipeline, dur - frame[1], tag)

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        frame = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(frame, name, layer, t0, perf_counter())

    def wrap(self, fn, name: str, layer: str):
        tag_of = TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, name, layer, t0, perf_counter(),
                            tag_of(args, kwargs) if tag_of else None)
        return traced

    def dump(self, path) -> None:
        keys = ("name", "layer", "start", "end", "parent", "pipeline", "self_s", "tag")
        with open(path, "w") as handle:
            for sid, span in enumerate(self.spans):
                handle.write(json.dumps({"id": sid, **dict(zip(keys, span))}) + "\n")


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "semiconformal" or n.startswith("semiconformal."))]


def _rebind(undo: list, orig, new) -> None:
    """Point every package-namespace name bound to ``orig`` at ``new``."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is orig:
                undo.append((module, attr, value))
                setattr(module, attr, new)


def _patch_method(undo: list, cls, name: str, make) -> None:
    orig = cls.__dict__[name]
    undo.append((cls, name, orig))
    if isinstance(orig, classmethod):
        setattr(cls, name, classmethod(make(orig.__func__)))
    else:
        setattr(cls, name, make(orig))


@contextlib.contextmanager
def _patched(apply):
    undo: list = []
    try:
        apply(undo)
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def instrumented(tracer: Tracer):
    def apply(undo):
        for name in SERIES_METHODS:
            _patch_method(undo, BiSeries, name,
                          lambda fn, name=name: tracer.wrap(fn, f"series.{name}", "series"))
        for layer, (module, names) in MODULE_FUNCTIONS.items():
            for name in names:
                orig = getattr(module, name)
                _rebind(undo, orig, tracer.wrap(orig, f"{layer}.{name}", layer))
    return _patched(apply)


def counting(counts: Counter):
    """Count CScalar constructions and the coefficient pairs BiSeries.__mul__
    visits (``mul_pairs``) and keeps (``mul_useful_pairs``: total degree
    within the truncation), from the operands' supports."""
    def count_init(init):
        def counted(self, *args, **kwargs):
            counts["cscalar_new"] += 1
            return init(self, *args, **kwargs)
        return counted

    def count_mul(mul):
        def counted(self, other):
            if isinstance(other, BiSeries):
                h1 = Counter(k + l for k, l in self.support())
                h2 = Counter(k + l for k, l in other.support())
                trunc = min(self.trunc, other.trunc)
                counts["mul_pairs"] += self.n_nonzero * other.n_nonzero
                counts["mul_useful_pairs"] += sum(n1 * n2 for d1, n1 in h1.items()
                                                  for d2, n2 in h2.items() if d1 + d2 <= trunc)
            return mul(self, other)
        return counted

    def apply(undo):
        _patch_method(undo, CScalar, "__init__", count_init)
        _patch_method(undo, BiSeries, "__mul__", count_mul)
    return _patched(apply)
