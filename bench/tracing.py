"""Spans around calls into the program's layers, recorded from outside it.

install() replaces each traced function by a wrapper in every bihomlie
module that binds it (so `from .exactlin import invert` in another module is
wrapped too) and wraps two methods on their class. Spans are kept in memory
as [name, start, end, parent, op, extra] and written out when the pass ends;
summarize() turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import os
import sys
import time

FUNCTIONS = {
    "exactlin": ("kernel", "rank", "invert", "det", "char_poly", "rational_roots"),
    "analysis": ("enveloping_dim", "killing_form", "decompose_semisimple", "is_simple"),
    "algebra": ("check_all", "is_lie_algebra", "conjugate_algebra"),
    "twist": ("induce_lie", "yau_twist"),
    "classify3": ("classify3", "alpha_profile", "bihom_isomorphic3", "find_sl2_triple"),
    "fileio": ("load", "save"),
}
METHODS = {"exactlin.matmul": ("exactlin", "MatrixQ", "__mul__"),
           "exactlin.span_add": ("exactlin", "SpanBuilder", "add")}
LAYERS = tuple(FUNCTIONS) + ("cli",)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1

    def wrap(self, name, fn, extra=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, out)
            return out
        return traced

    def install(self):
        pkg = {k[len("bihomlie."):]: m for k, m in sys.modules.items()
               if k.startswith("bihomlie.")}
        extras = {"fileio.load": lambda args, out: os.path.getsize(args[0]),
                  "fileio.save": lambda args, out: os.path.getsize(args[1]),
                  "exactlin.span_add": lambda args, out: bool(out)}
        for module, names in FUNCTIONS.items():
            for fname in names:
                original = getattr(pkg[module], fname)
                full = f"{module}.{fname}"
                wrapper = self.wrap(full, original, extras.get(full))
                for mod in pkg.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        for full, (module, cls, meth) in METHODS.items():
            klass = getattr(pkg[module], cls)
            setattr(klass, meth, self.wrap(full, getattr(klass, meth), extras.get(full)))


def summarize(spans, op_times, op_scale):
    """Per-layer metrics of one traced pass. op_times are the traced
    operation times; cli self time is the part of them outside every span.
    Every time of operation i is multiplied by op_scale[i], so that the
    layer times are in the same scaled seconds as the end-to-end metrics."""
    calls, incl, self_s, extra = {}, {}, {}, {}
    dur = [(end - start) * op_scale[op] for _n, start, end, _p, op, _x in spans]
    child = [0.0] * len(spans)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[idx]
    under = {}   # names of the enclosing spans, by span index
    for idx, (name, _start, _end, parent, _op, x) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur[idx]
        self_s[name] = self_s.get(name, 0.0) + dur[idx] - child[idx]
        anc = under[idx] = under[parent] + (spans[parent][0],) if parent >= 0 else ()
        if name == "exactlin.span_add" and "analysis.enveloping_dim" in anc:
            extra["span_add.calls"] = extra.get("span_add.calls", 0) + 1
            extra["span_add.accepted"] = extra.get("span_add.accepted", 0) + int(x)
        if name == "exactlin.char_poly" and "classify3.find_sl2_triple" in anc:
            extra["candidates"] = extra.get("candidates", 0) + 1
        if name.startswith("fileio."):
            extra[name + ".bytes"] = extra.get(name + ".bytes", 0) + x
    top = sum(d for d, span in zip(dur, spans) if span[3] < 0)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        layer_self[name.split(".")[0]] += value
    layer_self["cli"] = sum(t * k for t, k in zip(op_times, op_scale)) - top
    n_ops = len(op_times)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def fn(name):
        return calls.get(name, 0), incl.get(name, 0.0), self_s.get(name, 0.0)

    for f in ("matmul",) + FUNCTIONS["exactlin"]:
        c, _s, sf = fn(f"exactlin.{f}")
        put(f"exactlin.{f}.calls", c, "count")
        put(f"exactlin.{f}.self_s", sf, "s")
    put("exactlin.span_add.calls", extra.get("span_add.calls", 0), "count")
    put("exactlin.span_add.accepted", extra.get("span_add.accepted", 0), "count")
    for f in FUNCTIONS["analysis"]:
        c, s, sf = fn(f"analysis.{f}")
        put(f"analysis.{f}.calls", c, "count")
        put(f"analysis.{f}.s", s, "s")
        put(f"analysis.{f}.self_s", sf, "s")
    for f in FUNCTIONS["algebra"]:
        c, s, _sf = fn(f"algebra.{f}")
        put(f"algebra.{f}.calls_per_op", c / n_ops, "count/op")
        put(f"algebra.{f}.s", s, "s")
    for f in FUNCTIONS["twist"]:
        c, s, _sf = fn(f"twist.{f}")
        put(f"twist.{f}.calls", c, "count")
        put(f"twist.{f}.s", s, "s")
    for f in FUNCTIONS["classify3"]:
        put(f"classify3.{f}.s", fn(f"classify3.{f}")[1], "s")
    put("classify3.find_sl2_triple.candidates", extra.get("candidates", 0), "count")
    for f in FUNCTIONS["fileio"]:
        put(f"fileio.{f}.s", fn(f"fileio.{f}")[1], "s")
        put(f"fileio.{f}.bytes", extra.get(f"fileio.{f}.bytes", 0), "bytes")
    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self[layer], "s")
    return m
