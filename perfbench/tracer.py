"""Outside-in tracer for the hopfcyclic layers.

`Tracer.install()` wraps the public functions of the eight layer modules
and the public methods (plus the `LinMap` operator dunders) of their
classes.  It changes nothing under `src/`: each wrapped function is rebound
in every loaded `hopfcyclic` module that imported it, and in module-level
dicts that hold it (such as a dispatch table), and methods are replaced on
the class.  `uninstall()` puts every original back.

Spans stay in memory as lists [name, start, end, parent, attrs] and are
written out by `write()` once the run is over.  A span's self time is its
duration minus the durations of its direct children; the benchmark's own
root span takes whatever no layer span covers, so all self times add up to
the traced wall time.

A name that a later version of the program deletes is simply not wrapped;
`layers.py` counts it as absent and its metrics read 0.
"""

import importlib
import inspect
import json
import sys
import time

LAYERS = ("exactlin", "algcore", "hopfalgebroid", "measuring", "cyclichom",
          "lierinehart", "operadcyc", "scenario")

# Scalar arithmetic and trivial accessors run millions of times per
# operation; wrapping them would cost more than the work they do, so their
# time stays in the self time of the calling layer function.
_SKIP_CLASSES = ("FieldSpec", "Space")
_DUNDERS = ("__init__", "__matmul__", "__add__", "__sub__", "__eq__")


# Span name -> function(args, result) giving the span's counters.
_ATTRS = {
    "exactlin.permute_factors": lambda a, r: {"entries": len(r.entries)},
    "exactlin.LinMap.tensor": lambda a, r: {"nnz": len(r.entries)},
    "exactlin.descend": lambda a, r: {
        "lift_cols": a[0].dom.dim, "src_ambient": a[1].ambient.dim,
        "src_quotient": a[1].quotient.dim},
    "exactlin.rref": lambda a, r: {"cells": a[0].cod.dim * a[0].dom.dim,
                                   "char": a[0].field.char},
    "exactlin.solve": lambda a, r: {"char": a[0].field.char},
    "exactlin.kernel": lambda a, r: {"char": a[0].field.char},
    "exactlin.invert": lambda a, r: {"char": a[0].field.char},
    "exactlin.quotient_by": lambda a, r: {"char": a[1].field.char},
    "hopfalgebroid.LeftBialgebroidData.ltower": lambda a, r: {
        "ambient": r.ambient.dim, "quotient": r.quotient.dim},
    "hopfalgebroid.LeftBialgebroidData.rtower": lambda a, r: {
        "ambient": r.ambient.dim, "quotient": r.quotient.dim},
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.wrapped = set()
        self._stack = []
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        attrs_of = _ATTRS.get(name)

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_of is not None:
                try:
                    span[4] = attrs_of(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        self.wrapped.add(name)
        return wrapper

    def call(self, name, fn, *args):
        """fn(*args) inside a span of the benchmark's own code."""
        return self._wrap(name, fn)(*args)

    # -- installation --------------------------------------------------------

    def install(self):
        replace = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module("hopfcyclic." + layer)
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = (obj, self._wrap(
                        "%s.%s" % (layer, attr), obj))
                elif inspect.isclass(obj) and attr not in _SKIP_CLASSES \
                        and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "hopfcyclic" and \
                    not modname.startswith("hopfcyclic."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((setattr, mod, attr, val))
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        hit = replace.get(id(item))
                        if hit is not None and hit[0] is item:
                            val[key] = hit[1]
                            self._undo.append(
                                (dict.__setitem__, val, key, item))

    def _wrap_class(self, layer, cls):
        for mname, raw in list(vars(cls).items()):
            if mname.startswith("_") and mname not in _DUNDERS:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, mname)
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:
                continue
            setattr(cls, mname, new)
            self._undo.append((setattr, cls, mname, raw))

    def uninstall(self):
        for fn, target, key, original in reversed(self._undo):
            fn(target, key, original)
        self._undo = []

    # -- output --------------------------------------------------------------

    def self_times(self):
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
