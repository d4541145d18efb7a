"""Span tracer that wraps the public functions of the heartfields modules.

Installing a :class:`Tracer` replaces every binding of each public
module-level function of the traced modules by a wrapper that records one
span per call while a recording phase is open. "Every binding" means the
defining module's attribute and every name another heartfields module bound
with ``from ... import`` (``acquisition.label_points``,
``inference.seg_inputs``, ``harness.save_checkpoint`` and the package
re-exports), so calls through any of them are seen. :meth:`Tracer.uninstall`
restores the originals.

Spans stay in memory as (layer, phase, parent, start, end, counts) and are
written out once, at the end of a run.
"""

import contextlib
import functools
import inspect
import json
import sys
import time
import types

# layer prefix = heartfields module name; anatomy's submodules share "anatomy"
LAYER_MODULES = (
    "netcore",
    "anatomy",
    "acquisition",
    "training",
    "inference",
    "metrics",
    "checkpoint",
    "harness",
)


class Span:
    __slots__ = ("layer", "phase", "parent", "start", "end", "counts")

    def __init__(self, layer, phase, parent):
        self.layer, self.phase, self.parent = layer, phase, parent
        self.start = self.end = 0.0
        self.counts = None

    @property
    def duration(self):
        return self.end - self.start


def _layer_prefix(module_name):
    parts = module_name.split(".")
    if parts[0] != "heartfields" or len(parts) < 2 or parts[1] not in LAYER_MODULES:
        return None
    return parts[1]


def public_functions():
    """{layer name: function} for the public functions the layer modules
    define (already-imported heartfields modules only)."""
    found = {}
    for mod_name, mod in sorted(sys.modules.items()):
        prefix = _layer_prefix(mod_name)
        if prefix is None or mod is None:
            continue
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == mod_name
            ):
                name = f"{prefix}.{attr}"
                if found.get(name, obj) is not obj:
                    raise ValueError(f"two functions map to layer {name}")
                found[name] = obj
    return found


class Tracer:
    """Records spans for calls into the heartfields layers.

    ``counters`` maps a layer name to ``f(arguments, result) -> dict`` giving
    the work counts for one call (``arguments`` is the bound-argument dict).
    """

    def __init__(self, counters=None):
        self.counters = dict(counters or {})
        self.spans = []
        self.phase = None  # None: wrappers pass straight through
        self._stack = []
        self._patched = []  # (module, attribute, original)

    # -------------------------------------------------------------- install

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        functions = public_functions()
        unknown = set(self.counters) - set(functions)
        if unknown:
            raise ValueError(f"counters for unknown layers: {sorted(unknown)}")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in functions.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("heartfields"):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, obj))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def recording(self, phase):
        """Record spans tagged ``phase`` for calls made inside the block."""
        if self.phase is not None:
            raise RuntimeError(f"already recording phase {self.phase!r}")
        self.phase = phase
        try:
            yield self
        finally:
            self.phase = None

    def bindings(self):
        """(module name, attribute) pairs currently patched."""
        return [(mod.__name__, attr) for mod, attr, _ in self._patched]

    def _wrap(self, layer, fn):
        counter = self.counters.get(layer)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            span = Span(layer, self.phase, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound.arguments, result)
            return result

        return traced

    # ---------------------------------------------------------------- output

    def write_spans(self, path):
        """One JSON object per span, in call order."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "layer": s.layer,
                    "phase": s.phase,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                }
                if s.counts:
                    rec["counts"] = s.counts
                f.write(json.dumps(rec) + "\n")
