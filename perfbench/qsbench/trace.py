"""Tracing the program from outside.

Tracer.install() rebinds each public function of the qustat modules, in
every qustat namespace that holds it, to a wrapper that records a span.
It also wraps the `__post_init__` validation of the dataclasses (so
HermitianOperator construction is an operators span) and numpy.linalg.eigh
when qustat.apps calls it.  uninstall() puts the originals back.  No file
of the program changes.

Spans stay in memory.  The run has one thread, so the child spans of a span
never overlap, and a span's self time is its duration minus the sum of its
children's durations.  Counter hooks run inside a span of their own in the
pseudo-layer "trace", so their cost shows as tracing overhead and never as
the self time of a program layer.
"""

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("operators", "hoeffding", "ustat", "ccr", "apps", "serialize", "cli")
TRACE_LAYER = "trace"
EIGH_SPAN = "apps.eigh"


class Counters:
    """Exact counts, computed from call arguments and return values."""

    def __init__(self):
        self.counts = Counter()
        self.max_dim = 0
        self.assembly_keys = set()
        self.power_keys = set()

    def on_assemble(self, args, result):
        kernel = args["kernel"]
        dim = result.op.dim
        digest = hashlib.sha1(np.ascontiguousarray(kernel.op.entries).tobytes()).hexdigest()
        self.assembly_keys.add((digest, kernel.d, kernel.r, args["n"]))
        self.counts["ustat.assemblies"] += 1
        self.counts["ustat.dense_bytes"] += 16 * dim * dim
        self.counts["ustat.nnz"] += int(np.count_nonzero(result.op.entries))
        self.counts["ustat.entries"] += dim * dim
        self.max_dim = max(self.max_dim, dim)

    def on_poly_power(self, args, result):
        self.power_keys.add((frozenset(args["poly"].items()), args["p"]))
        self.counts["ccr.expansions"] += 1
        self.counts["ccr.poly_terms"] += len(result)

    def on_sample(self, args, result):
        self.counts["apps.limit_draws"] += int(args["draws"])

    def on_hermitian(self, args, result):
        dim = args["self"].dim
        self.counts["operators.validated_bytes"] += 16 * dim * dim

    def on_eigh(self, dim):
        self.counts["apps.eigh_dim3"] += dim ** 3

    def metrics(self):
        """{name: (value, unit)} of the counter metrics."""
        c = self.counts
        return {
            "ustat.max_dim": (self.max_dim, "count"),
            "ustat.dense_mb": (c["ustat.dense_bytes"] / 2 ** 20, "MB"),
            "ustat.assembly_reuse": (_ratio(len(self.assembly_keys), c["ustat.assemblies"]), "ratio"),
            "ustat.nnz_frac": (_ratio(c["ustat.nnz"], c["ustat.entries"]), "ratio"),
            "operators.validated_mb": (c["operators.validated_bytes"] / 2 ** 20, "MB"),
            "ccr.poly_terms": (c["ccr.poly_terms"], "count"),
            "ccr.power_reuse": (_ratio(len(self.power_keys), c["ccr.expansions"]), "ratio"),
            "apps.eigh_dim3": (c["apps.eigh_dim3"], "count"),
            "apps.limit_draws": (c["apps.limit_draws"], "count"),
            "serialize.bytes_written": (c["serialize.bytes_written"], "bytes"),
        }

    def bases(self):
        """The denominators of the ratios, reported next to them."""
        c = self.counts
        return {
            "ustat.assembly_reuse": c["ustat.assemblies"],
            "ustat.nnz_frac": c["ustat.entries"],
            "ccr.power_reuse": c["ccr.expansions"],
        }


def _ratio(num, den):
    """num / den, and 0 when nothing was counted."""
    return num / den if den else 0.0


# (layer, public name) -> Counters method run on the bound arguments and result
HOOKS = {
    ("ustat", "assemble_direct"): Counters.on_assemble,
    ("ccr", "poly_power"): Counters.on_poly_power,
    ("apps", "sample_limit_law"): Counters.on_sample,
    ("operators", "HermitianOperator"): Counters.on_hermitian,
}


class Tracer:
    """Spans and counters of one traced round; install() / uninstall() around it."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index, raised]
        self.counters = Counters()
        self._stack = []
        self._patches = []

    # -- installation --------------------------------------------------------

    def install(self):
        import qustat

        namespaces = [qustat] + [
            mod for name, mod in sorted(sys.modules.items()) if name.startswith("qustat.")
        ]
        for layer in LAYERS:
            mod = importlib.import_module("qustat." + layer)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                hook = HOOKS.get((layer, name))
                if inspect.isfunction(obj) and not hasattr(obj, "__wrapped__"):
                    wrapper = self._wrap(layer, layer + "." + name, obj, hook)
                    for ns in namespaces:
                        if vars(ns).get(name) is obj:
                            self._patch(ns, name, wrapper)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    init = vars(obj)["__post_init__"]
                    self._patch(obj, "__post_init__", self._wrap(layer, layer + "." + name, init, hook))
        self._patch(np.linalg, "eigh", self._wrap_eigh(np.linalg.eigh))
        return self

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, layer, span_name, fn, hook):
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(span_name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, raised=True)
                raise
            self._close(idx)
            if hook is not None:
                h = self._open("trace.counters", TRACE_LAYER)
                try:
                    hook(self.counters, signature.bind(*args, **kwargs).arguments, result)
                finally:
                    self._close(h)
            return result

        return wrapper

    def _wrap_eigh(self, eigh):
        @functools.wraps(eigh)
        def wrapper(a, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") != "qustat.apps":
                return eigh(a, *args, **kwargs)
            idx = self._open(EIGH_SPAN, "apps")
            try:
                result = eigh(a, *args, **kwargs)
            except BaseException:
                self._close(idx, raised=True)
                raise
            self._close(idx)
            self.counters.on_eigh(np.shape(a)[-1])
            return result

        return wrapper

    # -- spans ---------------------------------------------------------------

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, False])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx, raised=False):
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[5] = raised
        self._stack.pop()

    def summary(self):
        """Per-layer and per-function self times, calls and errors of the spans."""
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent, raised in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layer_self = Counter({layer: 0.0 for layer in LAYERS + (TRACE_LAYER,)})
        fn_self = Counter()
        calls = Counter({layer: 0 for layer in LAYERS})
        errors = Counter({layer: 0 for layer in LAYERS})
        for i, (name, layer, start, end, parent, raised) in enumerate(self.spans):
            own = end - start - covered[i]
            layer_self[layer] += own
            fn_self[name] += own
            if name == EIGH_SPAN:
                continue
            if layer != TRACE_LAYER:
                calls[layer] += 1
            # an exception leaves a layer where its parent span is in another layer
            if raised and (parent < 0 or self.spans[parent][1] != layer):
                errors[layer] += 1
        return {
            "layer_self": dict(layer_self),
            "fn_self": dict(fn_self),
            "calls": dict(calls),
            "errors": dict(errors),
        }

    def dump(self):
        """The spans as JSON-ready records, for writing out at the end of a run."""
        return [
            {"name": n, "layer": l, "start": s, "end": e, "parent": p, "raised": r}
            for n, l, s, e, p, r in self.spans
        ]
