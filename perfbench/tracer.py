"""Per-layer tracing of the alk package from outside its source.

`Tracer.install()` replaces every function defined in an alk module, and
every method of a class defined there, with a timing wrapper.  Module
attributes are patched together with every `from ... import` binding of
the same function object in other alk modules, so internal calls such as
git4's use of `mat_mul` go through the wrapper too.  Nothing under
`src/` is edited; `uninstall()` puts the originals back.

A layer is one alk module (`_fpenum_py`, the enumeration kernel, counts
as `enumeration`).  A call is a boundary call when it enters a layer
other than the innermost active one; calls inside the same layer pass
straight through, so a layer's self time is the time its boundary calls
take minus the time their child boundary calls take.  Module functions
leave one span per boundary call; class methods (the hot arithmetic such
as `NFElem.__mul__` and `QFElem.__mul__`) are only aggregated, because
they run hundreds of thousands of times per second.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

MODULES = ("intarith", "ratlinalg", "nfpoly", "numfield", "_fpenum_py",
           "enumeration", "arakelov", "boxcount", "localgeom", "git4",
           "quartics", "toralsets")
LAYER_OF = {m: ("enumeration" if m == "_fpenum_py" else m) for m in MODULES}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))
OTHER = "other"  # time inside an operation but outside every alk layer
MAX_SPANS = 200_000

# methods counted on every call, also inside their own layer:
# qualified name -> counter
COUNTED = {
    "NFElem.__mul__": "nfpoly.mul_calls",
    "NFElem.__rmul__": "nfpoly.mul_calls",
    "NFElem.apply_conj": "nfpoly.conj_calls",
    "QFElem.__mul__": "numfield.qf_mul_calls",
    "QFElem.__rmul__": "numfield.qf_mul_calls",
}
# boundary calls whose inclusive time is also reported on its own
INCLUSIVE = {
    "NFElem.__mul__": "nfpoly.mul_s",
    "NFElem.__rmul__": "nfpoly.mul_s",
    "NFElem.apply_conj": "nfpoly.conj_s",
    "make_tower": "numfield.make_tower_s",
}


def entry_type(args) -> str:
    """Tag of the scalar type a ratlinalg call works on: nf (NFElem),
    q (Fraction or int), qf (QFElem) or c (complex or mpmath)."""
    x = args[0] if args else None
    while isinstance(x, (list, tuple)) and x:
        x = x[0]
    name = type(x).__name__
    if name == "NFElem":
        return "nf"
    if name == "QFElem":
        return "qf"
    if isinstance(x, (int, Fraction)):
        return "q"
    return "c"


class Tracer:
    """Wrapper installation, the boundary stack and its accumulators."""

    def __init__(self):
        self.on = False
        self.route = ""
        self.op_id = -1
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list = []  # at most MAX_SPANS; later spans are not kept
        self._patched: list[tuple[object, str, object]] = []

    # -- operations -----------------------------------------------------

    def run_op(self, name: str, route: str, call):
        """Run one operation as the root span of its own tree."""
        self.op_id += 1
        self.route = route
        span = self._open_span()
        frame = [OTHER, (OTHER,), 0.0, span]
        self.stack.append(frame)
        self.on = True
        start = perf_counter()
        try:
            return call()
        finally:
            end = perf_counter()
            self.on = False
            self.stack.pop()
            self.self_s[OTHER] += end - start - frame[2]
            self._close_span(span, name, start, end, None)

    def _open_span(self):
        if len(self.spans) >= MAX_SPANS:
            return None
        self.spans.append(None)
        return len(self.spans) - 1

    def _close_span(self, idx, name, start, end, parent):
        if idx is not None:
            self.spans[idx] = (name, start, end, parent, self.op_id)

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str, keep_span: bool):
        tracer = self
        counter = COUNTED.get(qualname)
        incl_key = INCLUSIVE.get(qualname)
        typed = layer == "ratlinalg"
        routed = layer == "git4"
        calls_key = layer + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if counter:
                tracer.counts[counter] += 1
            stack = tracer.stack
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if typed:
                keys = (layer, f"{layer}.{entry_type(args)}")
            elif routed:
                keys = (layer, f"{layer}.{tracer.route}")
            else:
                keys = (layer,)
            parent = stack[-1][3]
            span = tracer._open_span() if keep_span else parent
            frame = [layer, keys, 0.0, span]
            tracer.counts[calls_key] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                own = dur - frame[2]
                for k in keys:
                    tracer.self_s[k] += own
                stack[-1][2] += dur
                if incl_key:
                    tracer.incl_s[incl_key] += dur
                if keep_span:
                    tracer._close_span(span, qualname, start, end, parent)

        return wrapper

    def _hook_kernel(self, fn):
        """Counts lattice points and budget overruns of the kernel."""
        tracer = self
        budget_exc = sys.modules["alk._fpenum_py"].BudgetExceeded

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            try:
                coords, norms = fn(*args, **kwargs)
            except budget_exc:
                tracer.counts["enumeration.budget_exceeded"] += 1
                raise
            tracer.counts["enumeration.points"] += len(coords)
            return coords, norms

        return counted

    def _hook_count_box(self, fn):
        """Box candidates (enumerated points) against accepted points."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            before = tracer.counts["enumeration.points"]
            count = fn(*args, **kwargs)
            tracer.counts["boxcount.candidates"] += \
                tracer.counts["enumeration.points"] - before
            tracer.counts["boxcount.accepted"] += count
            return count

        return counted

    def _hook_ideal(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.on:
                tracer.counts["numfield.ideal_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------

    def _set(self, owner, name, value):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every alk function and method."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, object] = {}
        for mod_name in MODULES:
            mod = importlib.import_module("alk." + mod_name)
            layer = LAYER_OF[mod_name]
            for name, obj in list(vars(mod).items()):
                if _own_function(obj, mod):
                    inner = obj
                    if mod_name == "_fpenum_py" and name == "enumerate_vectors":
                        inner = self._hook_kernel(obj)
                    elif mod_name == "boxcount" and name == "count_box":
                        inner = self._hook_count_box(obj)
                    w = self._wrap(inner, layer, name, keep_span=True)
                    replaced[id(obj)] = w
                    self._set(mod, name, w)
                elif (isinstance(obj, type) and obj.__module__ == mod.__name__
                      and not issubclass(obj, BaseException)):
                    self._install_class(obj, layer)
        # every `from ... import name` binding of a wrapped function
        for mod in list(sys.modules.values()):
            if not (getattr(mod, "__name__", "") or "").startswith("alk"):
                continue
            for name, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None and obj is not w:
                    self._set(mod, name, w)

    def _install_class(self, cls, layer):
        for name, attr in list(vars(cls).items()):
            qual = f"{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                fn = attr.__func__
                if _defined_in(fn, cls):
                    inner = self._hook_ideal(fn) if cls.__name__ == "FracIdeal" else fn
                    self._set(cls, name, staticmethod(self._wrap(inner, layer, qual, False)))
            elif isinstance(attr, property):
                if attr.fget is not None and _defined_in(attr.fget, cls):
                    self._set(cls, name, property(self._wrap(attr.fget, layer, qual, False)))
            elif isinstance(attr, types.FunctionType) and _defined_in(attr, cls):
                inner = self._hook_ideal(attr) if cls.__name__ == "FracIdeal" else attr
                self._set(cls, name, self._wrap(inner, layer, qual, False))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results --------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, op = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _defined_in(fn, cls) -> bool:
    mod = sys.modules[cls.__module__]
    return getattr(fn, "__code__", None) is not None and \
        fn.__code__.co_filename == mod.__file__


def _own_function(obj, mod) -> bool:
    return isinstance(obj, types.FunctionType) and \
        obj.__code__.co_filename == mod.__file__

