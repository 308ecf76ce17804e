"""Layer tracing from outside the program.

install() wraps the public functions and classes of each twosheet module in
place, rebinds the names other modules imported with `from ... import`, and
routes the JSON and jsonschema calls of the CLI through proxies.  While a
request is open, a call that crosses from one layer into another records a
span (start, end, parent span, request id, function); a call inside the
same layer only adds to its function's count and inclusive time.
numpy.linalg.svd and eigvalsh calls are counted against the innermost open
layer.  Spans stay in memory in flat arrays until save() or spans() writes
or returns them at the end of a run.

A layer's self time is its spans' durations minus the time covered by
their child spans, so the self times of all layers partition the time of
the requests' root spans.
"""

import importlib
import inspect
import sys
import time
import types
from array import array

MODULES = ("cli", "schemas", "finite_triple", "distance", "causality", "dispersion",
           "fluctuation", "clifford")
ROOT = "bench"
LINALG = ("svd", "eigvalsh")


class Tracer:
    def __init__(self):
        self.layers = [ROOT]
        self.func_names = []
        self.func_layer = []
        self.func_calls = []
        self.func_ns = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.func = array("i")
        self.linalg = {}
        self._stack = []
        self._request = -1
        self._wrapped = {}
        self._root_func = self._register(ROOT, "request")

    # --- registration ------------------------------------------------------

    def _layer(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def _register(self, layer: str, name: str) -> int:
        self.func_names.append(name)
        self.func_layer.append(self._layer(layer))
        self.func_calls.append(0)
        self.func_ns.append(0)
        return len(self.func_names) - 1

    def wrap(self, fn, layer: str, name: str):
        """fn wrapped so that its calls are counted, timed and, across layers, spanned."""
        if fn in self._wrapped:
            return self._wrapped[fn]
        fid = self._register(layer, name)
        lid = self.func_layer[fid]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if self._request < 0:
                return fn(*args, **kwargs)
            top_span, top_layer = self._stack[-1]
            t0 = clock()
            if top_layer == lid:
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.func_calls[fid] += 1
                    self.func_ns[fid] += clock() - t0
            idx = self._open(fid, top_span, t0)
            self._stack.append((idx, lid))
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.end[idx] = t1
                self.func_calls[fid] += 1
                self.func_ns[fid] += t1 - t0

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        self._wrapped[fn] = traced
        self._wrapped[traced] = traced
        return traced

    def _open(self, fid: int, parent: int, t0: int) -> int:
        self.start.append(t0)
        self.end.append(t0)
        self.parent.append(parent)
        self.request.append(self._request)
        self.func.append(fid)
        return len(self.start) - 1

    # --- requests ----------------------------------------------------------

    def begin(self, request_id: int):
        self._request = request_id
        idx = self._open(self._root_func, -1, time.perf_counter_ns())
        self._stack = [(idx, 0)]

    def finish(self):
        idx, _ = self._stack[0]
        self.end[idx] = time.perf_counter_ns()
        self.func_calls[self._root_func] += 1
        self.func_ns[self._root_func] += self.end[idx] - self.start[idx]
        self._stack = []
        self._request = -1

    def _count_linalg(self, name: str, fn):
        def counted(*args, **kwargs):
            if self._request >= 0:
                key = (self.layers[self._stack[-1][1]], name)
                self.linalg[key] = self.linalg.get(key, 0) + 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    # --- installation ------------------------------------------------------

    def install(self, package: str = "twosheet"):
        """Wrap the layers of package; returns its imported modules by layer."""
        mods = {name: importlib.import_module(f"{package}.{name}") for name in MODULES}
        for layer, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    setattr(mod, attr, self.wrap(value, layer, f"{layer}.{attr}"))
                elif inspect.isclass(value) and not issubclass(value, (BaseException,)) \
                        and not hasattr(value, "__members__"):
                    self._wrap_class(value, layer)
        originals = {fn: w for fn, w in self._wrapped.items() if fn is not w}
        for mod in [sys.modules[package], *mods.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in originals:
                    setattr(mod, attr, originals[value])
        cli = mods["cli"]
        if hasattr(cli, "json"):
            cli.json = self._proxy(cli.json, "cli.json", ("load", "loads", "dumps"))
        if hasattr(cli, "jsonschema"):
            cli.jsonschema = self._proxy(cli.jsonschema, "schemas", ("validate",))
        linalg = sys.modules["numpy"].linalg
        for name in LINALG:
            setattr(linalg, name, self._count_linalg(name, getattr(linalg, name)))
        return mods

    def _wrap_class(self, cls, layer: str):
        for attr, value in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr == "__init__" and inspect.isfunction(value):
                setattr(cls, attr, self.wrap(value, layer, name))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(value):
                setattr(cls, attr, self.wrap(value, layer, name))
            elif isinstance(value, classmethod):
                setattr(cls, attr, classmethod(self.wrap(value.__func__, layer, name)))
            elif isinstance(value, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(value.__func__, layer, name)))

    def _proxy(self, module, layer: str, names):
        proxy = types.ModuleType(module.__name__)
        proxy.__dict__.update({k: v for k, v in vars(module).items() if not k.startswith("__")})
        for name in names:
            if hasattr(module, name):
                setattr(proxy, name, self.wrap(getattr(module, name), layer, f"{layer}.{name}"))
        return proxy

    # --- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self time, per-function calls and time, linalg counts."""
        import numpy as np  # not at module level: the traced child imports this first
        start, end, parent, func = (np.frombuffer(getattr(self, a), getattr(self, a).typecode)
                                    .astype(np.int64) for a in ("start", "end", "parent", "func"))
        layer = np.asarray(self.func_layer, dtype=np.int64)[func]
        dur = end - start
        nested = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[nested], dur[nested])
        # A span counts towards its layer's inclusive time unless an ancestor
        # span belongs to the same layer.
        outermost = np.ones(dur.size, dtype=bool)
        up = parent.copy()
        while np.any(up >= 0):
            live = up >= 0
            outermost[live] &= layer[up[live]] != layer[live]
            up[live] = parent[up[live]]
        count = len(self.layers)
        self_ns = np.bincount(layer, weights=dur - child, minlength=count)
        incl_ns = np.bincount(layer[outermost], weights=dur[outermost], minlength=count)
        return {
            "requests": self.func_calls[self._root_func],
            "root_ns": int(dur[~nested].sum()),
            "self_ns": {name: int(self_ns[i]) for i, name in enumerate(self.layers)},
            "incl_ns": {name: int(incl_ns[i]) for i, name in enumerate(self.layers)},
            "functions": {self.func_names[f]: [self.func_calls[f], self.func_ns[f]]
                          for f in range(len(self.func_names)) if self.func_calls[f]},
            "linalg": {f"{layer}.{op}": c for (layer, op), c in self.linalg.items()},
            "spans": int(dur.size),
        }

    def spans(self) -> dict:
        """The spans and the function table as JSON-ready lists."""
        return {
            "layers": self.layers, "functions": self.func_names,
            "function_layer": self.func_layer,
            "spans": {name: getattr(self, name).tolist()
                      for name in ("start", "end", "parent", "request", "func")},
        }

    def save(self, path):
        """Write the spans and the function table as a compressed .npz file."""
        import numpy as np
        np.savez_compressed(
            path, layers=np.array(self.layers), functions=np.array(self.func_names),
            function_layer=np.array(self.func_layer),
            **{name: np.frombuffer(getattr(self, name), dtype=getattr(self, name).typecode)
               for name in ("start", "end", "parent", "request", "func")})
