"""Per-layer tracing of the superh package, installed from outside the package.

The layers are the package modules.  `Tracer.install()` wraps every public
function and every public method (plus the arithmetic dunders) defined in a
layer, and rebinds each wrapped function in every superh module that holds it
under some name: the modules import one another's functions by name, so
patching only the defining module would miss most calls.

A wrapper always counts its call.  It times a span only when the call crosses
from one layer into another (or from the benchmark into the package); a span's
time is charged to the called layer minus the time of the spans nested in it,
so the layers' self times add up to the time spent inside the package.
A function that returns a generator is charged only for creating it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

LAYERS = ("superalgebra", "diffops", "linalg", "harmonic", "integration",
          "modules", "checks", "cli")
TRACED_DUNDERS = frozenset({"__add__", "__radd__", "__sub__", "__neg__", "__mul__",
                            "__rmul__", "__pow__", "__truediv__", "__call__"})
HARNESS = -1


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or (
        callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__"))


class Tracer:
    """Call counts and per-layer self time for one process."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.entries: dict[str, int] = {}      # calls that crossed into the layer
        self.truthy: dict[str, int] = {}       # calls that returned a true value
        self.self_s = [0.0] * len(LAYERS)
        self._stack = [[HARNESS, 0.0]]         # [layer, time of nested spans]
        self._undo: list[tuple[object, str, object]] = []
        self._miss_base: dict[str, int] = {}
        self.operator_applies: list[str] = []

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, layer: int, key: str):
        calls, entries, stack, self_s = self.calls, self.entries, self._stack, self.self_s
        clock = time.perf_counter
        calls[key] = 0
        entries[key] = 0
        call = fn
        if key == "linalg.Echelon.add":
            call = self._count_true(fn, key)
        elif key == "linalg.certified_full_rank":
            call = self._count_reaching(fn, key, "linalg.rank_of_vectors")

        def traced(*args, **kwargs):
            calls[key] += 1
            if stack[-1][0] == layer:
                return call(*args, **kwargs)
            entries[key] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return call(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                stack[-1][1] += elapsed

        functools.update_wrapper(traced, fn)
        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def _count_true(self, fn, key: str):
        """Count the calls of `fn` that return a true value."""
        truthy = self.truthy
        truthy[key] = 0

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result:
                truthy[key] += 1
            return result
        return counted

    def _count_reaching(self, fn, key: str, inner: str):
        """Count the calls of `fn` during which `inner` was called."""
        calls, truthy = self.calls, self.truthy
        truthy[key] = 0

        def counted(*args, **kwargs):
            before = calls[inner]
            try:
                return fn(*args, **kwargs)
            finally:
                if calls[inner] != before:
                    truthy[key] += 1
        return counted

    def install(self) -> "Tracer":
        modules = [importlib.import_module(f"superh.{name}") for name in LAYERS]
        diffops = modules[LAYERS.index("diffops")]
        replaced: dict[int, object] = {}
        for layer, mod in enumerate(modules):
            prefix = LAYERS[layer]
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer, prefix, diffops.LinearOperator)
                elif (_is_function(obj) and obj.__module__ == mod.__name__
                      and not name.startswith("_")):
                    if hasattr(obj, "cache_info"):
                        self._miss_base[name] = obj.cache_info().misses
                    replaced[id(obj)] = self._wrap(obj, layer, f"{prefix}.{name}")
        for modname, mod in list(sys.modules.items()):
            if modname != "superh" and not modname.startswith("superh."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        return self

    def _wrap_class(self, cls, layer: int, prefix: str, operator_base) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            kind = type(member) if isinstance(member, (staticmethod, classmethod)) else None
            fn = member.__func__ if kind else member
            if not isinstance(fn, types.FunctionType) or fn.__module__ != cls.__module__:
                continue
            key = f"{prefix}.{cls.__name__}.{attr}"
            wrapped = self._wrap(fn, layer, key)
            if attr == "apply" and issubclass(cls, operator_base):
                self.operator_applies.append(key)
            self._undo.append((cls, attr, member))
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def cache_misses(self, module: str, name: str) -> int:
        fn = getattr(importlib.import_module(f"superh.{module}"), name)
        return fn.cache_info().misses - self._miss_base.get(name, 0)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json, from this tracer's counts."""
        c, t = self.calls, self.truthy
        poly = "superalgebra.SuperPolynomial."
        adds = c["linalg.Echelon.add"]
        certified = c["linalg.certified_full_rank"]
        out = {f"{layer}.self_s": self.self_s[i] for i, layer in enumerate(LAYERS)}
        out.update({
            "superalgebra.mul_calls": c[poly + "__mul__"] + c[poly + "__rmul__"],
            "superalgebra.add_calls": c[poly + "__add__"],
            "superalgebra.scaled_calls": c[poly + "scaled"],
            "superalgebra.deriv_calls": c[poly + "dx"] + c[poly + "dxg"],
            "diffops.roots": sum(self.entries[k] for k in self.operator_applies),
            "diffops.nodes": sum(c[k] for k in self.operator_applies),
            "linalg.echelon_adds": adds,
            "linalg.echelon_add_useful": t["linalg.Echelon.add"] / adds if adds else 0.0,
            "linalg.modp_ranks": c["linalg.rank_modp"],
            "linalg.exact_fallback_ratio":
                t["linalg.certified_full_rank"] / certified if certified else 0.0,
            "modules.closures": c["modules.submodule_closure"],
            "modules.generator_applies": c["modules.RepSpace.apply_generator"],
            "modules.irreducibility_calls": c["modules.is_irreducible"],
            "harmonic.kernels": self.cache_misses("harmonic", "harmonic_basis"),
            "harmonic.projector_applies": c["harmonic.ProjectionOperator.apply"],
            "integration.pizzetti_calls": c["integration.pizzetti"],
            "integration.phi_calls": c["integration.supersphere_integral_phi"],
        })
        return out
