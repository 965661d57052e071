"""Per-layer tracing of hwcost from outside the package.

Every public function a module defines is wrapped where its callers look it
up: in its own module and in each hwcost module that imported it by name
(`cli.parse_network`, `cli.build_objective`, `bayesopt.lin_predict`, ...).
Two methods are wrapped on their class: `ConstraintSpec.predict`, because
`bayesopt` reaches `linmod.predict` only through it, and `GPState.fit`.

A wrapped call records a span (name, start, end, parent span) in memory.
Functions called more than about 10k times in one run only count calls: a
span there would cost more than the call. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types

MODULES = ("synth", "polyreg", "netgraph", "analytic", "linmod", "bayesopt",
           "objectives", "seeding", "reference", "cli")

# measured above 10k calls per run (ei_value and the constraint predictions at
# 100k-500k per search run, infer_output_shape about 12k per fit-large run)
COUNT_ONLY = frozenset({"bayesopt.ei_value", "bayesopt.ConstraintSpec.predict",
                        "linmod.predict", "netgraph.infer_output_shape"})

METHODS = (("bayesopt", "ConstraintSpec", "predict"), ("bayesopt", "GPState", "fit"))


def _fit_kind(args, kwargs) -> str:
    kind = args[2] if len(args) > 2 else kwargs["kind"]
    return f"polyreg.fit_with_metrics.{kind.value}"


# spans split by an argument the caller passes
SPAN_NAMERS = {"polyreg.fit_with_metrics": _fit_kind}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1] = start
            self.spans[index][2] = end

    def _timed(self, name: str, fn):
        namer = SPAN_NAMERS.get(name)
        wrap_result = name == "objectives.build_objective"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(namer(args, kwargs) if namer else name):
                result = fn(*args, **kwargs)
            if wrap_result:
                return self._timed("objectives.eval", result)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, name: str, fn):
        return self._counted(name, fn) if name in COUNT_ONLY else self._timed(name, fn)

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public hwcost function at each place it is looked up."""
        import importlib
        mods = {name: importlib.import_module(f"hwcost.{name}") for name in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__ and short != "cli"):
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            original = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(original, classmethod):
                self._patch(cls, meth, classmethod(self._wrap(name, original.__func__)))
            else:
                self._patch(cls, meth, self._wrap(name, original))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- aggregation -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """{name: {"calls", "s", "self_s"}} over every span and counter."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - children
        for name, calls in self.counts.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})["calls"] += calls
        return out
