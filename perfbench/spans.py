"""Spans and counters around folindex's public functions, from outside.

`Tracer.install()` replaces each traced function in every `folindex.*`
namespace that binds it (and `sympy.resultant` / `Poly.resultant`) with a
wrapper that records a span: name, start, end, parent span and the item
being run.  Spans stay in memory; `write()` dumps them as JSON lines once
the run is over.  A layer's self time is the total duration of its spans
minus the part covered by their child spans, so the self times of all
spans plus the benchmark's own time add up to the traced wall time.

Only the outermost sympy resultant call is a span: sympy's `resultant`
calls `Poly.resultant` internally, and that inner call is sympy's own work.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs that get a span.  Indices, pencil, scenes,
# report and germs are traced whole (every public function or method) and
# reported per module; the rest are reported per function.
TRACED_FUNCTIONS = {
    "exact": ("unit_lower_inverse", "matmul", "det"),
    "blowup": ("neg_inverse", "build_intersection"),
    "divisors": ("enumerate_balanced",),
    "verify": ("verify_battery",),
    "oracle": ("oracle_milnor", "oracle_intersection", "oracle_mu_pair",
               "bifurcation_candidates"),
    "resolve": ("derive_resolution",),
    "algfield": ("extend",),
    "cli": ("main",),
}
WHOLE_MODULES = ("indices", "pencil", "scenes", "germs")
TRACED_METHODS = {"report": ("Report", "ReportEntry"), "germs": ("Germ",)}
GENERATORS = {"divisors.enumerate_balanced"}

PER_FUNCTION = [f"{m}.{f}" for m, fs in TRACED_FUNCTIONS.items() for f in fs]
PER_MODULE = ("indices", "pencil", "scenes", "report", "germs")


class Tracer:
    """In-memory span recorder; one per worker process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, item, failed]
        self.stack = []
        self.item = None
        self.counters = Counter()
        self.max_degree = 0
        self._in_resultant = False
        self._in_vote = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.item, False])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index, failed=False):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = failed
        self.stack.pop()

    def reset(self):
        """Forget everything recorded so far (used after the warm-up)."""
        self.spans.clear()
        self.counters.clear()
        self.max_degree = 0

    def _span_wrapper(self, name, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(index, failed=True)
                raise
            tracer._close(index)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _generator_wrapper(self, name, fn):
        """Each resumption of the generator is one span of the same name."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[name + ".calls"] += 1
            gen = fn(*args, **kwargs)
            while True:
                index = tracer._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._close(index)
                    return
                except BaseException:
                    tracer._close(index, failed=True)
                    raise
                tracer._close(index)
                tracer.counters["divisors.yielded"] += 1
                yield item
        return wrapper

    def _resultant_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_resultant:
                return fn(*args, **kwargs)
            tracer._in_resultant = True
            if tracer._in_vote:
                tracer.counters["oracle.vote_resultants"] += 1
            index = tracer._open("sympy.resultant")
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                tracer._close(index, failed)
                tracer._in_resultant = False
        return wrapper

    def _vote_wrapper(self, fn):
        """Counts shear-vote answers of oracle._intersection; no span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._in_vote += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._in_vote -= 1
            tracer.counters["oracle.vote_answers"] += 1
            return result
        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper):
        """Point every folindex.* name bound to `original` at `wrapper`."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "folindex"
                                      or modname.startswith("folindex.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def _set(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        import importlib
        import sympy
        from sympy import Poly

        modules = {name: importlib.import_module(f"folindex.{name}")
                   for name in ("exact", "blowup", "indices", "divisors",
                                "verify", "pencil", "oracle", "germs",
                                "algfield", "resolve", "scenes", "report",
                                "cli")}
        algfield = modules["algfield"]
        field_degree = algfield.field_degree

        def on_extend(result):
            self.max_degree = max(self.max_degree, field_degree(result[1]))

        def on_battery(result):
            self.counters["verify.programs"] += result["programs"]

        def on_resolution(result):
            self.counters["resolve.components"] += result.program.n

        hooks = {"algfield.extend": on_extend,
                 "verify.verify_battery": on_battery,
                 "resolve.derive_resolution": on_resolution}

        targets = [(m, f) for m, fs in TRACED_FUNCTIONS.items() for f in fs]
        for m in WHOLE_MODULES:
            module = modules[m]
            targets += [(m, name) for name, value in vars(module).items()
                        if inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__ == module.__name__]
        for m, f in targets:
            name = f"{m}.{f}"
            original = getattr(modules[m], f)
            if name in GENERATORS:
                wrapper = self._generator_wrapper(name, original)
            else:
                wrapper = self._span_wrapper(name, original, hooks.get(name))
            self._rebind(original, wrapper)

        for m, classes in TRACED_METHODS.items():
            for cls_name in classes:
                cls = getattr(modules[m], cls_name)
                for attr, value in list(vars(cls).items()):
                    if inspect.isfunction(value) and (not attr.startswith("_")
                                                      or attr == "__init__"):
                        self._set(cls, attr, self._span_wrapper(
                            f"{m}.{cls_name}.{attr}", value))

        oracle = modules["oracle"]
        self._set(oracle, "_intersection",
                  self._vote_wrapper(oracle._intersection))
        self._set(sympy, "resultant", self._resultant_wrapper(sympy.resultant))
        self._set(Poly, "resultant", self._resultant_wrapper(Poly.resultant))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per-span-name call counts and self times in milliseconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_ms = Counter(), defaultdict(float)
        root_ms = 0.0
        failures = 0
        for i, (name, start, end, parent, _, failed) in enumerate(self.spans):
            if name not in GENERATORS:
                calls[name] += 1
            self_ms[name] += (end - start - child[i]) * 1000
            if parent < 0:
                root_ms += (end - start) * 1000
            if failed and name.startswith("oracle.") and (
                    parent < 0 or not self.spans[parent][0].startswith("oracle.")):
                failures += 1
        for name in GENERATORS:
            calls[name] = self.counters[name + ".calls"]
        return calls, self_ms, root_ms, failures

    def write(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, item, failed in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "item": item, "failed": failed}) + "\n")
