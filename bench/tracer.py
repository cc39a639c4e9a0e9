"""Span tracing of hornkit's layers, installed from outside the program.

An import hook wraps the public functions of each layer module right
after the module runs, before any other hornkit module binds them with
`from .x import y`, so calls between layers are seen too.  Spans (name,
start, end, parent span, operation id) and counters are kept in memory
and written out once, when the traced process ends.

Run as a script it is a traced stand-in for `python -m hornkit.cli`:

    BENCH_TRACE_FILE=spans.json BENCH_OP=7 python3 bench/tracer.py query S --clause=x
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from importlib.abc import MetaPathFinder
from importlib.machinery import PathFinder

# the layer functions that get a span, by module
LAYERS = {
    "hornkit.cli": ("main",),
    "hornkit.recompile": ("step", "query", "check_bracket", "session_from_json",
                          "session_to_json", "init_horn"),
    "hornkit.fastpath": ("fast_update", "fast_update_pick"),
    "hornkit.hornsat": ("horn_sat", "entails", "_propagate"),
    "hornkit.formula": ("CNF.canonical", "condition", "parse_formula", "parse_clause"),
    "hornkit.semantics": ("enumerate_models", "close_masks", "envelope_from_models",
                          "cores_from_models"),
    "hornkit.change": ("update_models", "update_cnf"),
}

# counted at the boundary but given no span of their own
COUNT_ONLY = {"hornsat._propagate"}


def _count_literals(tracer, args, kwargs):
    tracer.add("hornsat.literals", sum(len(cl.codes) for cl in args[1]))


def _count_canonical(tracer, args, kwargs):
    tracer.add("formula.CNF.canonical.clauses_in", len(args[0].clauses))


def _count_pairs(tracer, args, kwargs):
    tracer.add("change.update_models.pairs", len(args[0].masks) * len(args[1].masks))


def _after_enumerate(tracer, args, result, seconds):
    tracer.add("semantics.enumerate_models.assignments", 1 << len(args[0].universe))


def _after_step(tracer, args, result, seconds):
    tracer.add("recompile.steps", 1)
    if result.log[-1].path == "fast":
        tracer.add("recompile.fast_steps", 1)
    horn_sat = sys.modules["hornkit.hornsat"].horn_sat
    with tracer.calibration():
        start = time.perf_counter()
        horn_sat(args[0].upper)
        one = time.perf_counter() - start
    if one > 0:
        tracer.ratios.append(seconds / one)


BEFORE = {
    "hornsat._propagate": _count_literals,
    "formula.CNF.canonical": _count_canonical,
    "change.update_models": _count_pairs,
}
AFTER = {
    "semantics.enumerate_models": _after_enumerate,
    "recompile.step": _after_step,
}


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self, op=0):
        self.op = op
        self.spans = []
        self.stack = []
        self.counts = {}
        self.ratios = []
        self.import_ms = None
        self.paused = False

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    @contextlib.contextmanager
    def calibration(self):
        """Work done by the tracer itself: untraced, and recorded as a span of
        its own so that it is taken out of its parent's self time."""
        self.paused = True
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.paused = False
            parent = self.stack[-1] if self.stack else -1
            self.spans.append((len(self.spans), parent, "trace.calibration", start,
                               time.perf_counter_ns(), self.op, None))

    def wrap(self, name, fn):
        tracer = self
        before = BEFORE.get(name)
        after = AFTER.get(name)
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if not tracer.paused:
                    before(tracer, args, kwargs)
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if before:
                before(tracer, args, kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(sid)
            error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans[sid] = (sid, parent, name, start, end, tracer.op, error)
            if after:
                after(tracer, args, result, (end - start) / 1e9)
            return result
        return traced

    def patch(self, module):
        layer = module.__name__.rsplit(".", 1)[1]
        for attr in LAYERS[module.__name__]:
            owner = module
            parts = attr.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            fn = getattr(owner, parts[-1])
            setattr(owner, parts[-1], self.wrap(f"{layer}.{attr}", fn))

    def install(self):
        """Wrap the layer modules as they are imported; call before hornkit."""
        if any(name in sys.modules for name in LAYERS):
            raise RuntimeError("install the tracer before hornkit is imported")
        sys.meta_path.insert(0, _Finder(self))

    def dump(self, path):
        doc = {"spans": self.spans, "counts": self.counts, "ratios": self.ratios,
               "import_ms": self.import_ms}
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(doc, fp)


class _Finder(MetaPathFinder):
    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if name not in LAYERS:
            return None
        spec = PathFinder.find_spec(name, path, target)
        if spec is None:
            return None
        run = spec.loader.exec_module
        tracer = self.tracer

        def exec_module(module):
            run(module)
            tracer.patch(module)

        spec.loader.exec_module = exec_module
        return spec


def summarize(docs):
    """Per-layer metrics from the dumps of every traced process of a run."""
    calls, total, own = {}, {}, {}
    counts, ratios, imports = {}, [], []
    canonical_in_step = 0
    for doc in docs:
        spans = doc["spans"]
        child_ns = [0] * len(spans)
        for sid, parent, name, start, end, op, error in spans:
            if parent >= 0:
                child_ns[parent] += end - start
            if name == "formula.CNF.canonical":
                while parent >= 0 and spans[parent][2] != "recompile.step":
                    parent = spans[parent][1]
                if parent >= 0:
                    canonical_in_step += end - start
        for sid, parent, name, start, end, op, error in spans:
            if name == "trace.calibration":
                continue
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + (end - start)
            own[name] = own.get(name, 0) + (end - start - child_ns[sid])
            if name == "fastpath.fast_update" and error == "NeedsSemanticFallback":
                counts["fastpath.fallbacks"] = counts.get("fastpath.fallbacks", 0) + 1
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
        ratios.extend(doc["ratios"])
        if doc["import_ms"] is not None:
            imports.append(doc["import_ms"])
    out = {}
    for module, attrs in LAYERS.items():
        layer = module.rsplit(".", 1)[1]
        for attr in attrs:
            name = f"{layer}.{attr}"
            if name in COUNT_ONLY:
                continue
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.ms"] = (total.get(name, 0) / 1e6, "ms")
            out[f"{name}.self_ms"] = (own.get(name, 0) / 1e6, "ms")
    for key in ("hornsat.literals", "formula.CNF.canonical.clauses_in",
                "semantics.enumerate_models.assignments", "change.update_models.pairs",
                "fastpath.fallbacks"):
        out[key] = (counts.get(key, 0), "count")
    steps = counts.get("recompile.steps", 0)
    out["formula.CNF.canonical.in_step_ms"] = (canonical_in_step / 1e6, "ms")
    out["recompile.fast_ratio"] = (counts.get("recompile.fast_steps", 0) / steps
                                   if steps else 0.0, "ratio")
    out["recompile.step_per_horn_sat"] = (_median(ratios), "ratio")
    out["cli.import_ms"] = (_median(imports), "ms")
    return out


def _median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def main(argv):
    tracer = Tracer(op=int(os.environ.get("BENCH_OP", "0")))
    tracer.install()
    start = time.perf_counter_ns()
    import hornkit.cli
    tracer.import_ms = (time.perf_counter_ns() - start) / 1e6
    try:
        return hornkit.cli.main(argv)
    finally:
        tracer.dump(os.environ["BENCH_TRACE_FILE"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
