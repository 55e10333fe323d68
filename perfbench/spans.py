"""Span recorder for the benchmark's traced runs.

:func:`install` wraps the public functions of each analyzer layer from the
outside, at start-up: module-level functions are replaced in every loaded
``repro`` module that holds them (so ``from x import f`` aliases are covered
too), methods on their class.  Each call records a span — name, start, end,
parent span and thread — in memory; :meth:`SpanRecorder.dump` writes the
spans and the layer counters out once, when the process ends.

:func:`self_times` and :func:`layer_metrics` turn a dump into per-layer
numbers.  A layer's self time is its spans' durations minus the part of each
interval that child spans cover.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import os
import sys
import threading
import time

#: span name -> (module, attribute path) of the wrapped callable.
TARGETS = {
    "parse_program": ("repro.lang.parser", "parse_program"),
    "analyze_program": ("repro.lang.varinfo", "analyze_program"),
    "compute_contexts": ("repro.logic.absint", "compute_contexts"),
    "constraint_system": ("repro.analysis.pipeline", "AnalysisPipeline.constraint_system"),
    "reduced_solve": ("repro.lp.reduce", "ReducedSolver.solve"),
    "highs_solve": ("repro.lp.backends.incremental", "IncrementalBackend.solve"),
    "resolve_annotation": ("repro.analysis.results", "resolve_annotation"),
    "evaluate_spec": ("repro.policy.evaluate", "evaluate_spec"),
    "best_upper_tail": ("repro.tail.bounds", "best_upper_tail"),
    "cache_get": ("repro.service.cache", "ArtifactCache.get"),
    "cache_put": ("repro.service.cache", "ArtifactCache.put"),
    "analyze_request": ("repro.service.server", "AnalysisService.analyze_request"),
    "check_request": ("repro.service.server", "AnalysisService.check_request"),
    # The root of one analysis: its self time is what no layer claims.
    "analyze": ("repro.analysis.pipeline", "AnalysisPipeline.analyze"),
}

#: per-layer busy metric -> span names whose self time it sums.
LAYERS = {
    "parse.busy_s": ("parse_program",),
    "contexts.busy_s": ("analyze_program", "compute_contexts"),
    "derive.busy_s": ("constraint_system",),
    "presolve.busy_s": ("reduced_solve",),
    "highs.busy_s": ("highs_solve",),
    "resolve.busy_s": ("resolve_annotation",),
    "check.busy_s": ("evaluate_spec", "best_upper_tail"),
    "cache.get_s": ("cache_get",),
    "cache.put_s": ("cache_put",),
}


class SpanRecorder:
    """Spans and counters of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, thread id]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.reductions: dict[int, tuple[int, int]] = {}
        self.caches: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` runs
        on return, to add counters at the same boundary."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            start = time.perf_counter()
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(
                    [name, start, None, stack[-1] if stack else -1, threading.get_ident()]
                )
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                recorder.spans[index][2] = time.perf_counter()
            if after is not None:
                after(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write spans and counters to ``path`` (only from the process that
        installed the recorder: forked workers inherit it but never dump)."""
        if os.getpid() != self._pid:
            return
        from repro.logic.entail import _entails_cached

        info = _entails_cached.cache_info()
        cache = {}
        for instance in self.caches:
            for key, value in instance.stats.snapshot().items():
                if isinstance(value, (int, float)):
                    cache[key] = cache.get(key, 0) + value
        counters = dict(self.counters)
        counters["entail.hits"] = info.hits
        counters["entail.misses"] = info.misses
        counters["presolve.cols_eliminated"] = sum(r[0] for r in self.reductions.values())
        counters["presolve.blocks"] = sum(r[1] for r in self.reductions.values())
        for key, value in cache.items():
            counters[f"cache.{key}"] = value
        spans = [s for s in self.spans if s[2] is not None]
        with open(path, "w") as handle:
            json.dump({"spans": spans, "counters": counters}, handle)


def _after(fn, hook):
    """``fn`` calling ``hook(args, result)`` on return, recording no span."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(args, result)
        return result

    return counted


def _replace(module, path: str, make) -> None:
    """Swap the callable at ``module.path`` for ``make(original)``; a
    module-level function is swapped in every loaded ``repro`` module that
    holds it (``from x import f`` aliases included)."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    replacement = make(original)
    if outer:
        setattr(owner, attr, replacement)
        return
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro"):
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, replacement)


class _PatchOnLoad(importlib.abc.MetaPathFinder):
    """Applies the pending patches of a module right after it executes, so
    tracing imports nothing the untraced process would not."""

    def __init__(self, pending: dict) -> None:
        self.pending = pending

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.pending:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        execute = spec.loader.exec_module
        patches = self.pending.pop(fullname)

        def exec_module(module):
            execute(module)
            for patch in patches:
                patch(module)

        spec.loader.exec_module = exec_module
        return spec


def install(recorder: SpanRecorder) -> None:
    """Wrap every :data:`TARGETS` callable and the counter hooks, now for
    loaded modules and on first import for the rest."""

    def derived(args, system) -> None:
        recorder.count("derive.lp_rows", system.num_constraints)
        recorder.count("derive.lp_cols", system.num_variables)

    def reduced(args, solution) -> None:
        solver = args[0]
        if solver.last_was_reduced:
            stats = solver.stats_dict(include_times=False)
            recorder.reductions[id(solver)] = (stats["eliminated_cols"], stats["components"])

    def registered(args, result) -> None:
        recorder.caches.append(args[0])

    hooks = {"reduced_solve": reduced}
    pending: dict[str, list] = {}
    for name, (module_name, path) in TARGETS.items():
        pending.setdefault(module_name, []).append(
            lambda module, name=name, path=path: _replace(
                module, path, lambda fn: recorder.wrap(name, fn, hooks.get(name))
            )
        )
    # Counters only, no span: the size of each freshly derived LP, and every
    # artifact cache, so its hit/miss counters can be summed at exit.
    pending["repro.analysis.pipeline"].append(
        lambda module: _replace(
            module, "AnalysisPipeline._derive_system", lambda fn: _after(fn, derived)
        )
    )
    pending["repro.service.cache"].append(
        lambda module: _replace(
            module, "ArtifactCache.__init__", lambda fn: _after(fn, registered)
        )
    )
    for module_name in [m for m in pending if m in sys.modules]:
        for patch in pending.pop(module_name):
            patch(sys.modules[module_name])
    sys.meta_path.insert(0, _PatchOnLoad(pending))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list) -> list[float]:
    """Self time of each span: its duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    return [
        (span[2] - span[1]) - covered(children.get(i, []), span[1], span[2])
        for i, span in enumerate(spans)
    ]


def layer_metrics(dumps: list[dict], window: "tuple[float, float] | None" = None) -> dict:
    """Per-layer busy times and counts summed over span dumps.

    ``window`` keeps only spans starting inside it (the measured phase of a
    server run).  ``analysis_s`` is the wall time of the top-level spans,
    the denominator of ``coverage`` — the share of it the layers' self
    times account for.
    """
    out = {name: 0.0 for name in LAYERS}
    calls: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    analysis = claimed = 0.0
    for dump in dumps:
        spans = dump["spans"]
        own = self_times(spans)
        for span, self_time in zip(spans, own):
            name, start, end, parent = span[0], span[1], span[2], span[3]
            if window is not None and not window[0] <= start <= window[1]:
                continue
            calls[name] = calls.get(name, 0) + 1
            durations.setdefault(name, []).append(end - start)
            if parent < 0 and name in ("analyze", "parse_program"):
                analysis += end - start
            for metric, names in LAYERS.items():
                if name in names:
                    out[metric] += self_time
                    claimed += self_time
    out["parse.calls"] = calls.get("parse_program", 0)
    out["highs.calls"] = calls.get("highs_solve", 0)
    out["check.calls"] = calls.get("evaluate_spec", 0)
    handlers = durations.get("analyze_request", []) + durations.get("check_request", [])
    out["server.requests"] = len(handlers)
    out["server.handler_total_s"] = sum(handlers)
    out["analysis_s"] = analysis
    out["coverage"] = claimed / analysis if analysis > 0 else 0.0
    return out


def sum_counters(dumps: list[dict]) -> dict[str, float]:
    total: dict[str, float] = {}
    for dump in dumps:
        for key, value in dump["counters"].items():
            total[key] = total.get(key, 0) + value
    return total
