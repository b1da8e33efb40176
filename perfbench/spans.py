"""Spans around gridrd's layers, for the benchmark's traced run.

The traced run replaces gridrd functions with timing wrappers where their
callers look them up: a module global (``scenarios.sample_jitter`` is found
in ``scenarios``' namespace by ``_user_jitter``) or a class attribute
(``Topology.resolve``).  gridrd itself is not modified, and the untraced run
never installs a wrapper.

Each wrapper records a span: op id, span id, parent span id, layer name,
start and end in nanoseconds, and optional counters.  Parents come from a
per-thread stack.  Spans stay in memory and are reduced to per-layer totals
at the end of each op; a layer's self time is its span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field


def _users(args, kwargs, result):
    return {"users": args[0].n_users}


def _resolve(args, kwargs, result):
    return {"hops": result.hop_count, "cache_hits": int(result.cache_hit),
            "caches_populated": len(result.caches_populated)}


def _rows_out(args, kwargs, result):
    return {"rows": len(result)}


def _rows_in(args, kwargs, result):
    return {"rows": len(args[0])}


# (module, attribute or Class.attribute, layer, counters taken from a call)
PATCHES = (
    ("gridrd.scenarios", "sample_jitter", "simkern.jitter", None),
    ("gridrd.scenarios", "mix64", "simkern.mix64", None),
    ("gridrd.harness", "mix64", "simkern.mix64", None),
    ("gridrd.simkern", "Engine.schedule", "simkern.schedule", None),
    ("gridrd.simkern", "Engine.run", "simkern.engine_run", None),
    ("gridrd", "run_scenario", "scenarios.run", _users),
    ("gridrd.harness", "run_scenario", "scenarios.run", _users),
    ("gridrd.scenarios", "_populate_finders", "scenarios.populate_finders", None),
    ("gridrd.scenarios", "build_topology", "registry.build_topology", None),
    ("gridrd.registry", "Topology.resolve", "registry.resolve", _resolve),
    ("gridrd.registry", "summary_may_satisfy", "domain.summary_may_satisfy", None),
    ("gridrd.harness", "unpaired_t_test", "stats.t_test", None),
    ("gridrd.stats", "t_quantile", "special.t_quantile", None),
    ("gridrd.stats", "t_cdf", "special.t_cdf", None),
    ("gridrd.special", "t_cdf", "special.t_cdf", None),
    ("gridrd.harness", "parse_observations", "harness.parse_observations", _rows_out),
    ("gridrd.harness", "format_observations", "harness.format_observations", _rows_in),
    ("gridrd.cli", "run_sweep", "harness.sweep", _rows_out),
    ("gridrd.cli", "main", "cli.main", None),
)


@dataclass
class Totals:
    """Per-layer sums over the ops reduced so far."""

    calls: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    # (layer, counter) -> sum; counters include ("raised", exception name)
    # and ("called", child layer) for calls made directly from the layer.
    counts: Counter = field(default_factory=Counter)

    def exact(self) -> dict:
        """Everything that must repeat exactly when the same ops run again."""
        return {"calls": dict(self.calls), "counts": dict(self.counts)}


class Tracer:
    def __init__(self) -> None:
        self.op = None
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn, counters):
        tracer, clock = self, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = clock()
                stack.pop()
                note = {("raised", type(exc).__name__): 1}
                tracer.spans.append((tracer.op, span_id, parent, layer, start, end, note))
                raise
            end = clock()
            stack.pop()
            note = counters(args, kwargs, result) if counters is not None else None
            tracer.spans.append((tracer.op, span_id, parent, layer, start, end, note))
            return result

        return traced

    def install(self) -> None:
        """Wrap every PATCHES target in the gridrd modules currently imported.

        A target that no longer exists is skipped, so a layer removed from
        gridrd reads as zero calls instead of breaking the traced run.
        """
        for module, attr, layer, counters in PATCHES:
            owner = sys.modules.get(module)
            *cls, name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            original = getattr(owner, "__dict__", {}).get(name)
            if original is None:
                continue
            setattr(owner, name, self._wrap(layer, original, counters))
            self._undo.append((owner, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def reduce(self, totals: Totals) -> None:
        """Fold the spans recorded so far into ``totals`` and drop them."""
        spans, self.spans = self.spans, []
        layer_of = {span[1]: span[3] for span in spans}
        child_ns: Counter = Counter()
        for _, _, parent, _, start, end, _ in spans:
            if parent is not None:
                child_ns[parent] += end - start
        for _, span_id, parent, layer, start, end, note in spans:
            totals.calls[layer] += 1
            totals.self_ns[layer] += end - start - child_ns[span_id]
            if parent in layer_of:
                totals.counts[(layer_of[parent], ("called", layer))] += 1
            for key, value in (note or {}).items():
                totals.counts[(layer, key)] += value


COUNT_UNIT, TIME_UNIT = "calls/op", "ms/op"


def layer_metrics(totals: Totals, ops: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, averaged per op."""
    calls, counts = totals.calls, totals.counts
    metrics: dict[str, tuple[float, str]] = {}
    for layer in ("simkern.jitter", "simkern.mix64", "simkern.schedule", "scenarios.run",
                  "registry.build_topology", "registry.resolve", "domain.summary_may_satisfy",
                  "stats.t_test", "special.t_quantile", "special.t_cdf"):
        metrics[f"{layer}.calls"] = (calls[layer] / ops, COUNT_UNIT)
    for layer in ("simkern.jitter", "simkern.mix64", "simkern.schedule", "simkern.engine_run",
                  "scenarios.run", "scenarios.populate_finders", "registry.build_topology",
                  "registry.resolve", "stats.t_test", "special.t_quantile", "special.t_cdf",
                  "harness.parse_observations", "harness.format_observations", "cli.main"):
        metrics[f"{layer}.self_ms"] = (totals.self_ns[layer] / 1e6 / ops, TIME_UNIT)
    resolves = calls["registry.resolve"]
    quantiles = calls["special.t_quantile"]
    metrics.update({
        "scenarios.users": (counts[("scenarios.run", "users")] / ops, "users/op"),
        "registry.resolve.hops": (counts[("registry.resolve", "hops")] / resolves if resolves else 0.0,
                                  "hops/call"),
        "registry.resolve.cache_hit_ratio": (
            counts[("registry.resolve", "cache_hits")] / resolves if resolves else 0.0, "ratio"),
        "registry.resolve.caches_populated": (
            counts[("registry.resolve", "caches_populated")] / ops, "entries/op"),
        "registry.resolve.notfound": (counts[("registry.resolve", ("raised", "NotFound"))] / ops,
                                      "calls/op"),
        "special.t_cdf_per_quantile": (
            counts[("special.t_quantile", ("called", "special.t_cdf"))] / quantiles if quantiles else 0.0,
            "calls/call"),
        "harness.parse_observations.rows": (counts[("harness.parse_observations", "rows")] / ops,
                                            "rows/op"),
        "harness.format_observations.rows": (counts[("harness.format_observations", "rows")] / ops,
                                             "rows/op"),
        "harness.sweep.cells": (counts[("harness.sweep", "rows")] / ops, "cells/op"),
    })
    return metrics
