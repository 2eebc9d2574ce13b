"""Span tracing from the benchmark's side, and the per-layer metrics.

The tracer changes no file of the program.  It replaces public functions in
the module namespaces where their callers look them up (``pwmix.bench.sample``,
``pwmix.cli.audit_privacy``, ``SeededStream.uniforms``, ...) with wrappers
that record a span: name, start, end, parent span and the operation it
belongs to, plus a count where the boundary has one (draws, uniforms).
Spans stay in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children; calls run on one thread, so
children nest inside their parent and do not overlap.

This module does not import pwmix at import time; ``Tracer.install`` does.
It is named spans, not trace, so that it does not shadow the standard library.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

SETUP_OP = -1

_FAMILY = {
    "GeometricMixture": "geomix",
    "LaplaceMixture": "lapmix",
    "Geometric": "geometric",
    "RoundedLaplace": "rlaplace",
    "Laplace": "laplace",
}
# Families with a per-draw metric: the audit's mechanism is the only sampler
# the workloads reach.
FAMILIES = ("geomix",)


def _draws(args, kwargs):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return 1 if size is None else int(size)


def _uniforms(args, kwargs):
    size = kwargs.get("size", args[1] if len(args) > 1 else None)
    return 1 if size is None else int(size)


def _sample_name(args, kwargs):
    return "sampling.sample." + _FAMILY.get(type(args[0]).__name__, "other")


def _targets():
    """(owner, attribute, span name or naming function, count function)."""
    from pwmix import accounting, bench, cli, sampling

    return [
        (cli, "main", "cli.main", None),
        (cli, "_random_queries", "cli.random_queries", None),
        (cli, "load_dataset", "data.load_dataset", None),
        (cli, "audit_privacy", "bench.audit_privacy", None),
        (bench, "sample", _sample_name, _draws),
        (sampling.SeededStream, "uniforms", "sampling.uniforms", _uniforms),
        (bench, "count_query", "data.count_query", None),
        (bench, "record_matches", "data.record_matches", None),
        (bench, "sweep_point", "bench.sweep_point", None),
        (bench, "zeta_closed_form", "accounting.zeta_closed_form", None),
        (accounting, "zeta_closed_form", "accounting.zeta_closed_form", None),
        (bench, "equivalent_epsilon", "accounting.equivalent_epsilon", None),
        (bench, "geomix_stats", "analytics.geomix_stats", None),
        (bench, "lapmix_stats", "analytics.lapmix_stats", None),
        (bench, "standard_stats", "analytics.standard_stats", None),
        (bench, "lapmix_cdf", "mechanisms.cdf", None),
        (bench, "laplace_cdf", "mechanisms.cdf", None),
    ]


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names: list = []
        self.parents: list = []
        self.ops: list = []
        self.starts: list = []
        self.ends: list = []
        self.counts: list = []
        self.op = SETUP_OP
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            stack = tracer._stack
            # A function that calls itself through the same wrapper (load_dataset
            # re-enters with the opened file) is one span.
            if stack and tracer.names[stack[-1]] == span:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(span)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ops.append(tracer.op)
            tracer.counts.append(count(args, kwargs) if count else 0)
            tracer.ends.append(0)
            stack.append(idx)
            tracer.starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        for owner, attr, name, count in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        """One JSON array per span: [op, id, parent, name, start_ns, end_ns, count]."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                row = [self.ops[i], i, self.parents[i], name, self.starts[i], self.ends[i], self.counts[i]]
                fh.write(json.dumps(row) + "\n")

    def totals(self, timed_ops: set) -> dict:
        """Per span name: calls, total and self nanoseconds and counts.

        Only spans of ``timed_ops`` are summed; set-up and warm-up are not.
        """
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out = defaultdict(lambda: [0, 0, 0, 0])
        for i, name in enumerate(self.names):
            if self.ops[i] in timed_ops:
                acc = out[name]
                acc[0] += 1
                acc[1] += dur[i]
                acc[2] += dur[i] - child[i]
                acc[3] += self.counts[i]
        return dict(out)


def merge_totals(parts: list) -> dict:
    """Sum the ``totals`` of several workers."""
    merged = defaultdict(lambda: [0, 0, 0, 0])
    for part in parts:
        for name, acc in part.items():
            merged[name] = [a + b for a, b in zip(merged[name], acc)]
    return merged


# Per-layer metrics: (name, unit).  Idle layers of a workload read 0.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.self_ms", "ms/op"),
    ("cli.random_queries_ms", "ms/op"),
    ("data.load_dataset_ms", "ms/call"),
    ("data.count_query_us", "us/call"),
    ("data.count_query_calls", "count/op"),
    ("data.record_matches_ms", "ms/op"),
    ("data.record_matches_calls", "count/op"),
    ("sampling.draws", "count/op"),
    ("sampling.uniforms_ns_per_draw", "ns"),
    *((f"sampling.inverse_cdf_ns_per_draw.{f}", "ns") for f in FAMILIES),
    ("bench.audit_self_ms", "ms/op"),
    ("bench.audit_groups", "count/op"),
    ("bench.sweep_point_self_us", "us/op"),
    ("mechanisms.constants_cache_hits", "count/op"),
    ("mechanisms.constants_cache_misses", "count/op"),
    ("mechanisms.cdf_ms", "ms/op"),
    ("analytics.geomix_stats_us", "us/call"),
    ("analytics.lapmix_stats_us", "us/call"),
    ("analytics.standard_stats_us", "us/call"),
    ("accounting.zeta_closed_form_us", "us/call"),
    ("accounting.equivalent_epsilon_us", "us/call"),
    ("trace.overhead_pct", "%"),
)


def per_layer_metrics(totals: dict, n_ops: int, extra: dict) -> dict:
    """The per-layer metrics from merged span totals over ``n_ops`` timed operations.

    ``extra`` carries what spans do not: cli.import_s, the constants-cache
    counters, bench.audit_groups and trace.overhead_pct.
    """
    zero = [0, 0, 0, 0]

    def get(name):
        return totals.get(name, zero)

    def per_op(ns):
        return ns / n_ops if n_ops else 0.0

    def per_call(name, scale):
        calls, total, _, _ = get(name)
        return total / scale / calls if calls else 0.0

    samples = [get(n) for n in totals if n.startswith("sampling.sample.")]
    draws = sum(s[3] for s in samples)
    _, uni_ns, _, uni_count = get("sampling.uniforms")
    m = {
        "cli.import_s": extra["cli.import_s"],
        "cli.self_ms": per_op(get("cli.main")[2] + get("cli.random_queries")[2]) / 1e6,
        "cli.random_queries_ms": per_op(get("cli.random_queries")[1]) / 1e6,
        "data.load_dataset_ms": per_call("data.load_dataset", 1e6),
        "data.count_query_us": per_call("data.count_query", 1e3),
        "data.count_query_calls": per_op(get("data.count_query")[0]),
        "data.record_matches_ms": per_op(get("data.record_matches")[1]) / 1e6,
        "data.record_matches_calls": per_op(get("data.record_matches")[0]),
        "sampling.draws": per_op(draws),
        "sampling.uniforms_ns_per_draw": uni_ns / uni_count if uni_count else 0.0,
        "bench.audit_self_ms": per_op(get("bench.audit_privacy")[2]) / 1e6,
        "bench.audit_groups": extra["bench.audit_groups"],
        "bench.sweep_point_self_us": per_op(get("bench.sweep_point")[2]) / 1e3,
        "mechanisms.constants_cache_hits": extra["mechanisms.constants_cache_hits"],
        "mechanisms.constants_cache_misses": extra["mechanisms.constants_cache_misses"],
        "mechanisms.cdf_ms": per_op(get("mechanisms.cdf")[1]) / 1e6,
        "analytics.geomix_stats_us": per_call("analytics.geomix_stats", 1e3),
        "analytics.lapmix_stats_us": per_call("analytics.lapmix_stats", 1e3),
        "analytics.standard_stats_us": per_call("analytics.standard_stats", 1e3),
        "accounting.zeta_closed_form_us": per_call("accounting.zeta_closed_form", 1e3),
        "accounting.equivalent_epsilon_us": per_call("accounting.equivalent_epsilon", 1e3),
        "trace.overhead_pct": extra["trace.overhead_pct"],
    }
    for family in FAMILIES:
        calls, _, own, n = get(f"sampling.sample.{family}")
        m[f"sampling.inverse_cdf_ns_per_draw.{family}"] = own / n if n else 0.0
    return {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER}
