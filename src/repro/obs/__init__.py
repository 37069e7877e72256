"""Observability: structured tracing and the metrics registry.

This package is the run-time visibility layer of the reproduction —
the substrate the exec, validate and faults subsystems report through,
and the thing a perf PR measures against:

* :class:`TraceRecorder` / :class:`TraceConfig` — a ring-buffered,
  category-filtered structured event trace (frame TX, backoff draws,
  CFP poll cycles, token grants/misses, admission decisions, fault
  injections).  Off by default; every instrumentation point in the
  simulation stack is guarded by a single ``is None`` check, so a
  trace-free run pays one attribute load per site.  Deterministic
  JSONL export: a fixed seed produces byte-identical traces.
* :class:`MetricsRegistry` — pure-Python counters, gauges and
  fixed-bucket histograms with optional labels (per-station,
  per-priority, per-BSS) and periodic sim-clock snapshotting.  The
  MAC, AP, metrics collector and result cache hold its counters
  directly (``counter.inc()`` to write, ``.value`` to read).
* :func:`render_timeline` / :func:`render_category_counts` — the text
  reports ``python -m repro trace`` prints over a recorded trace.

Where the time went is answered with stdlib :mod:`cProfile`, not a
profiler of this package's own: ``python -m repro trace`` prints a
profile of its run, and ``perfbench`` attributes self-time to layers.

Layering: ``repro.obs`` sits *below* the domain packages (sim, mac,
core, network import it), so it must not import any of them at module
level.
"""

from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .report import render_category_counts, render_timeline
from .trace import (
    CATEGORIES,
    TraceConfig,
    TraceRecorder,
    TraceSchemaError,
    validate_trace_file,
    validate_trace_line,
)

__all__ = [
    "CATEGORIES",
    "TraceConfig",
    "TraceRecorder",
    "TraceSchemaError",
    "validate_trace_file",
    "validate_trace_line",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_category_counts",
    "render_timeline",
]
