"""Simulation-as-a-service: a query surface over the result cache.

This package turns the content-addressed result cache
(:mod:`repro.exec.cache`) from a batch-sweep accelerator into a
serving system:

* :class:`SurfaceIndex` / :class:`SweepSurface` — an in-memory index
  built by scanning a cache directory (entries are self-describing, so
  nothing but the cache is needed), grouping result rows into
  per-scheme grids over the sweep axes with deterministic multilinear
  interpolation between grid points and explicit extrapolation
  refusal;
* :mod:`repro.serve.queries` — typed capacity-planning queries
  (admissible-calls, delay/jitter/drop at an operating point,
  handoff-drop rate) answered from surfaces, every response carrying
  provenance: contributing cache keys, interpolated-vs-exact mode and
  the cache ``KEY_FORMAT``;
* :mod:`repro.serve.app` — a stdlib-only ``http.server`` JSON API
  (``/query``, ``/healthz``, ``/metrics``, ``/surfaces``) whose
  on-miss behaviour enqueues the missing
  :class:`~repro.network.bss.ScenarioConfig` to a warm
  :class:`~repro.exec.SweepExecutor` (202 + ``Retry-After``, bounded
  queue, single-flight dedup by cache key) so the cache back-fills
  under live traffic;
* :mod:`repro.serve.metrics` — Prometheus text-exposition (0.0.4)
  rendering of :class:`~repro.obs.registry.MetricsRegistry`
  instruments.

Serving is strictly read-side: it never changes what a cache entry
means (no ``KEY_FORMAT`` bump) and a given cache directory plus a
given query produce a byte-identical JSON response body.
"""

from .app import BackfillQueue, QueryServer, build_server
from .metrics import render_prometheus
from .queries import QUERY_KINDS, QueryResult, answer_query
from .surface import (
    CANDIDATE_AXES,
    GridPoint,
    SurfaceError,
    SurfaceIndex,
    SurfaceLookup,
    SweepSurface,
)

__all__ = [
    "CANDIDATE_AXES",
    "GridPoint",
    "SurfaceError",
    "SurfaceIndex",
    "SurfaceLookup",
    "SweepSurface",
    "QUERY_KINDS",
    "QueryResult",
    "answer_query",
    "render_prometheus",
    "BackfillQueue",
    "QueryServer",
    "build_server",
]
