"""Parallel experiment execution: warm-worker sweeps, caching, resume.

This package owns *how* simulation points get executed, sitting
between the scenario layer (`repro.network`) and the evaluation
harness (`repro.experiments`):

* :class:`SweepExecutor` / :class:`ExecutorConfig` — serial or
  persistent warm-worker execution with cost-aware
  longest-expected-first dispatch, per-point timeout, bounded retry
  and targeted single-worker restart;
* :class:`WorkerPool` — the spawn-once worker processes and their
  dedicated task/result pipes (:mod:`repro.exec.pool`);
* :class:`PointScheduler` / :class:`CostModel` — the pure-python
  dispatch-order model (:mod:`repro.exec.scheduler`);
* :class:`ResultCache` — content-addressed result rows under
  ``.repro-cache/`` keyed by :func:`config_key`;
* :class:`SweepJournal` — JSON-lines checkpoint of completed points,
  enabling kill-and-resume;
* :class:`RunTelemetry` / :class:`PointRecord` — per-point progress
  stream and the final summary dict.
"""

from .cache import DEFAULT_CACHE_DIR, ResultCache
from .executor import (
    ExecutorConfig,
    PointFailure,
    SweepExecutionError,
    SweepExecutor,
    default_point_fn,
)
from .hashing import KEY_FORMAT, canonical_json, config_key, jsonable, normalize_row
from .journal import SweepJournal
from .pool import WorkerPool
from .scheduler import (
    SCHEDULE_POLICIES,
    CostModel,
    PointScheduler,
    simulate_schedule,
)
from .telemetry import PointRecord, RunTelemetry, phase_utilization

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "ExecutorConfig",
    "PointFailure",
    "SweepExecutionError",
    "SweepExecutor",
    "default_point_fn",
    "KEY_FORMAT",
    "canonical_json",
    "config_key",
    "jsonable",
    "normalize_row",
    "SweepJournal",
    "WorkerPool",
    "SCHEDULE_POLICIES",
    "CostModel",
    "PointScheduler",
    "simulate_schedule",
    "PointRecord",
    "RunTelemetry",
    "phase_utilization",
]
