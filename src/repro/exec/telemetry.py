"""Run telemetry: per-point records and the end-of-sweep summary.

Every point the executor resolves — simulated, served from cache,
replayed from a resume journal, or failed — produces one
:class:`PointRecord`, streamed to the progress callback as it happens
and aggregated into the final summary dict (wall time, simulator
events processed, cache hit/miss counts, retry/timeout counts, worker
restarts, and worker utilization).

Utilization is **phase-aware**: a warm-worker run reports separate
pool *warm-up* (spawn + environment-init handshake), *steady-state*
(points still pending) and *queue-drain* (tail in flight, nothing
pending) phases, and ``worker_utilization`` divides busy
worker-seconds by the **usable capacity** only — ``workers x
steady_s`` plus the drain window weighted by the workers still busy.
Counting the whole run as capacity would blend pool-spawn and tail
dead time into steady state and under-report how busy the workers
actually were; serial runs, which have no phase split, report busy
time over the whole run.
"""

from __future__ import annotations

import dataclasses
import time
import typing

__all__ = ["PointRecord", "RunTelemetry", "phase_utilization"]

#: terminal states a point can reach
STATUSES = ("executed", "cached", "resumed", "failed")


def phase_utilization(
    busy_s: float, workers: int, steady_s: float, drain_capacity_s: float
) -> float:
    """Busy worker-seconds over usable capacity (the summary arithmetic).

    ``drain_capacity_s`` is the integral of still-busy workers over the
    drain window; warm-up contributes no capacity at all (no task can
    run before the environment handshake).  Pinned by
    ``tests/exec/test_telemetry_phases.py``.
    """
    capacity = max(1, workers) * steady_s + drain_capacity_s
    return busy_s / capacity if capacity > 0 else 0.0


@dataclasses.dataclass(frozen=True)
class PointRecord:
    """One resolved sweep point, as streamed to the progress callback."""

    index: int
    scheme: str
    load: float
    seed: int
    status: str  # one of STATUSES
    wall_time: float = 0.0
    attempts: int = 0
    sim_events: int = 0
    error: str | None = None


class RunTelemetry:
    """Aggregates :class:`PointRecord` streams into a summary dict."""

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, workers)
        self.records: list[PointRecord] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.retries = 0
        self.timeouts = 0
        #: targeted single-worker respawns (crash or wedge); the warm
        #: pool never rebuilds wholesale
        self.worker_restarts = 0
        #: worker slots retired after exhausting their restart budget
        #: (a poison point can cost restarts, never a restart storm)
        self.restart_budget_exhausted = 0
        #: corrupt journal lines skipped while loading the resume state
        self.journal_skipped_lines = 0
        #: worker-seconds actually spent executing attempts (successful
        #: or not); the executor accumulates this at completion sites
        self.busy_worker_s = 0.0
        self._phases: dict[str, float] | None = None
        self._started = time.perf_counter()
        self._finished: float | None = None

    def record(self, record: PointRecord) -> None:
        self.records.append(record)

    def set_phases(
        self,
        warmup_s: float,
        steady_s: float,
        drain_s: float,
        capacity_s: float,
    ) -> None:
        """Attach the pool run's phase split (see the module docstring).

        ``capacity_s`` is the usable-capacity integral: ``workers x
        steady_s`` plus busy-workers x drain time, excluding warm-up
        and restart dead time.
        """
        self._phases = {
            "warmup_s": warmup_s,
            "steady_s": steady_s,
            "drain_s": drain_s,
            "capacity_s": capacity_s,
        }

    def finish(self) -> None:
        self._finished = time.perf_counter()

    @property
    def elapsed(self) -> float:
        end = self._finished if self._finished is not None else time.perf_counter()
        return end - self._started

    def _count(self, status: str) -> int:
        return sum(1 for r in self.records if r.status == status)

    def summary(self) -> dict[str, typing.Any]:
        """The final run summary the CLI and benchmarks report."""
        executed = [r for r in self.records if r.status == "executed"]
        point_busy = sum(r.wall_time for r in executed)
        # busy_worker_s additionally counts failed/timed-out attempts;
        # fall back to the executed-point sum for hand-built telemetry
        busy = self.busy_worker_s if self.busy_worker_s > 0 else point_busy
        elapsed = self.elapsed
        if self._phases is not None:
            capacity = self._phases["capacity_s"]
        else:
            # serial runs and hand-built telemetry: no phase split
            capacity = self.workers * elapsed
        utilization = busy / capacity if capacity > 0 else 0.0
        return {
            "total_points": len(self.records),
            "executed": len(executed),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "resumed": self._count("resumed"),
            "failed": self._count("failed"),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_restarts": self.worker_restarts,
            "restart_budget_exhausted": self.restart_budget_exhausted,
            "journal_skipped_lines": self.journal_skipped_lines,
            "workers": self.workers,
            "wall_time": elapsed,
            "point_wall_total": point_busy,
            "point_wall_mean": point_busy / len(executed) if executed else 0.0,
            "point_wall_max": max((r.wall_time for r in executed), default=0.0),
            "sim_events": sum(r.sim_events for r in executed),
            # aggregate simulation throughput over busy worker time
            "events_per_sec": (
                sum(r.sim_events for r in executed) / point_busy
                if point_busy > 0 else 0.0
            ),
            "worker_utilization": utilization,
            "phases": dict(self._phases) if self._phases is not None else None,
        }
