"""Cost-aware point scheduling: longest-expected-first, refined online.

The warm-worker pool (:mod:`repro.exec.pool`) dispatches one point per
idle worker, so the only scheduling decision is *which pending point
starts next*.  Dispatching longest-expected-first (LPT order) keeps a
long point from being picked up last and straggling the whole sweep's
tail.

Everything here is a pure-python model — no processes — so the same
:class:`PointScheduler` object both drives the live pool and is
property-tested in isolation (``tests/exec/test_scheduler.py``) via
:func:`simulate_schedule`, a deterministic list-scheduling simulator.

Cost estimates start from a prior (load x duration: a point's wall
time scales with its simulated horizon and its offered load, plus a
per-scheduled-handoff term for ESS cell shards) and are refined online
from completed-point wall times: a per-scheme EWMA of observed-wall /
prior ratios, so cross-scheme cost differences are learned mid-sweep
and reorder the still-pending tail.

Scheduler invariants (the property tests pin both):

* **greedy dispatch** — no worker sits idle while the queue is
  non-empty (list scheduling: whichever worker frees first takes the
  scheduler's next point immediately);
* **LPT tail bound** — the simulated makespan never exceeds Graham's
  ``(4/3 - 1/(3m)) x OPT`` guarantee, nor the greedy bound
  ``total/m + max_cost``.
"""

from __future__ import annotations

import heapq
import typing

__all__ = [
    "CostModel",
    "PointScheduler",
    "simulate_schedule",
]


class CostModel:
    """Per-point wall-cost estimates: a prior plus online refinement."""

    #: EWMA smoothing factor for observed/prior ratios
    alpha = 0.4

    def __init__(self) -> None:
        #: per-scheme EWMA of observed-wall / prior ratios
        self._ratio: dict[str, float] = {}
        self.observations = 0

    def prior(self, config: typing.Any) -> float:
        """Static load x duration heuristic (arbitrary units)."""
        sim_time = float(getattr(config, "sim_time", 1.0) or 1.0)
        load = float(getattr(config, "load", 1.0) or 1.0)
        cost = sim_time * (0.25 + load)
        ess = getattr(config, "ess", None)
        if ess is not None:
            # every scheduled inbound handoff adds an admitted call's
            # worth of frame traffic to the cell shard
            cost += 0.05 * sim_time * len(ess.handoff_arrivals)
        return cost

    def estimate(self, config: typing.Any) -> float:
        """The prior, scaled by the scheme's observed cost ratio so far."""
        scheme = str(getattr(config, "scheme", ""))
        return self.prior(config) * self._ratio.get(scheme, 1.0)

    def observe(self, config: typing.Any, wall: float) -> None:
        """Fold one completed point's measured wall time into the model."""
        if wall <= 0.0:
            return
        prior = self.prior(config)
        if prior <= 0.0:
            return
        scheme = str(getattr(config, "scheme", ""))
        ratio = wall / prior
        old = self._ratio.get(scheme)
        self._ratio[scheme] = (
            ratio if old is None else old + self.alpha * (ratio - old)
        )
        self.observations += 1


class PointScheduler:
    """The pending-point queue, refined longest-expected-first.

    ``pop()`` re-evaluates estimates at dispatch time, so cost
    refinements observed *after* a point was added still reorder it.
    Ties resolve in arrival order, keeping dispatch deterministic for a
    fixed completion history.
    """

    def __init__(self, *, model: CostModel | None = None) -> None:
        self.model = model or CostModel()
        #: pending configs by point index, in arrival order
        self._pending: dict[int, typing.Any] = {}

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def add(self, index: int, config: typing.Any) -> None:
        """Queue one point (also how a retry re-enters the queue)."""
        if index in self._pending:
            raise ValueError(f"point #{index} is already pending")
        self._pending[index] = config

    def pop(self) -> tuple[int, typing.Any]:
        """Next point to dispatch: ``(index, config)``."""
        if not self._pending:
            raise IndexError("pop from an empty scheduler")
        # max keeps the first of equal estimates: the earliest arrival
        index = max(
            self._pending, key=lambda i: self.model.estimate(self._pending[i])
        )
        return index, self._pending.pop(index)

    def observe(self, config: typing.Any, wall: float) -> None:
        """Refine the cost model from one completed point."""
        self.model.observe(config, wall)


class _GivenCosts(CostModel):
    """A cost model whose estimate of point ``i`` is ``costs[i]``."""

    def __init__(self, costs: typing.Sequence[float]) -> None:
        super().__init__()
        self.costs = costs

    def estimate(self, config: typing.Any) -> float:
        return self.costs[config]


def simulate_schedule(
    costs: typing.Sequence[float], workers: int
) -> dict[str, typing.Any]:
    """List-schedule ``costs`` onto ``workers`` identical machines.

    A deterministic pure model of the warm pool's dispatch loop:
    whenever a worker is free and points are pending, the next point
    popped from a :class:`PointScheduler` — the same queue the pool
    dispatches from, here estimating each point at its given cost —
    starts on it immediately, longest first (LPT).

    Returns ``makespan``, per-point ``assignments`` (``(worker, start,
    end)`` in dispatch order), per-worker ``finish`` times, and
    ``idle_before_empty`` — total worker-seconds spent idle while the
    queue was still non-empty, which greedy dispatch keeps at exactly
    zero (the property tests assert this).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    scheduler = PointScheduler(model=_GivenCosts(costs))
    for i in range(len(costs)):
        scheduler.add(i, i)
    free: list[tuple[float, int]] = [(0.0, w) for w in range(workers)]
    heapq.heapify(free)
    assignments: list[tuple[int, int, float, float]] = []
    while scheduler:
        i, _config = scheduler.pop()
        at, worker = heapq.heappop(free)
        assignments.append((i, worker, at, at + costs[i]))
        heapq.heappush(free, (at + costs[i], worker))
    finish = [0.0] * workers
    for _i, worker, _start, end in assignments:
        finish[worker] = max(finish[worker], end)
    # idle-while-pending, measured from the resulting timelines (not
    # from the dispatch loop, which would make the invariant vacuous):
    # the queue is non-empty until the last point is dispatched, so any
    # worker-second before `t_empty` not covered by an assignment is a
    # greedy-dispatch violation
    t_empty = max((start for _i, _w, start, _end in assignments), default=0.0)
    idle_before_empty = 0.0
    for worker in range(workers):
        spans = sorted(
            (start, end)
            for _i, w, start, end in assignments
            if w == worker
        )
        cursor = 0.0
        for start, end in spans:
            idle_before_empty += max(0.0, min(start, t_empty) - cursor)
            cursor = max(cursor, end)
        idle_before_empty += max(0.0, t_empty - cursor)
    return {
        "makespan": max(finish, default=0.0),
        "assignments": assignments,
        "finish": finish,
        "idle_before_empty": idle_before_empty,
    }
