"""The sweep executor: fan simulation points out over warm workers.

:class:`SweepExecutor` owns how a grid of
:class:`~repro.network.bss.ScenarioConfig` points gets executed:

* ``workers=1`` runs every point serially in-process — fully
  deterministic, no subprocess machinery, the mode tests default to;
* ``workers>1`` dispatches points to a persistent
  :class:`~repro.exec.pool.WorkerPool`: spawn-once warm workers that
  initialize the simulator environment a single time and then drain a
  stream of point configs, with cost-aware
  longest-expected-first ordering
  (:class:`~repro.exec.scheduler.PointScheduler`), per-point timeout,
  bounded retry, and **targeted single-worker restart** — a wedged or
  crashed worker costs one process respawn, never the grid and never
  its siblings' in-flight points;
* an optional content-addressed :class:`~repro.exec.cache.ResultCache`
  short-circuits points whose config hash already has a row on disk;
* an optional :class:`~repro.exec.journal.SweepJournal` checkpoints
  every completed row, so an interrupted sweep resumes where it died —
  with warm workers exactly as with serial runs, because resume
  filtering happens coordinator-side before any task is dispatched.

Result rows come back in input order.  A row a point function returns
is JSON-normalized (:func:`~repro.exec.hashing.normalize_row`) before
it is cached, journaled or returned; a row read back from the cache or
the journal was written as canonical JSON of such a row, so its decode
is returned as it is.  A serial run, a parallel run, a cached replay
and a resumed run of the same grid therefore all return byte-identical
rows — dispatch *order* is a performance decision and never leaks
into results.

Per-point timeouts are only enforceable in pool mode (a serial run
cannot preempt itself); serial mode still retries a failed point.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
import typing

from ..network.bss import BssScenario, ScenarioConfig
from ..obs.jsonutil import to_jsonable
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .hashing import config_key, normalize_row
from .journal import SweepJournal
from .pool import WorkerPool
from .scheduler import PointScheduler
from .telemetry import PointRecord, RunTelemetry

__all__ = [
    "ExecutorConfig",
    "SweepExecutor",
    "SweepExecutionError",
    "PointFailure",
    "default_point_fn",
]

#: how often the pool loop polls for completions when a timeout is set
_TIMEOUT_TICK = 0.05
#: idle poll period without a timeout (worker death still wakes the
#: poll immediately via the process sentinels)
_POLL_TICK = 0.25
#: additional attempts after a failed, timed-out or crashed first try
RETRIES = 1
#: per-worker-slot restart budget: how many times one slot may be
#: respawned (crash or wedge) before it is retired for the run.  A
#: retired slot's in-flight point fails permanently — a poison point
#: costs at most ``workers x (MAX_WORKER_RESTARTS + 1)`` process
#: spawns, never an unbounded restart storm
MAX_WORKER_RESTARTS = 3
#: base of the exponential restart backoff: the ``n``-th respawn of one
#: slot waits ``RESTART_BACKOFF * 2**(n-1)`` seconds (capped at 30 s)
RESTART_BACKOFF = 0.1


def default_point_fn(config: ScenarioConfig) -> dict[str, typing.Any]:
    """Build and run one scenario — the executor's unit of work.

    Batched points route through :mod:`repro.accel` (imported lazily
    so exact-only deployments never import the batched tier); the
    default exact tier runs the per-frame simulator untouched.
    """
    if config.engine != "exact":
        from ..accel import run_scenario

        return run_scenario(config)
    return BssScenario(config).run()


def _execute_point(
    point_fn: typing.Callable[[ScenarioConfig], dict] | None,
    config: ScenarioConfig,
) -> tuple[dict[str, typing.Any], float]:
    """Serial-mode wrapper: run one point, timing it."""
    start = time.perf_counter()
    row = (point_fn or default_point_fn)(config)
    return row, time.perf_counter() - start


@dataclasses.dataclass(frozen=True)
class PointFailure:
    """One point that exhausted its attempts."""

    index: int
    config: ScenarioConfig
    error: str


class SweepExecutionError(RuntimeError):
    """Raised when points fail after retries and ``on_failure='raise'``."""

    def __init__(self, failures: typing.Sequence[PointFailure]) -> None:
        self.failures = list(failures)
        detail = "; ".join(
            f"#{f.index} {f.config.scheme} load={f.config.load} "
            f"seed={f.config.seed}: {f.error}"
            for f in self.failures[:3]
        )
        more = "" if len(self.failures) <= 3 else f" (+{len(self.failures) - 3} more)"
        super().__init__(
            f"{len(self.failures)} sweep point(s) failed after retries: "
            f"{detail}{more}"
        )


@dataclasses.dataclass(frozen=True)
class ExecutorConfig:
    """Knobs for one :class:`SweepExecutor`."""

    #: warm-worker count; ``1`` means serial in-process execution
    workers: int = 1
    #: per-point wall-clock budget in seconds (pool mode only) — a
    #: point outliving it marks its worker wedged and restarts it
    timeout: float | None = None
    #: cache directory, or ``None`` to disable the result cache
    cache_dir: str | None = None
    #: journal path, or ``None`` to disable checkpointing
    journal: str | None = None
    #: skip points already present in the journal
    resume: bool = False
    #: ``"raise"`` a :class:`SweepExecutionError` or ``"skip"`` failed points
    on_failure: str = "raise"
    #: dispatch order in pool mode: ``"cost"``, longest-expected-first
    #: with online refinement, is the only one.  The field stays because
    #: perfbench's ``figure_sweep`` passes it
    schedule: str = "cost"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.on_failure not in ("raise", "skip"):
            raise ValueError(
                f"on_failure must be 'raise' or 'skip', got {self.on_failure!r}"
            )
        if self.schedule != "cost":
            raise ValueError(f"schedule must be 'cost', got {self.schedule!r}")


class SweepExecutor:
    """Executes a grid of scenario configs; see the module docstring."""

    def __init__(
        self,
        config: ExecutorConfig | None = None,
        point_fn: typing.Callable[[ScenarioConfig], dict] | None = None,
        progress: typing.Callable[[PointRecord], None] | None = None,
    ) -> None:
        self.config = config or ExecutorConfig()
        self.point_fn = point_fn
        self.progress = progress
        self.telemetry: RunTelemetry | None = None
        #: points the most recent :meth:`run` gave up on — the only
        #: failure record in ``on_failure="skip"`` mode
        self.failures: list[PointFailure] = []

    # -- public API -------------------------------------------------------
    def run(
        self, configs: typing.Sequence[ScenarioConfig]
    ) -> list[dict[str, typing.Any]]:
        """Resolve every point; returns rows in input order."""
        cfg = self.config
        keys = [config_key(c) for c in configs]
        rows: list[dict | None] = [None] * len(configs)
        tel = RunTelemetry(workers=cfg.workers)
        self.telemetry = tel

        cache = ResultCache(cfg.cache_dir) if cfg.cache_dir else None
        journal = SweepJournal(cfg.journal) if cfg.journal else None
        failures: list[PointFailure] = []
        self.failures = failures
        try:
            journaled: dict[str, dict] = {}
            if journal is not None:
                if cfg.resume:
                    journaled = journal.load()
                    tel.journal_skipped_lines = journal.skipped_lines
                journal.start(resume=cfg.resume)

            # a row decoded from a journal line or a cache entry is used
            # as it is: both hold canonical JSON of a normalized row, a
            # fixed point of normalize_row
            pending: list[int] = []
            for i, key in enumerate(keys):
                if key in journaled:
                    rows[i] = journaled[key]
                    self._emit(tel, i, configs[i], "resumed")
                    continue
                if cache is not None:
                    row = cache.get(key)
                    if row is not None:
                        tel.cache_hits += 1
                        rows[i] = row
                        if journal is not None:
                            journal.append(key, row)
                        self._emit(tel, i, configs[i], "cached")
                        continue
                    tel.cache_misses += 1
                pending.append(i)

            if pending:
                runner = self._run_serial if cfg.workers == 1 else self._run_pool
                runner(configs, keys, rows, pending, cache, journal, tel, failures)
        finally:
            if journal is not None:
                journal.close()

        tel.finish()
        if failures and cfg.on_failure == "raise":
            raise SweepExecutionError(failures)
        return [r for r in rows if r is not None]

    def summary(self) -> dict[str, typing.Any]:
        """Telemetry summary of the most recent :meth:`run`."""
        if self.telemetry is None:
            raise RuntimeError("no sweep has been run yet")
        return self.telemetry.summary()

    # -- shared plumbing --------------------------------------------------
    def _emit(
        self,
        tel: RunTelemetry,
        index: int,
        config: ScenarioConfig,
        status: str,
        wall_time: float = 0.0,
        attempts: int = 0,
        sim_events: int = 0,
        error: str | None = None,
    ) -> None:
        record = PointRecord(
            index=index,
            scheme=config.scheme,
            load=config.load,
            seed=config.seed,
            status=status,
            wall_time=wall_time,
            attempts=attempts,
            sim_events=sim_events,
            error=error,
        )
        tel.record(record)
        if self.progress is not None:
            self.progress(record)

    def _complete(
        self,
        index: int,
        row: dict,
        wall: float,
        attempts: int,
        configs: typing.Sequence[ScenarioConfig],
        keys: list[str],
        rows: list,
        cache: ResultCache | None,
        journal: SweepJournal | None,
        tel: RunTelemetry,
    ) -> None:
        row = normalize_row(row)
        rows[index] = row
        tel.busy_worker_s += wall
        if cache is not None:
            cache.put(keys[index], row, configs[index])
        if journal is not None:
            journal.append(keys[index], row)
        self._emit(
            tel,
            index,
            configs[index],
            "executed",
            wall_time=wall,
            attempts=attempts,
            sim_events=int(row.get("events_processed") or 0),
        )

    # -- serial mode ------------------------------------------------------
    def _run_serial(
        self, configs, keys, rows, pending, cache, journal, tel, failures
    ) -> None:
        for i in pending:
            attempts = 0
            while True:
                attempts += 1
                started = time.perf_counter()
                try:
                    row, wall = _execute_point(self.point_fn, configs[i])
                except Exception as exc:  # noqa: BLE001 — retried, then surfaced
                    tel.busy_worker_s += time.perf_counter() - started
                    if attempts <= RETRIES:
                        tel.retries += 1
                        continue
                    failures.append(PointFailure(i, configs[i], repr(exc)))
                    self._emit(
                        tel, i, configs[i], "failed",
                        attempts=attempts, error=repr(exc),
                    )
                    break
                self._complete(
                    i, row, wall, attempts,
                    configs, keys, rows, cache, journal, tel,
                )
                break

    # -- pool mode (persistent warm workers) ------------------------------
    def _run_pool(
        self, configs, keys, rows, pending, cache, journal, tel, failures
    ) -> None:
        cfg = self.config
        scheduler = PointScheduler()
        attempts: dict[int, int] = {}
        for i in pending:
            attempts[i] = 0
            scheduler.add(i, configs[i])

        def fail_point(index: int, used: int, error: str) -> None:
            failures.append(PointFailure(index, configs[index], error))
            self._emit(
                tel, index, configs[index], "failed",
                attempts=used, error=error,
            )

        def fail_or_requeue(index: int, used: int, error: str) -> None:
            if used <= RETRIES:
                tel.retries += 1
                scheduler.add(index, configs[index])
            else:
                fail_point(index, used, error)

        pool = WorkerPool(cfg.workers, self.point_fn)
        #: per-slot respawn counts for this run; one slot exceeding
        #: ``MAX_WORKER_RESTARTS`` is retired, not restarted — the
        #: restart-storm guard a poison point would otherwise trigger
        slot_restarts: dict[int, int] = {}

        def lose_worker(worker, index: int | None, error: str) -> None:
            """Restart a crashed or wedged slot within its budget, then
            requeue or fail the point it held (``index``, if any); past
            the budget, retire the slot and fail that point for good."""
            n = slot_restarts.get(worker.worker_id, 0) + 1
            slot_restarts[worker.worker_id] = n
            if n > MAX_WORKER_RESTARTS:
                tel.restart_budget_exhausted += 1
                pool.retire(worker)
                if index is not None:
                    fail_point(
                        index,
                        attempts[index],
                        f"{error}; slot retired after exhausting its "
                        f"restart budget ({MAX_WORKER_RESTARTS})",
                    )
                return
            # exponential backoff: a crash-looping environment gets
            # geometrically rarer respawns instead of a hot loop
            time.sleep(min(RESTART_BACKOFF * 2 ** (n - 1), 30.0))
            pool.restart(worker)
            if index is not None:
                fail_or_requeue(index, attempts[index], error)

        #: task_id -> grid index for every dispatched, unresolved task;
        #: task ids are fresh per attempt, so a stale message from a
        #: killed worker can never resolve a retried point
        tasks: dict[int, int] = {}
        task_ids = itertools.count(1)
        try:
            warmup_s = pool.wait_ready()
            steady_s = drain_s = capacity_s = 0.0
            last = time.perf_counter()

            while tasks or scheduler:
                # greedy dispatch: no ready worker stays idle while
                # points are pending (the scheduler invariant the
                # property tests pin on the pure model)
                for worker in pool.idle():
                    if not scheduler:
                        break
                    index, config = scheduler.pop()
                    task_id = next(task_ids)
                    tasks[task_id] = index
                    pool.dispatch(worker, task_id, to_jsonable(config))

                # capacity integrates over the *wait* with the state
                # that holds during it (post-dispatch, pre-completion);
                # attributing the interval to the post-completion state
                # would systematically under-count busy workers
                pending_during_wait = bool(scheduler)
                avail = pool.ready_count()
                active = pool.active_count()

                tick = _TIMEOUT_TICK if cfg.timeout is not None else _POLL_TICK
                messages, dead = pool.poll(tick)

                now = time.perf_counter()
                dt, last = now - last, now
                if pending_during_wait:
                    # steady state: every ready worker is usable capacity
                    steady_s += dt
                    capacity_s += dt * avail
                else:
                    # queue drained: only still-busy workers count —
                    # tail idling is expected, not lost capacity
                    drain_s += dt
                    capacity_s += dt * min(avail, active)

                for kind, _wid, task_id, payload, wall in messages:
                    index = tasks.pop(task_id, None)
                    if index is None:
                        continue  # stale: the task was already resolved
                    attempts[index] += 1
                    if kind == "done":
                        scheduler.observe(configs[index], wall)
                        self._complete(
                            index, payload, wall, attempts[index],
                            configs, keys, rows, cache, journal, tel,
                        )
                    else:  # "error"
                        tel.busy_worker_s += wall
                        fail_or_requeue(index, attempts[index], str(payload))

                for worker in dead:
                    task_id = worker.current
                    index = None
                    if task_id is not None and task_id in tasks:
                        index = tasks.pop(task_id)
                        attempts[index] += 1
                        if worker.started is not None:
                            tel.busy_worker_s += (
                                time.perf_counter() - worker.started
                            )
                    lose_worker(
                        worker,
                        index,
                        f"worker {worker.worker_id} died "
                        f"(exitcode {worker.process.exitcode})",
                    )

                if cfg.timeout is not None:
                    now = time.perf_counter()
                    for worker in list(pool.workers):
                        task_id = worker.current
                        if task_id is None or worker.started is None:
                            continue
                        if now - worker.started <= cfg.timeout:
                            continue
                        tel.timeouts += 1
                        tel.busy_worker_s += now - worker.started
                        index = tasks.pop(task_id, None)
                        if index is not None:
                            attempts[index] += 1
                        # the wedged process burns a core until killed;
                        # only this slot restarts (budget permitting),
                        # siblings keep going
                        lose_worker(
                            worker, index, f"timed out after {cfg.timeout}s"
                        )

                if not pool.workers:
                    # every slot retired: nothing can execute the rest
                    while scheduler:
                        index, _config = scheduler.pop()
                        fail_point(
                            index,
                            attempts[index],
                            "no workers left: every slot exhausted its "
                            "restart budget",
                        )
                    break

            tel.set_phases(warmup_s, steady_s, drain_s, capacity_s)
        finally:
            tel.worker_restarts = pool.restarts
            pool.shutdown()
