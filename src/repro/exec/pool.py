"""Persistent warm workers: spawn once, stream point configs, restart one.

The retired pool path rebuilt a ``ProcessPoolExecutor`` whenever any
worker crashed or wedged — every in-flight point was thrown away and
every worker re-imported the simulator stack.  This module replaces it
with a pool of long-lived worker processes:

* **warm-up once** — each worker imports the scenario stack a single
  time, at spawn; each task message carries the point's whole
  every-field JSON form (:func:`~repro.obs.jsonutil.to_jsonable`), and
  result rows stream back over the worker's own result pipe instead of
  per-future pickling;
* **no shared locks** — every worker owns two dedicated
  one-writer/one-reader pipes (tasks in, results out).  Nothing is
  shared between siblings, so SIGKILLing a wedged worker can never
  corrupt another worker's channel (the classic hazard that forces
  ``concurrent.futures`` to rebuild the whole pool);
* **heartbeat/wedge detection** — worker death is detected immediately
  (:func:`multiprocessing.connection.wait` on process sentinels) and a
  per-task ``start`` heartbeat confirms pickup; a point that outlives
  its deadline marks the worker wedged.  Either way the coordinator
  restarts *that worker alone* (:meth:`WorkerPool.restart`), steals
  back its in-flight task, and the siblings keep draining theirs.

Start method: ``fork`` where available (worker arguments — including
test-injected point functions — are inherited, not pickled); the
platform default elsewhere, with the usual pickling constraints.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import typing

__all__ = ["READY_TIMEOUT", "WorkerHandle", "WorkerPool"]

#: seconds a freshly spawned worker gets to complete its ready handshake
READY_TIMEOUT = 60.0


def _worker_main(worker_id, tasks, results, point_fn) -> None:
    """Long-lived worker loop: warm up once, then drain tasks until EOF."""
    # one-time environment warm-up: the scenario stack is imported
    # before the ready handshake, so the coordinator's warm-up phase
    # covers all per-process initialization
    from ..network.bss import ScenarioConfig

    if point_fn is None:
        from .executor import default_point_fn as point_fn  # noqa: PLW0127

    results.send(("ready", worker_id, None, None, 0.0))
    while True:
        try:
            task = tasks.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        task_id, payload = task
        # pickup heartbeat: distinguishes "still queued" from "running"
        results.send(("start", worker_id, task_id, None, 0.0))
        start = time.perf_counter()
        try:
            config = ScenarioConfig.from_dict(payload)
            row = point_fn(config)
        except BaseException as exc:  # noqa: BLE001 — shipped back, retried
            results.send(
                ("error", worker_id, task_id, repr(exc),
                 time.perf_counter() - start)
            )
        else:
            results.send(
                ("done", worker_id, task_id, row,
                 time.perf_counter() - start)
            )
    results.close()


class WorkerHandle:
    """One warm worker slot: the process plus its two dedicated pipes."""

    def __init__(self, worker_id: int, ctx, point_fn) -> None:
        self.worker_id = worker_id
        task_recv, self.task_send = multiprocessing.Pipe(duplex=False)
        self.result_recv, result_send = multiprocessing.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, task_recv, result_send, point_fn),
            daemon=True,
        )
        self.process.start()
        # the worker owns these ends now; closing the parent's copies
        # restores EOF semantics on both pipes
        task_recv.close()
        result_send.close()
        #: ready handshake received (environment warm-up finished)
        self.ready = False
        #: task_id this worker is executing, or ``None`` when idle
        self.current: int | None = None
        #: coordinator clock when the current task was dispatched /
        #: confirmed started — the wedge deadline runs from here
        self.started: float | None = None
        self.tasks_done = 0

    def alive(self) -> bool:
        return self.process.is_alive()

    def terminate(self) -> None:
        """Hard-stop this worker and release its pipes (idempotent)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        self.task_send.close()
        self.result_recv.close()


class WorkerPool:
    """A fixed set of :class:`WorkerHandle` slots with targeted restart."""

    def __init__(
        self, workers: int, point_fn: typing.Callable | None = None
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        methods = multiprocessing.get_all_start_methods()
        self.ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self.point_fn = point_fn
        #: single-worker restarts performed (crash, wedge, failed spawn)
        self.restarts = 0
        self.workers = [
            WorkerHandle(i, self.ctx, point_fn) for i in range(workers)
        ]

    # -- liveness ----------------------------------------------------------
    def wait_ready(self, timeout: float = READY_TIMEOUT) -> float:
        """Block until every worker handshakes; returns the warm-up seconds.

        A worker that dies during warm-up is restarted (bounded by the
        deadline, after which the pool raises).
        """
        started = time.perf_counter()
        deadline = started + timeout
        while not all(w.ready for w in self.workers):
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError(
                    f"worker pool failed to warm up within {timeout}s"
                )
            _msgs, dead = self.poll(timeout=min(0.25, remaining))
            for worker in dead:
                self.restart(worker)
        return time.perf_counter() - started

    def idle(self) -> list[WorkerHandle]:
        return [w for w in self.workers if w.ready and w.current is None]

    def ready_count(self) -> int:
        return sum(1 for w in self.workers if w.ready)

    def active_count(self) -> int:
        return sum(1 for w in self.workers if w.current is not None)

    # -- dispatch / collect ------------------------------------------------
    def dispatch(self, worker: WorkerHandle, task_id: int, payload) -> None:
        """Send one point, ``to_jsonable(config)``, to an idle worker."""
        worker.task_send.send((task_id, payload))
        worker.current = task_id
        worker.started = time.perf_counter()

    def poll(
        self, timeout: float | None
    ) -> tuple[list[tuple], list[WorkerHandle]]:
        """Wait for worker traffic; returns ``(task messages, dead workers)``.

        Every readable result pipe is fully drained before liveness is
        judged, so a worker that crashed right after shipping its row
        still gets the row counted (its death then restarts the slot
        without losing or re-running the point).  ``ready``/``start``
        handshakes are absorbed here; only ``done``/``error`` messages
        are returned.
        """
        waitables: list = [w.result_recv for w in self.workers]
        waitables += [w.process.sentinel for w in self.workers]
        try:
            multiprocessing.connection.wait(waitables, timeout)
        except OSError:  # a sentinel raced a concurrent exit
            pass
        messages: list[tuple] = []
        for worker in self.workers:
            try:
                while worker.result_recv.poll():
                    msg = worker.result_recv.recv()
                    kind = msg[0]
                    if kind == "ready":
                        worker.ready = True
                    elif kind == "start":
                        # restart the wedge clock at confirmed pickup
                        worker.started = time.perf_counter()
                    else:  # "done" | "error"
                        if msg[2] == worker.current:
                            worker.current = None
                            worker.started = None
                            worker.tasks_done += 1
                        messages.append(msg)
            except (EOFError, OSError):
                pass  # the pipe died with its worker; sentinel handles it
        dead = [w for w in self.workers if not w.process.is_alive()]
        return messages, dead

    # -- recovery / teardown -----------------------------------------------
    def restart(self, worker: WorkerHandle) -> WorkerHandle:
        """Replace one worker slot; siblings are untouched."""
        worker.terminate()
        replacement = WorkerHandle(worker.worker_id, self.ctx, self.point_fn)
        self.workers[self.workers.index(worker)] = replacement
        self.restarts += 1
        return replacement

    def retire(self, worker: WorkerHandle) -> None:
        """Permanently remove one worker slot (restart budget exhausted).

        The slot is terminated and dropped from the pool; the sweep
        carries on with reduced capacity instead of looping through a
        restart storm.  An empty pool is the caller's signal to fail
        the remaining points permanently.
        """
        worker.terminate()
        self.workers.remove(worker)

    def shutdown(self) -> None:
        """Graceful EOF to every worker, then hard-stop stragglers."""
        for worker in self.workers:
            try:
                worker.task_send.send(None)
            except (OSError, ValueError):
                pass
        for worker in self.workers:
            worker.process.join(timeout=2.0)
            worker.terminate()
