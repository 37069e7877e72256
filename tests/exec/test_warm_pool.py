"""Fault injection against the warm worker pool.

A wedged worker (sleeps past the point timeout) and a crashed worker
(``os._exit`` mid-point) must each trigger a *targeted single-worker
restart* — never a whole-pool rebuild — while the sibling workers'
in-flight points complete without being re-run.  Execution counts are
tracked through marker files so a silent re-dispatch shows up as a
second line.
"""

import os
import pathlib
import signal
import time

import pytest

from repro.exec import (
    ExecutorConfig,
    SweepExecutionError,
    SweepExecutor,
    WorkerPool,
)
from repro.network.bss import ScenarioConfig
from repro.obs.jsonutil import to_jsonable


def _grid(n: int) -> list[ScenarioConfig]:
    return [
        ScenarioConfig(seed=seed, sim_time=6.0, warmup=1.0)
        for seed in range(1, n + 1)
    ]


def _count_execution(seed: int) -> None:
    marker_dir = pathlib.Path(os.environ["REPRO_TEST_MARKER_DIR"])
    with (marker_dir / f"count-{seed}").open("a") as fh:
        fh.write("x\n")


def _executions(tmp_path: pathlib.Path, seed: int) -> int:
    marker = tmp_path / f"count-{seed}"
    return len(marker.read_text().splitlines()) if marker.exists() else 0


# -- module-level point functions (picklable into pool workers) -----------

def _wedging_point(config):
    """Seed 2 sleeps far past any timeout; the rest take ~0.2 s."""
    _count_execution(config.seed)
    time.sleep(30.0 if config.seed == 2 else 0.2)
    return {"seed": config.seed}


def _crashing_once_point(config):
    """Seed 2 hard-kills its worker on the first attempt only."""
    _count_execution(config.seed)
    marker_dir = pathlib.Path(os.environ["REPRO_TEST_MARKER_DIR"])
    crashed = marker_dir / "crashed-once"
    if config.seed == 2 and not crashed.exists():
        crashed.touch()
        os._exit(3)
    time.sleep(0.2)
    return {"seed": config.seed}


def _always_crashing_point(config):
    _count_execution(config.seed)
    if config.seed == 2:
        os._exit(3)
    time.sleep(0.2)
    return {"seed": config.seed}


def _slow_point(config):
    time.sleep(0.3)
    return {"seed": config.seed}


# -- wedged worker ---------------------------------------------------------

class TestWedgedWorker:
    def test_wedge_restarts_one_worker_and_spares_inflight_siblings(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(tmp_path))
        executor = SweepExecutor(
            ExecutorConfig(
                workers=2, timeout=0.6, retries=0, on_failure="skip"
            ),
            point_fn=_wedging_point,
        )
        rows = executor.run(_grid(4))

        # the wedged point is the only casualty
        assert [r["seed"] for r in rows] == [1, 3, 4]
        summary = executor.summary()
        assert summary["timeouts"] == 1
        assert summary["worker_restarts"] == 1

        # failures records the wedged point with its timeout error
        assert len(executor.failures) == 1
        failure = executor.failures[0]
        assert failure.config.seed == 2
        assert "timed out" in failure.error

        # sibling points — including whichever was in-flight when the
        # wedge was detected — ran exactly once each, never re-run
        for seed in (1, 3, 4):
            assert _executions(tmp_path, seed) == 1

    def test_wedge_with_retry_reruns_only_the_wedged_point(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(tmp_path))
        executor = SweepExecutor(
            ExecutorConfig(
                workers=2, timeout=0.6, retries=1, on_failure="skip"
            ),
            point_fn=_wedging_point,
        )
        executor.run(_grid(3))
        summary = executor.summary()
        assert summary["timeouts"] == 2  # both attempts wedge
        assert summary["worker_restarts"] == 2
        assert _executions(tmp_path, 2) == 2  # the retry, nothing else
        assert _executions(tmp_path, 1) == 1
        assert _executions(tmp_path, 3) == 1


# -- crashed worker --------------------------------------------------------

class TestCrashedWorker:
    def test_crash_restarts_one_worker_and_retry_recovers(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(tmp_path))
        executor = SweepExecutor(
            ExecutorConfig(workers=2, retries=1), point_fn=_crashing_once_point
        )
        rows = executor.run(_grid(4))

        assert [r["seed"] for r in rows] == [1, 2, 3, 4]
        summary = executor.summary()
        assert summary["worker_restarts"] == 1
        assert summary["failed"] == 0

        # seed 2 ran twice (crash + successful retry); siblings once
        assert _executions(tmp_path, 2) == 2
        for seed in (1, 3, 4):
            assert _executions(tmp_path, seed) == 1

    def test_crash_without_retries_lands_in_failures(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(tmp_path))
        executor = SweepExecutor(
            ExecutorConfig(workers=2, retries=0), point_fn=_always_crashing_point
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            executor.run(_grid(3))
        assert [f.config.seed for f in excinfo.value.failures] == [2]
        assert executor.summary()["worker_restarts"] == 1
        # the survivors still ran exactly once despite the sibling crash
        assert _executions(tmp_path, 1) == 1
        assert _executions(tmp_path, 3) == 1


# -- pool-level restart mechanics ------------------------------------------

class TestWorkerPoolRestart:
    def test_external_sigkill_is_detected_and_slot_replaced(self):
        pool = WorkerPool(2, _slow_point)
        try:
            pool.wait_ready()
            assert pool.ready_count() == 2

            victim = pool.workers[0]
            pool.dispatch(
                victim,
                task_id=1,
                payload=to_jsonable(
                    ScenarioConfig(seed=2, sim_time=6.0, warmup=1.0)
                ),
            )
            os.kill(victim.process.pid, signal.SIGKILL)

            dead = []
            deadline = time.perf_counter() + 10.0
            while not dead and time.perf_counter() < deadline:
                _messages, dead = pool.poll(0.2)
            assert dead == [victim]

            pool.restart(victim)
            assert pool.restarts == 1
            replacement = pool.workers[0]
            assert replacement is not victim
            assert pool.wait_ready() >= 0.0
            assert pool.ready_count() == 2
        finally:
            pool.shutdown()
