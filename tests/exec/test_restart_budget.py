"""Restart-storm guard: per-worker budgets, backoff, pool exhaustion.

A poison point that hard-kills every worker it touches must not spin
the pool through unbounded kill/respawn cycles: each slot gets
``MAX_WORKER_RESTARTS`` respawns, then retires, and the point that
retired the last-hope slot fails permanently.  When every slot is
retired the drain loop fails the remaining queue instead of hanging.
Each test sets the executor's retry policy constants for itself.
"""

import os
import time

import pytest

import repro.exec.executor as executor_mod
from repro.exec import ExecutorConfig, SweepExecutionError, SweepExecutor
from repro.network.bss import ScenarioConfig


def _grid(n: int) -> list[ScenarioConfig]:
    return [
        ScenarioConfig(seed=seed, sim_time=6.0, warmup=1.0)
        for seed in range(1, n + 1)
    ]


# -- module-level point functions (picklable into pool workers) -----------

def _poison_point(config):
    """Seed 2 hard-kills whichever worker runs it, every attempt."""
    if config.seed == 2:
        os._exit(3)
    time.sleep(0.1)
    return {"seed": config.seed}


def _all_poison_point(config):
    os._exit(3)


@pytest.fixture
def policy(monkeypatch):
    """Set ``RETRIES``, ``MAX_WORKER_RESTARTS`` and ``RESTART_BACKOFF``."""

    def set_policy(retries, max_worker_restarts, restart_backoff):
        monkeypatch.setattr(executor_mod, "RETRIES", retries)
        monkeypatch.setattr(
            executor_mod, "MAX_WORKER_RESTARTS", max_worker_restarts
        )
        monkeypatch.setattr(executor_mod, "RESTART_BACKOFF", restart_backoff)

    return set_policy


class TestRestartBudget:
    def test_poison_point_fails_permanently_when_a_slot_retires(self, policy):
        policy(retries=10, max_worker_restarts=1, restart_backoff=0.0)
        executor = SweepExecutor(
            ExecutorConfig(workers=2, on_failure="skip"),
            point_fn=_poison_point,
        )
        rows = executor.run(_grid(4))

        # the survivors all completed despite the crash storm
        assert [r["seed"] for r in rows] == [1, 3, 4]
        assert len(executor.failures) == 1
        failure = executor.failures[0]
        assert failure.config.seed == 2
        assert "restart budget" in failure.error

        summary = executor.summary()
        assert summary["restart_budget_exhausted"] == 1
        # the retried poison burned respawns but never more than the
        # per-slot budget allows across both slots
        assert 1 <= summary["worker_restarts"] <= 2

    def test_raise_mode_surfaces_budget_exhaustion(self, policy):
        policy(retries=10, max_worker_restarts=0, restart_backoff=0.0)
        executor = SweepExecutor(
            ExecutorConfig(workers=2, on_failure="raise"),
            point_fn=_poison_point,
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            executor.run(_grid(3))
        assert any(
            "restart budget" in f.error for f in excinfo.value.failures
        )

    def test_exhausted_pool_fails_the_remaining_queue(self, policy):
        policy(retries=10, max_worker_restarts=0, restart_backoff=0.0)
        executor = SweepExecutor(
            ExecutorConfig(workers=2, on_failure="skip"),
            point_fn=_all_poison_point,
        )
        rows = executor.run(_grid(6))

        assert rows == []
        assert len(executor.failures) == 6
        assert {f.config.seed for f in executor.failures} == set(
            range(1, 7)
        )
        # two slots died in-flight; the queued rest drained as failures
        drained = [
            f for f in executor.failures if "no workers left" in f.error
        ]
        assert len(drained) == 4
        summary = executor.summary()
        assert summary["restart_budget_exhausted"] == 2
        assert summary["worker_restarts"] == 0

    def test_backoff_delays_respawns_exponentially(self, policy):
        policy(retries=3, max_worker_restarts=2, restart_backoff=0.2)
        executor = SweepExecutor(
            ExecutorConfig(workers=2, on_failure="skip"),
            point_fn=_poison_point,
        )
        start = time.perf_counter()
        rows = executor.run(_grid(3))
        elapsed = time.perf_counter() - start

        assert [r["seed"] for r in rows] == [1, 3]
        # at least two respawns happened, each sleeping 0.2 * 2**(n-1)
        # on its slot: the run cannot finish faster than the backoff
        assert executor.summary()["worker_restarts"] >= 2
        assert elapsed >= 0.4
