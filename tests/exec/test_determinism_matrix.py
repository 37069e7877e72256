"""Determinism matrix: workers x execution mode, all byte-identical.

Every cell of ``workers in {1, 2, 4}`` x ``{warm, cold-resume-after-
kill, cached}`` must reproduce the committed golden quickstart row
byte-for-byte.  This is the end-to-end guarantee behind the warm-worker
rebuild: dispatch order, worker count, scheduler policy, resume path
and cache replay may change *how* a row is produced but never a single
byte of *what* is produced.
"""

import dataclasses

import pytest

from repro.exec import (
    ExecutorConfig,
    ResultCache,
    SweepExecutor,
    canonical_json,
    config_key,
)
from tests.accel.test_engine import batched_golden_config
from tests.exec.test_golden_row import GOLDEN_PATH, golden_config

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def golden_bytes() -> str:
    return GOLDEN_PATH.read_text().strip()


def _run(executor: SweepExecutor) -> str:
    rows = executor.run([golden_config()])
    assert len(rows) == 1
    return canonical_json(rows[0])


class TestDeterminismMatrix:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_warm_pool_matches_golden(self, workers, golden_bytes):
        executor = SweepExecutor(ExecutorConfig(workers=workers))
        assert _run(executor) == golden_bytes
        assert executor.summary()["executed"] == 1

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_cold_resume_after_kill_matches_golden(
        self, workers, tmp_path, golden_bytes
    ):
        journal_path = tmp_path / "journal.jsonl"
        first = SweepExecutor(ExecutorConfig(journal=str(journal_path)))
        assert _run(first) == golden_bytes

        # kill mid-append: the journaled row is chopped in half, so the
        # cold process that picks the journal back up must re-run it
        lines = journal_path.read_text().splitlines()
        journal_path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])

        resumed = SweepExecutor(
            ExecutorConfig(
                journal=str(journal_path), resume=True, workers=workers
            )
        )
        assert _run(resumed) == golden_bytes
        assert resumed.summary()["resumed"] == 0  # truncated row discarded
        assert resumed.summary()["executed"] == 1

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_cached_replay_matches_golden(self, workers, tmp_path, golden_bytes):
        cache_dir = str(tmp_path / "cache")
        primer = SweepExecutor(ExecutorConfig(cache_dir=cache_dir))
        assert _run(primer) == golden_bytes

        replay = SweepExecutor(
            ExecutorConfig(cache_dir=cache_dir, workers=workers)
        )
        assert _run(replay) == golden_bytes
        assert replay.summary()["cache_hits"] == 1
        assert replay.summary()["executed"] == 0


class TestMixedEngineGrid:
    """A pool grid mixing engines runs each point under its own: an
    exact point after a batched one comes back (and is cached) as
    exact."""

    def test_pool_rows_match_serial_and_cache_under_own_key(self, tmp_path):
        batched = batched_golden_config(sim_time=3.0, warmup=0.5)
        exact = dataclasses.replace(batched, engine="exact")
        grid = [batched, exact]
        serial = [canonical_json(r) for r in SweepExecutor().run(grid)]

        cache_dir = tmp_path / "cache"
        pooled = SweepExecutor(
            ExecutorConfig(workers=2, cache_dir=str(cache_dir))
        ).run(grid)
        assert [canonical_json(r) for r in pooled] == serial
        assert "engine" not in pooled[1]
        cached = ResultCache(cache_dir).get(config_key(exact))
        assert canonical_json(cached) == serial[1]
