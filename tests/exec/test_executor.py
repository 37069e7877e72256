"""SweepExecutor: determinism, caching, resume, timeout, retry, crashes.

The pool tests inject module-level point functions (picklable via the
fork start method) so they stay fast and can misbehave on demand; the
determinism test runs the real simulator both ways.
"""

import json
import os
import pathlib
import time

import pytest

from repro.exec import (
    ExecutorConfig,
    ResultCache,
    SweepExecutionError,
    SweepExecutor,
    SweepJournal,
    config_key,
)
from repro.network.bss import ScenarioConfig


def _grid(n: int, sim_time: float = 6.0) -> list[ScenarioConfig]:
    return [
        ScenarioConfig(seed=seed, sim_time=sim_time, warmup=1.0)
        for seed in range(1, n + 1)
    ]


def _canon(rows):
    return [json.dumps(r, sort_keys=True) for r in rows]


# -- module-level point functions (picklable into pool workers) -----------

def _tiny_point(config):
    return {"scheme": config.scheme, "load": config.load, "seed": config.seed}


def _sleepy_point(config):
    if config.seed == 2:
        time.sleep(1.5)
    return _tiny_point(config)


def _flaky_point(config):
    """Fails the first time each seed is attempted (cross-process marker)."""
    marker_dir = pathlib.Path(os.environ["REPRO_TEST_MARKER_DIR"])
    marker = marker_dir / f"seed-{config.seed}"
    if not marker.exists():
        marker.touch()
        raise RuntimeError(f"transient failure for seed {config.seed}")
    return _tiny_point(config)


def _crashy_point(config):
    """Hard-kills its worker process on the first attempt for seed 2."""
    marker_dir = pathlib.Path(os.environ["REPRO_TEST_MARKER_DIR"])
    marker = marker_dir / f"crash-{config.seed}"
    if config.seed == 2 and not marker.exists():
        marker.touch()
        os._exit(3)
    return _tiny_point(config)


def _always_failing_point(config):
    raise RuntimeError("permanently broken")


# -- determinism ----------------------------------------------------------

class TestDeterminism:
    def test_serial_and_pool_rows_identical(self):
        grid = _grid(4)
        serial = SweepExecutor(ExecutorConfig(workers=1)).run(grid)
        pooled = SweepExecutor(ExecutorConfig(workers=4)).run(grid)
        assert _canon(serial) == _canon(pooled)
        assert len(serial) == 4
        assert [r["seed"] for r in serial] == [1, 2, 3, 4]

    def test_rows_carry_resume_and_cache_keys(self):
        rows = SweepExecutor().run(_grid(1))
        row = rows[0]
        for field in ("scheme", "load", "seed", "sim_time", "warmup"):
            assert field in row
        assert row["events_processed"] > 0


# -- cache ----------------------------------------------------------------

class TestCaching:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        grid = _grid(2, sim_time=4.0)

        first = SweepExecutor(ExecutorConfig(cache_dir=cache_dir))
        rows1 = first.run(grid)
        assert first.summary()["executed"] == 2
        assert first.summary()["cache_misses"] == 2

        second = SweepExecutor(ExecutorConfig(cache_dir=cache_dir))
        rows2 = second.run(grid)
        assert second.summary()["executed"] == 0
        assert second.summary()["cache_hits"] == 2
        assert _canon(rows1) == _canon(rows2)

    def test_changed_config_misses(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SweepExecutor(ExecutorConfig(cache_dir=cache_dir)).run(
            _grid(1, sim_time=4.0)
        )
        changed = [ScenarioConfig(seed=1, sim_time=4.0, warmup=1.0, load=2.0)]
        executor = SweepExecutor(ExecutorConfig(cache_dir=cache_dir))
        executor.run(changed)
        assert executor.summary()["executed"] == 1
        assert executor.summary()["cache_hits"] == 0


# -- checkpoint / resume --------------------------------------------------

class TestResume:
    def test_resume_skips_journaled_points(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        grid = _grid(4)

        # first run covers only half the grid, then "dies"
        SweepExecutor(
            ExecutorConfig(journal=journal), point_fn=_tiny_point
        ).run(grid[:2])

        calls = []

        def counting_point(config):
            calls.append(config.seed)
            return _tiny_point(config)

        executor = SweepExecutor(
            ExecutorConfig(journal=journal, resume=True),
            point_fn=counting_point,
        )
        rows = executor.run(grid)
        assert sorted(calls) == [3, 4]  # only the missing points ran
        assert executor.summary()["resumed"] == 2
        assert executor.summary()["executed"] == 2
        assert [r["seed"] for r in rows] == [1, 2, 3, 4]

    @pytest.mark.parametrize("resume_workers", [1, 2])
    def test_resume_after_kill_mid_append(self, tmp_path, resume_workers):
        """A journal with a truncated tail resumes the unfinished point.

        Parametrized over serial and warm-worker resume: the journal is
        written coordinator-side only, so a warm pool resumes a killed
        run exactly as a serial one does.
        """
        journal_path = tmp_path / "journal.jsonl"
        grid = _grid(3)
        SweepExecutor(
            ExecutorConfig(journal=str(journal_path)), point_fn=_tiny_point
        ).run(grid)

        # chop the last journaled row in half, as a SIGKILL would
        lines = journal_path.read_text().splitlines()
        journal_path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:10])

        executor = SweepExecutor(
            ExecutorConfig(
                journal=str(journal_path), resume=True, workers=resume_workers
            ),
            point_fn=_tiny_point,
        )
        rows = executor.run(grid)
        assert executor.summary()["resumed"] == 2
        assert executor.summary()["executed"] == 1
        assert [r["seed"] for r in rows] == [1, 2, 3]

    def test_resume_reruns_points_behind_corrupt_midfile_lines(
        self, tmp_path
    ):
        """Garbage in the middle of the journal loses only those rows."""
        journal_path = tmp_path / "journal.jsonl"
        grid = _grid(4)
        SweepExecutor(
            ExecutorConfig(journal=str(journal_path)), point_fn=_tiny_point
        ).run(grid)

        # corrupt rows 2 and 3 in place: one unparseable, one wrong shape
        lines = journal_path.read_text().splitlines()
        assert len(lines) == 5  # manifest + 4 rows
        lines[2] = lines[2][: len(lines[2]) // 2] + "#disk-rot"
        lines[3] = json.dumps({"key": 123, "row": "not-a-dict"})
        journal_path.write_text("\n".join(lines) + "\n")

        executor = SweepExecutor(
            ExecutorConfig(journal=str(journal_path), resume=True),
            point_fn=_tiny_point,
        )
        with pytest.warns(RuntimeWarning, match="skipped 2 corrupt"):
            rows = executor.run(grid)

        # every point is present: intact rows resumed, corrupt ones re-ran
        assert [r["seed"] for r in rows] == [1, 2, 3, 4]
        summary = executor.summary()
        assert summary["resumed"] == 2
        assert summary["executed"] == 2
        assert summary["journal_skipped_lines"] == 2

        # the re-run appended fresh rows for the lost keys: a second
        # resume skips the same corrupt lines but re-runs nothing
        again = SweepExecutor(
            ExecutorConfig(journal=str(journal_path), resume=True),
            point_fn=_tiny_point,
        )
        with pytest.warns(RuntimeWarning, match="skipped 2 corrupt"):
            again.run(grid)
        assert again.summary()["resumed"] == 4
        assert again.summary()["executed"] == 0
        assert again.summary()["journal_skipped_lines"] == 2

    def test_fresh_run_truncates_journal(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        SweepExecutor(
            ExecutorConfig(journal=journal), point_fn=_tiny_point
        ).run(_grid(2))
        SweepExecutor(
            ExecutorConfig(journal=journal), point_fn=_tiny_point
        ).run(_grid(1))
        assert len(SweepJournal(journal).load()) == 1

    def test_cached_points_are_journaled_for_later_resume(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        journal = str(tmp_path / "journal.jsonl")
        grid = _grid(2, sim_time=4.0)
        SweepExecutor(ExecutorConfig(cache_dir=cache_dir)).run(grid)
        SweepExecutor(
            ExecutorConfig(cache_dir=cache_dir, journal=journal)
        ).run(grid)
        assert len(SweepJournal(journal).load()) == 2


# -- retry / timeout / crashes -------------------------------------------

class TestFaultTolerance:
    def test_serial_retry_recovers(self):
        attempts = []

        def flaky(config):
            attempts.append(config.seed)
            if attempts.count(config.seed) == 1:
                raise RuntimeError("first try fails")
            return _tiny_point(config)

        executor = SweepExecutor(
            ExecutorConfig(workers=1, retries=1), point_fn=flaky
        )
        rows = executor.run(_grid(2))
        assert len(rows) == 2
        assert executor.summary()["retries"] == 2
        assert executor.summary()["failed"] == 0

    def test_serial_exhausted_retries_raise(self):
        executor = SweepExecutor(
            ExecutorConfig(workers=1, retries=1), point_fn=_always_failing_point
        )
        with pytest.raises(SweepExecutionError) as excinfo:
            executor.run(_grid(2))
        assert len(excinfo.value.failures) == 2

    def test_on_failure_skip_returns_survivors(self):
        def half_broken(config):
            if config.seed == 1:
                raise RuntimeError("nope")
            return _tiny_point(config)

        executor = SweepExecutor(
            ExecutorConfig(workers=1, retries=0, on_failure="skip"),
            point_fn=half_broken,
        )
        rows = executor.run(_grid(2))
        assert [r["seed"] for r in rows] == [2]
        assert executor.summary()["failed"] == 1

    def test_pool_retry_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(tmp_path))
        executor = SweepExecutor(
            ExecutorConfig(workers=2, retries=1), point_fn=_flaky_point
        )
        rows = executor.run(_grid(3))
        assert [r["seed"] for r in rows] == [1, 2, 3]
        assert executor.summary()["retries"] == 3
        assert executor.summary()["failed"] == 0

    def test_pool_timeout_skips_wedged_point(self):
        executor = SweepExecutor(
            ExecutorConfig(
                workers=2, timeout=0.3, retries=0, on_failure="skip"
            ),
            point_fn=_sleepy_point,
        )
        rows = executor.run(_grid(3))
        assert [r["seed"] for r in rows] == [1, 3]  # seed 2 wedged
        summary = executor.summary()
        assert summary["timeouts"] >= 1
        assert summary["failed"] == 1
        # the wedged worker is restarted alone — never a full pool rebuild
        assert summary["worker_restarts"] >= 1

    def test_pool_worker_crash_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_MARKER_DIR", str(tmp_path))
        executor = SweepExecutor(
            ExecutorConfig(workers=2, retries=1), point_fn=_crashy_point
        )
        rows = executor.run(_grid(3))
        assert [r["seed"] for r in rows] == [1, 2, 3]
        assert executor.summary()["worker_restarts"] >= 1
        assert executor.summary()["failed"] == 0


# -- config validation ----------------------------------------------------

class TestExecutorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"max_worker_restarts": -1},
            {"timeout": 0.0},
            {"retries": -1},
            {"on_failure": "explode"},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutorConfig(**kwargs)

    def test_summary_requires_a_run(self):
        with pytest.raises(RuntimeError):
            SweepExecutor().summary()

    def test_telemetry_summary_shape(self, tmp_path):
        cache = str(tmp_path / "cache")
        executor = SweepExecutor(
            ExecutorConfig(cache_dir=cache), point_fn=_tiny_point
        )
        executor.run(_grid(2))
        summary = executor.summary()
        for field in (
            "total_points", "executed", "cache_hits", "cache_misses",
            "resumed", "failed", "retries", "timeouts", "workers",
            "wall_time", "point_wall_total", "worker_utilization",
            "sim_events",
        ):
            assert field in summary
        assert summary["total_points"] == 2
