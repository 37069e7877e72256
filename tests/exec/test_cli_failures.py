"""`python -m repro sweep` must exit nonzero when points permanently
fail after retries, in both serial and pool mode, and the executor must
keep a failure record in skip mode."""

import pytest

import repro.exec.executor as executor_mod
from repro.__main__ import main
from repro.exec import ExecutorConfig, SweepExecutionError, SweepExecutor
from repro.network.bss import ScenarioConfig


def _exploding_point_fn(config: ScenarioConfig) -> dict:
    if config.scheme == "conventional":
        raise RuntimeError(f"injected fault at seed={config.seed}")
    return {
        "scheme": config.scheme,
        "load": config.load,
        "seed": config.seed,
        "events_processed": 1,
    }


@pytest.fixture
def broken_default_point_fn(monkeypatch):
    """Make the CLI's worker function fail for one scheme.

    Patched on the module attribute: serial mode resolves
    ``default_point_fn`` at call time, and pool mode inherits the
    patched module through fork, so both paths see the fault.
    """
    monkeypatch.setattr(executor_mod, "default_point_fn", _exploding_point_fn)


SWEEP_ARGS = [
    "sweep", "--loads", "1.0", "--seeds", "1", "--time", "5",
    "--no-cache", "--journal", "journal.jsonl",
]


class TestSweepCliExitCode:
    def test_serial_permanent_failure_exits_two(
        self, tmp_path, monkeypatch, capsys, broken_default_point_fn
    ):
        monkeypatch.chdir(tmp_path)
        assert main(SWEEP_ARGS) == 2
        err = capsys.readouterr().err
        assert "permanently failed after retries" in err
        assert "injected fault" in err
        assert "conventional" in err

    def test_pool_permanent_failure_exits_two(
        self, tmp_path, monkeypatch, capsys, broken_default_point_fn
    ):
        monkeypatch.chdir(tmp_path)
        assert main(SWEEP_ARGS + ["--workers", "2"]) == 2
        assert "permanently failed after retries" in capsys.readouterr().err

    def test_healthy_subset_still_exits_zero(
        self, tmp_path, monkeypatch, capsys, broken_default_point_fn
    ):
        monkeypatch.chdir(tmp_path)
        assert main(SWEEP_ARGS + ["--schemes", "proposed"]) == 0


class TestSkipModeFailureRecord:
    @pytest.fixture(autouse=True)
    def _no_retries(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "RETRIES", 0)

    def test_failures_attribute_survives_skip_mode(self):
        executor = SweepExecutor(
            ExecutorConfig(on_failure="skip"),
            point_fn=_exploding_point_fn,
        )
        grid = [
            ScenarioConfig(scheme=s, seed=1, sim_time=5.0, warmup=1.0)
            for s in ("proposed", "conventional")
        ]
        rows = executor.run(grid)
        assert len(rows) == 1  # the failed point is dropped, not raised
        assert len(executor.failures) == 1
        assert executor.failures[0].config.scheme == "conventional"
        assert "injected fault" in executor.failures[0].error

    def test_raise_mode_carries_the_same_record(self):
        executor = SweepExecutor(
            ExecutorConfig(), point_fn=_exploding_point_fn
        )
        grid = [
            ScenarioConfig(scheme="conventional", seed=1, sim_time=5.0, warmup=1.0)
        ]
        with pytest.raises(SweepExecutionError) as excinfo:
            executor.run(grid)
        assert executor.failures == excinfo.value.failures
