"""Exit codes of ``chaos``, ``redteam`` and ``serve``, with stubbed runners,
and of every command given a flag value its config rejects.

Each test replaces the subsystem entry point the handler imports at
call time, so only the CLI wiring runs: report writing, the summary
line and the mapping from outcome to exit code.
"""

import json

import pytest

from repro.__main__ import main
from repro.exec import PointFailure, SweepExecutionError
from repro.network.bss import ScenarioConfig


class FakeReport:
    """The slice of a chaos or campaign report the CLI touches."""

    tier = "smoke"

    def __init__(self, passed=True, new_unarchived=0):
        self.passed = passed
        self.new_unarchived = new_unarchived

    def to_dict(self):
        return {"passed": self.passed}

    def render(self):
        return "PASSED" if self.passed else "FAILED"


def _failure():
    return SweepExecutionError(
        [PointFailure(0, ScenarioConfig(), "RuntimeError('boom')")]
    )


class TestChaos:
    @pytest.fixture
    def stub(self, monkeypatch):
        def install(report=None, error=None):
            def fake_run_chaos(tier, *, executor=None):
                if error is not None:
                    raise error
                executor.run([])  # so the summary line has telemetry
                return report

            monkeypatch.setattr("repro.validate.chaos.run_chaos", fake_run_chaos)

        return install

    def test_passing_tier_exits_zero_and_writes_report(
        self, tmp_path, stub, capsys
    ):
        stub(report=FakeReport(passed=True))
        out = tmp_path / "chaos.json"
        assert main(["chaos", "--no-cache", "--journal",
                     str(tmp_path / "j.jsonl"), "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"passed": True}
        captured = capsys.readouterr()
        assert "PASSED" in captured.out
        assert "grid: 0 points" in captured.err
        assert "degradation report written to" in captured.err

    def test_failed_gates_exit_one(self, tmp_path, stub):
        stub(report=FakeReport(passed=False))
        assert main(["chaos", "--no-cache", "--journal",
                     str(tmp_path / "j.jsonl"),
                     "--out", str(tmp_path / "chaos.json")]) == 1

    def test_permanently_failed_points_exit_two(self, tmp_path, stub, capsys):
        stub(error=_failure())
        assert main(["chaos", "--no-cache", "--journal",
                     str(tmp_path / "j.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "permanently failed after retries" in err and "boom" in err


class TestRedteam:
    @pytest.fixture
    def stub(self, monkeypatch):
        def install(report=None, error=None):
            def fake_run_campaign(config, evaluator, archive_dir=None):
                if error is not None:
                    raise error
                return report

            monkeypatch.setattr("repro.redteam.run_campaign", fake_run_campaign)

        return install

    def args(self, tmp_path):
        return ["redteam", "--no-archive", "--out", str(tmp_path / "c.json")]

    def test_archived_breaches_only_exit_zero(self, tmp_path, stub, capsys):
        stub(report=FakeReport(new_unarchived=0))
        assert main(self.args(tmp_path)) == 0
        assert (tmp_path / "c.json").exists()
        assert "campaign report written to" in capsys.readouterr().err

    def test_campaign_runtime_error_exits_one(self, tmp_path, stub, capsys):
        stub(error=RuntimeError("pool died"))
        assert main(self.args(tmp_path)) == 1
        assert "campaign execution failed: pool died" in capsys.readouterr().err

    def test_campaign_sweep_failure_exits_one(self, tmp_path, stub):
        stub(error=_failure())
        assert main(self.args(tmp_path)) == 1

    def test_new_unarchived_breach_exits_two(self, tmp_path, stub):
        stub(report=FakeReport(new_unarchived=1))
        assert main(self.args(tmp_path)) == 2


class TestServe:
    def test_empty_cache_directory_exits_one(self, tmp_path, capsys):
        code = main(["serve", "--cache-dir", str(tmp_path), "--port", "0"])
        assert code == 1
        assert "no sweep surfaces" in capsys.readouterr().err


class TestBadFlagValues:
    """A flag value a config rejects exits 2 like a malformed flag:
    argparse's ``error:`` line, no traceback, nothing simulated."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # grid commands default into ./.repro-cache

        def started(*args, **kwargs):
            raise AssertionError("a simulation started")

        monkeypatch.setattr("repro.sim.engine.Simulator.run", started)
        monkeypatch.setattr("repro.exec.SweepExecutor.run", started)
        monkeypatch.setattr("repro.ess.EssCoordinator.run", started)

    @pytest.mark.parametrize("argv", [
        ["validate", "--timeout", "0"],
        ["chaos", "--timeout", "-1"],
        ["sweep", "--loads", "-1"],
        ["ess", "--epoch", "0"],
        ["redteam", "--explore", "2"],
        ["trace", "--capacity", "-5"],
        ["quick", "--time", "-1"],
        ["sweep", "--seeds", "0"],
        ["fig5", "--time", "0"],
        ["ess", "--rows", "2", "--cols", "2", "--epochs", "1",
         "--fault", "ap/0x0-ap/9x9"],
        ["ess", "--rows", "2", "--cols", "2", "--epochs", "1",
         "--ap-fault", "ap/7x7"],
    ], ids="_".join)
    def test_exits_two_with_an_error_line(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []
