"""Tier specs, validation_grid, ValidationReport, and the CLI wiring."""

import json

import pytest

from repro.__main__ import main
from repro.exec import PointFailure, SweepExecutionError, SweepExecutor
from repro.network.bss import SCHEMES, ScenarioConfig
from repro.obs.jsonutil import write_json
from repro.validate import (
    TIERS,
    ClaimResult,
    TierSpec,
    ValidationReport,
    run_validation,
    validation_grid,
)


class TestTiers:
    def test_both_tiers_exist_and_are_consistent(self):
        for name, spec in TIERS.items():
            assert spec.name == name
            assert spec.schemes == SCHEMES
            assert spec.sim_time > spec.warmup
            assert spec.grid_points == (
                len(spec.schemes) * len(spec.loads) * len(spec.seeds)
            )
        assert len(TIERS["smoke"].loads) < len(TIERS["full"].loads)

    def test_smoke_loads_are_a_subset_reaching_the_heavy_extreme(self):
        smoke, full = TIERS["smoke"], TIERS["full"]
        assert set(smoke.loads) <= set(full.loads)
        assert max(smoke.loads) == max(full.loads)


class TestValidationGrid:
    def test_grid_is_monitored_and_complete(self):
        spec = TIERS["smoke"]
        grid = validation_grid("smoke")
        assert len(grid) == spec.grid_points
        assert all(isinstance(c, ScenarioConfig) for c in grid)
        assert all(c.monitor_invariants for c in grid)
        assert {c.scheme for c in grid} == set(spec.schemes)
        assert {c.load for c in grid} == set(spec.loads)

    def test_unknown_tier_raises(self):
        with pytest.raises(ValueError, match="unknown tier"):
            validation_grid("bogus")

    def test_custom_spec_accepted(self):
        spec = TierSpec(
            name="tiny", description="", schemes=("proposed",),
            loads=(1.0,), seeds=(1,), sim_time=10.0, warmup=1.0,
            fig5_populations=((1, 1),), fig5_sim_time=5.0,
        )
        grid = validation_grid(spec)
        assert len(grid) == 1 and grid[0].sim_time == 10.0


def _report(statuses):
    claims = tuple(
        ClaimResult(f"claim{i}", passed, f"detail {i}")
        for i, passed in enumerate(statuses)
    )
    return ValidationReport("smoke", claims, grid_rows=18, fig5_rows=3)


class TestValidationReport:
    def test_pass_fail_skip_partition(self):
        report = _report([True, False, None])
        assert not report.passed
        assert len(report.failed) == 1
        assert len(report.skipped) == 1
        assert _report([True, None]).passed  # skips are not failures

    def test_to_dict_counts_and_shape(self):
        d = _report([True, False, None]).to_dict()
        assert d["counts"] == {"pass": 1, "fail": 1, "skip": 1}
        assert d["passed"] is False
        assert len(d["claims"]) == 3

    def test_save_writes_json(self, tmp_path):
        path = write_json(
            tmp_path / "sub" / "report.json", _report([True]).to_dict()
        )
        loaded = json.loads(path.read_text())
        assert loaded["passed"] is True and loaded["tier"] == "smoke"

    def test_render_marks_each_claim(self):
        text = _report([True, False, None]).render()
        assert "FAILED" in text.splitlines()[0]
        assert "[PASS] claim0" in text
        assert "[FAIL] claim1" in text
        assert "[skip] claim2" in text


def _fake_point_fn(config: ScenarioConfig) -> dict:
    """Deterministic synthetic metrics shaped like the calibrated runs."""
    heavy = config.load >= max(TIERS["smoke"].loads)
    prop = config.scheme != "conventional"
    jit = config.seed * 1e-3
    return {
        "scheme": config.scheme,
        "load": config.load,
        "seed": config.seed,
        "dropping_probability": (0.1 if prop else 0.48) + jit if heavy else 0.0,
        "blocking_probability": (0.98 if prop else 0.48) + jit / 10 if heavy else 0.1,
        "voice_delay_mean": (0.0025 if prop else 0.0087) + jit / 10,
        "voice_delay_var": 1e-6 if prop else 7e-5,
        "video_delay_mean": (0.006 if prop else 0.027) + jit / 10,
        "data_delay_mean": ((0.15 if prop else 0.06) if heavy else 0.01) + jit,
        "goodput_utilization": (0.22 if prop else 0.25) if heavy else 0.1,
        "channel_busy_fraction": (0.64 if prop else 0.87) if heavy else 0.3,
        "invariant_violations": [],
        "events_processed": 10,
    }


class TestRunValidation:
    def test_smoke_passes_on_synthetic_rows(self):
        executor = SweepExecutor(point_fn=_fake_point_fn)
        report = run_validation("smoke", executor=executor, include_fig5=False)
        assert report.tier == "smoke"
        assert report.grid_rows == TIERS["smoke"].grid_points
        assert report.fig5_rows == 0
        assert not report.failed
        by_id = {c.claim_id: c for c in report.claims}
        assert by_id["fig5.bounds-conservative"].status == "skip"
        assert by_id["invariants.clean"].status == "pass"
        assert report.telemetry["total_points"] == report.grid_rows

    def test_broken_scheme_fails_the_specific_claim(self):
        def broken(config):
            row = _fake_point_fn(config)
            if config.scheme == "proposed":
                # e.g. Theorem 2 voice order reversed: the delay win is gone
                row["voice_delay_mean"] = 0.02
            return row

        executor = SweepExecutor(point_fn=broken)
        report = run_validation("smoke", executor=executor, include_fig5=False)
        assert not report.passed
        failed = {c.claim_id for c in report.failed}
        assert "fig8.voice-delay-proposed-wins" in failed


class TestValidateCli:
    def _patch(self, monkeypatch, report=None, error=None):
        def fake_run_validation(tier, *, executor=None, **kwargs):
            if error is not None:
                raise error
            executor.run([])  # so executor.summary() works
            return report

        monkeypatch.setattr("repro.validate.run_validation", fake_run_validation)

    def test_pass_exits_zero_and_writes_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._patch(monkeypatch, report=_report([True, None]))
        out = tmp_path / "verdict.json"
        assert main(["validate", "--tier", "smoke", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True
        assert "PASSED" in capsys.readouterr().out

    def test_failed_claims_exit_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._patch(monkeypatch, report=_report([True, False]))
        assert main(["validate", "--out", str(tmp_path / "v.json")]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_permanently_failed_points_exit_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        failure = PointFailure(0, ScenarioConfig(), "RuntimeError('boom')")
        self._patch(monkeypatch, error=SweepExecutionError([failure]))
        assert main(["validate"]) == 2
        err = capsys.readouterr().err
        assert "permanently failed" in err and "boom" in err
