"""Chaos harness: mixes, grids, report aggregation and gating."""

import json

import pytest

from repro.faults import chaos
from repro.faults.chaos import (
    CHAOS_TIERS,
    MIX_NAMES,
    ChaosTierSpec,
    chaos_grid,
    fault_mix,
    run_chaos,
)
from repro.obs.jsonutil import write_json

TINY = ChaosTierSpec(
    name="tiny",
    description="two-mix fixture tier",
    schemes=("proposed",),
    loads=(1.0,),
    seeds=(1,),
    sim_time=10.0,
    warmup=2.0,
    mixes=("baseline", "control-loss"),
)


class FakeExecutor:
    """Returns pre-baked rows in input order, like SweepExecutor."""

    def __init__(self, rows):
        self.rows = list(rows)
        self.configs = None

    def run(self, configs):
        self.configs = list(configs)
        assert len(self.configs) == len(self.rows)
        return self.rows

    def summary(self):
        return {"workers": 1, "total_points": len(self.rows)}


def fake_row(violations=0, breaches=(), delivered=90, lost=10, **counters):
    faults = dict(counters)
    faults["qos_breaches"] = list(breaches)
    faults.setdefault("reclaimed_bandwidth", 0.0)
    return {
        "invariant_violations": [{"kind": "x"}] * violations,
        "faults": faults,
        "voice_delivered": delivered,
        "voice_losses": lost,
    }


class TestMixes:
    def test_every_named_mix_builds(self):
        for name in MIX_NAMES:
            plan = fault_mix(name, 30.0, 4.0)
            assert plan.injects_anything == (name != "baseline")

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            fault_mix("meteor-strike", 30.0, 4.0)

    def test_combined_mix_exercises_all_three_families(self):
        plan = fault_mix("combined", 30.0, 4.0)
        assert plan.gilbert_elliott is not None
        assert plan.frame_loss and plan.station_faults

    def test_churn_schedule_lands_inside_the_measured_window(self):
        sim_time, warmup = 30.0, 4.0
        plan = fault_mix("station-churn", sim_time, warmup)
        for fault in plan.station_faults:
            assert warmup < fault.at < sim_time


class TestGrid:
    def test_grid_points_property_matches_grid_length(self):
        assert len(chaos_grid(TINY)) == TINY.grid_points == 2
        smoke = CHAOS_TIERS["smoke"]
        assert len(chaos_grid(smoke)) == smoke.grid_points

    def test_grid_configs_carry_plans_and_armed_monitors(self):
        pairs = chaos_grid(TINY)
        assert [mix for mix, _ in pairs] == ["baseline", "control-loss"]
        for _, cfg in pairs:
            assert cfg.monitor_invariants
            assert cfg.faults is not None
        assert not pairs[0][1].faults.injects_anything
        assert pairs[1][1].faults.injects_anything

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            chaos_grid("nope")


class TestReportGating:
    def test_clean_run_passes(self):
        report = run_chaos(
            TINY,
            executor=FakeExecutor(
                [fake_row(), fake_row(poll_retries=3, polls_lost=1)]
            ),
        )
        assert report.passed and report.structural_clean
        assert report.baseline_clean
        assert report.grid_rows == 2
        by_name = {m.name: m for m in report.mixes}
        assert by_name["control-loss"].counters["poll_retries"] == 3
        assert by_name["control-loss"].counters["polls_lost"] == 1
        assert by_name["baseline"].rt_delivery_ratio == pytest.approx(0.9)

    def test_breach_under_injection_is_reported_not_gated(self):
        breach = {
            "station": "v0", "kind": "voice",
            "measured": 0.06, "budget": 0.03,
        }
        report = run_chaos(
            TINY,
            executor=FakeExecutor([fake_row(), fake_row(breaches=[breach])]),
        )
        assert report.passed  # degradation under faults is expected
        injected = report.mixes[1]
        assert injected.qos_breaches == 1
        assert injected.worst_breach_ratio == pytest.approx(2.0)

    def test_baseline_breach_fails_the_gate(self):
        breach = {"station": "v0", "kind": "voice",
                  "measured": 0.05, "budget": 0.03}
        report = run_chaos(
            TINY,
            executor=FakeExecutor([fake_row(breaches=[breach]), fake_row()]),
        )
        assert not report.baseline_clean
        assert not report.passed
        assert report.structural_clean

    def test_structural_violation_fails_every_mix(self):
        report = run_chaos(
            TINY,
            executor=FakeExecutor([fake_row(), fake_row(violations=2)]),
        )
        assert not report.structural_clean
        assert not report.passed
        assert report.mixes[1].invariant_violations == 2

    def test_reclaimed_bandwidth_is_summed(self):
        report = run_chaos(
            TINY,
            executor=FakeExecutor(
                [fake_row(), fake_row(evictions=2, readmissions=1,
                                      reclaimed_bandwidth=0.04)]
            ),
        )
        injected = report.mixes[1]
        assert injected.counters["evictions"] == 2
        assert injected.counters["readmissions"] == 1
        assert injected.reclaimed_bandwidth == pytest.approx(0.04)


class TestReportArtifact:
    def make_report(self):
        return run_chaos(TINY, executor=FakeExecutor([fake_row(), fake_row()]))

    def test_save_writes_loadable_json(self, tmp_path):
        report = self.make_report()
        path = write_json(tmp_path / "sub" / "report.json", report.to_dict())
        data = json.loads(path.read_text())
        assert data["passed"] is True
        assert data["tier"] == "tiny"
        assert [m["name"] for m in data["mixes"]] == list(TINY.mixes)
        assert data["telemetry"]["workers"] == 1

    def test_render_summarizes_each_mix(self):
        text = self.make_report().render()
        assert "PASSED" in text
        for name in TINY.mixes:
            assert f"[{name}]" in text

    def test_every_summed_counter_survives_serialization(self):
        data = self.make_report().to_dict()
        for mix in data["mixes"]:
            assert set(chaos._SUMMED_COUNTERS) <= set(mix["counters"])
