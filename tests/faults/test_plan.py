"""FaultPlan serialization: validation, round-trips, config identity."""

import dataclasses
import json

import pytest

from repro.exec import config_key
from repro.faults import (
    FaultPlan,
    FrameLossRule,
    GilbertElliottParams,
    StationFault,
)
from repro.network.bss import ScenarioConfig


class TestGilbertElliottParams:
    def test_stationary_bad_formula(self):
        p = GilbertElliottParams(p_good_to_bad=0.02, p_bad_to_good=0.18)
        assert p.stationary_bad == pytest.approx(0.02 / 0.20)

    @pytest.mark.parametrize("field", ["p_good_to_bad", "p_bad_to_good"])
    @pytest.mark.parametrize("value", [0.0, -0.1, 1.5])
    def test_transition_probabilities_validated(self, field, value):
        kwargs = {"p_good_to_bad": 0.1, "p_bad_to_good": 0.1, field: value}
        with pytest.raises(ValueError):
            GilbertElliottParams(**kwargs)

    @pytest.mark.parametrize("field", ["ber_good", "ber_bad"])
    @pytest.mark.parametrize("value", [-1e-6, 1.0])
    def test_bers_validated(self, field, value):
        kwargs = {"p_good_to_bad": 0.1, "p_bad_to_good": 0.1, field: value}
        with pytest.raises(ValueError):
            GilbertElliottParams(**kwargs)


class TestFrameLossRule:
    def test_active_window(self):
        rule = FrameLossRule("cf_poll", 0.5, start=1.0, end=2.0)
        assert not rule.active(0.5)
        assert rule.active(1.0)
        assert rule.active(1.999)
        assert not rule.active(2.0)

    def test_open_ended_window(self):
        assert FrameLossRule("ack", 0.5).active(1e9)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"probability": -0.1},
            {"probability": 1.1},
            {"probability": 0.5, "start": -1.0},
            {"probability": 0.5, "start": 2.0, "end": 2.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FrameLossRule("cf_poll", **kwargs)

    @pytest.mark.parametrize("ftype", ["cf-poll", "CF_POLL", "Ack", "cfpoll", "rts", "cts", ""])
    def test_a_rule_must_name_a_frame_type(self, ftype):
        # a misspelt type would match no frame and inject nothing
        with pytest.raises(ValueError, match="ftype must be one of"):
            FrameLossRule(ftype, 0.5)


class TestStationFault:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"at": -1.0},
            {"at": 1.0, "mode": "explode"},
            {"at": 1.0, "duration": 0.0},
            {"at": 1.0, "kind": "data"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StationFault(**kwargs)


def full_plan() -> FaultPlan:
    return FaultPlan(
        gilbert_elliott=GilbertElliottParams(
            p_good_to_bad=0.02, p_bad_to_good=0.2, ber_good=1e-6, ber_bad=2e-4
        ),
        frame_loss=(
            FrameLossRule("cf_poll", 0.2),
            FrameLossRule("cf_end", 0.5, start=3.0, end=9.0),
        ),
        station_faults=(
            StationFault(at=5.0, mode="freeze", duration=2.0),
            StationFault(at=8.0, mode="crash", duration=None, kind="voice"),
        ),
    )


class TestFaultPlan:
    def test_empty_plan_injects_nothing(self):
        assert not FaultPlan().injects_anything
        assert full_plan().injects_anything

    def test_lists_coerced_to_tuples(self):
        plan = FaultPlan(
            frame_loss=[FrameLossRule("ack", 0.1)],
            station_faults=[StationFault(at=1.0)],
        )
        assert isinstance(plan.frame_loss, tuple)
        assert isinstance(plan.station_faults, tuple)

    def test_roundtrips_through_json(self):
        plan = full_plan()
        rebuilt = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert rebuilt == plan
        assert isinstance(rebuilt.gilbert_elliott, GilbertElliottParams)
        assert all(isinstance(r, FrameLossRule) for r in rebuilt.frame_loss)
        assert all(isinstance(f, StationFault) for f in rebuilt.station_faults)

    def test_empty_plan_roundtrips(self):
        plan = FaultPlan()
        assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan


class TestScenarioConfigIntegration:
    def test_default_config_has_no_plan(self):
        cfg = ScenarioConfig()
        assert cfg.faults is None
        assert cfg.to_dict()["faults"] is None

    def test_faulted_config_roundtrips_through_json(self):
        cfg = dataclasses.replace(ScenarioConfig(), faults=full_plan())
        rebuilt = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert rebuilt == cfg
        assert isinstance(rebuilt.faults, FaultPlan)

    def test_plan_is_part_of_the_content_address(self):
        base = ScenarioConfig()
        armed = dataclasses.replace(base, faults=FaultPlan())
        injecting = dataclasses.replace(base, faults=full_plan())
        keys = {config_key(base), config_key(armed), config_key(injecting)}
        assert len(keys) == 3  # None, empty plan, full plan all differ
