"""Tests for the roaming-call helpers and the ESS handoff injection."""

import json

import pytest

from repro.network import (
    ROAM_KINDS,
    BssScenario,
    EssCellContext,
    ScenarioConfig,
    draw_roam_step,
)
from repro.sim import RandomStreams


class TestDrawRoamStep:
    def test_short_holding_ends_the_call(self):
        class FixedRng:
            def __init__(self, draws):
                self.draws = iter(draws)

            def exponential(self, mean):
                return next(self.draws) * mean

        dwell, ends = draw_roam_step(FixedRng([0.5, 2.0]), 10.0, 10.0)
        assert ends and dwell == pytest.approx(5.0)
        dwell, ends = draw_roam_step(FixedRng([2.0, 0.5]), 10.0, 10.0)
        assert not ends and dwell == pytest.approx(5.0)

    def test_completion_probability_matches_race(self):
        # P(call ends before moving) = residence / (holding + residence)
        rng = RandomStreams(11).get("roamstep")
        ends = sum(
            draw_roam_step(rng, 30.0, 10.0)[1] for _ in range(4000)
        )
        assert ends / 4000 == pytest.approx(0.25, abs=0.03)


class TestEssCellContext:
    def test_round_trips_through_json(self):
        ctx = EssCellContext(
            cell="ap/1x2", epoch=3, epoch_start=90.0,
            handoff_arrivals=((2.0, "voice"), (4.5, "video")),
        )
        rebuilt = EssCellContext.from_dict(json.loads(json.dumps(ctx.to_dict())))
        assert rebuilt == ctx
        assert isinstance(rebuilt.handoff_arrivals, tuple)

    def test_validation(self):
        with pytest.raises(ValueError):
            EssCellContext(cell="")
        with pytest.raises(ValueError):
            EssCellContext(cell="ap/0x0", epoch=-1)
        with pytest.raises(ValueError):
            EssCellContext(cell="ap/0x0", epoch_start=-1.0)
        with pytest.raises(ValueError):
            EssCellContext(cell="ap/0x0", handoff_arrivals=((-1.0, "voice"),))
        with pytest.raises(ValueError):
            EssCellContext(cell="ap/0x0", handoff_arrivals=((1.0, "data"),))

    def test_arrivals_normalized_to_floats(self):
        ctx = EssCellContext(cell="ap/0x0", handoff_arrivals=((1, "voice"),))
        assert ctx.handoff_arrivals == ((1.0, "voice"),)

    def test_roam_kinds_cover_rt_classes(self):
        assert ROAM_KINDS == ("voice", "video")


class TestEssHandoffInjection:
    def test_context_arrivals_are_injected_on_schedule(self):
        cfg = ScenarioConfig(
            scheme="proposed", seed=5, sim_time=8.0, warmup=1.0,
            new_voice_rate=0.2, new_video_rate=0.1,
            handoff_voice_rate=0.0, handoff_video_rate=0.0,
            mean_holding=20.0, n_data_stations=2,
            ess=EssCellContext(
                cell="ap/0x0", epoch=1, epoch_start=30.0,
                handoff_arrivals=((2.0, "voice"), (3.0, "video"), (9.5, "voice")),
            ),
        )
        r = BssScenario(cfg).run()
        # the 9.5 s arrival lands beyond sim_time and must not fire
        assert r["ess"]["handoffs_scheduled"] == 3
        assert r["ess"]["handoffs_injected"] == 2
        assert r["ess"]["cell"] == "ap/0x0"
        assert r["ess"]["epoch"] == 1

    def test_single_bss_rows_carry_no_ess_block(self):
        cfg = ScenarioConfig(scheme="proposed", seed=5, sim_time=5.0,
                             warmup=1.0)
        r = BssScenario(cfg).run()
        assert "ess" not in r


class TestScenarioIntegration:
    def test_invalid_mobility_rejected(self):
        # "poisson" is the one handoff model; the ESS models neighbours
        for mobility in ("teleport", "neighborhood"):
            with pytest.raises(ValueError, match="mobility must be 'poisson'"):
                ScenarioConfig(mobility=mobility)
