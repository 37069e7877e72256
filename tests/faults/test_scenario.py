"""End-to-end fault scenarios through BssScenario.

These are the deterministic satellite tests for the full degradation
loop: injected churn must drive evict -> reclaim -> recover -> re-admit
without ever breaking a structural invariant, and an *empty* plan must
arm the hardened semantics without injecting anything.
"""

import dataclasses

import pytest

from repro.experiments.config import sweep_config
from repro.faults import FaultPlan
from repro.validate.chaos import fault_mix
from repro.network import BssScenario


def faulted_config(mix_name, sim_time=30.0, warmup=4.0, seed=1):
    return dataclasses.replace(
        sweep_config("proposed", 1.0, seed, sim_time, warmup),
        monitor_invariants=True,
        faults=fault_mix(mix_name, sim_time, warmup),
    )


@pytest.fixture(scope="module")
def churn_results():
    return BssScenario(faulted_config("station-churn")).run()


class TestStationChurn:
    def test_structural_invariants_hold(self, churn_results):
        assert churn_results["invariant_violations"] == []

    def test_faults_were_actually_applied(self, churn_results):
        f = churn_results["faults"]
        assert f["station_crashes"] + f["station_freezes"] >= 4
        assert f["station_recoveries"] >= 1

    def test_evicted_bandwidth_is_reclaimed(self, churn_results):
        f = churn_results["faults"]
        assert f["evictions"] >= 1
        assert f["reclaimed_bandwidth"] > 0.0

    def test_recovered_station_is_readmitted(self, churn_results):
        f = churn_results["faults"]
        assert f["readmissions"] >= 1
        assert f["readmissions"] <= f["evictions"]

    def test_unreachable_stations_show_up_as_abnormal_nulls(
        self, churn_results
    ):
        # radio-down victims produce unreachable nulls (the poll loop
        # keeps running rather than blocking on the silent station)
        assert churn_results["faults"]["unreachable_nulls"] > 0


class TestControlLoss:
    @pytest.fixture(scope="class")
    def results(self):
        return BssScenario(faulted_config("control-loss", sim_time=20.0)).run()

    def test_structural_invariants_hold(self, results):
        assert results["invariant_violations"] == []

    def test_lost_polls_are_retried_then_escalated(self, results):
        f = results["faults"]
        assert f["poll_retries"] > 0
        assert f["frames_injected"].get("cf_poll", 0) > 0
        # a retried poll usually recovers; losses need 3 bad draws in a
        # row, so retries must dominate abandoned polls
        assert f["poll_retries"] > f["polls_lost"]

    def test_lost_cf_ends_fall_back_to_nav_expiry(self, results):
        f = results["faults"]
        assert f["cf_ends_lost"] > 0
        # most of those losses are the injector's doing (the base BER
        # contributes a handful of its own corruptions on top)
        assert f["frames_injected"].get("cf_end", 0) > 0
        assert f["cf_ends_lost"] >= f["frames_injected"]["cf_end"]


class TestEmptyPlanArmsHardeningOnly:
    @pytest.fixture(scope="class")
    def results(self):
        return BssScenario(
            dataclasses.replace(
                sweep_config("proposed", 1.0, 1, 10.0, 2.0),
                monitor_invariants=True,
                faults=FaultPlan(),
            )
        ).run()

    def test_nothing_is_injected(self, results):
        f = results["faults"]
        assert f["evictions"] == 0
        assert f["readmissions"] == 0
        assert f["reclaimed_bandwidth"] == 0.0
        assert f["ghost_polls"] == 0
        assert f["unreachable_nulls"] == 0
        assert "frames_injected" not in f  # no injector even attached
        assert "station_crashes" not in f  # no driver either

    def test_structural_invariants_hold(self, results):
        assert results["invariant_violations"] == []


def test_plan_free_run_carries_no_degradation_report():
    results = BssScenario(sweep_config("proposed", 1.0, 1, 8.0, 2.0)).run()
    assert "faults" not in results
