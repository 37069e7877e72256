"""End-to-end tests of the BSS scenario assembly (all three schemes)."""

import pytest

from repro.exec import ExecutorConfig, SweepExecutionError, SweepExecutor
from repro.network import SCHEMES, BssScenario, ScenarioConfig
from repro.traffic.data import PoissonDataSource


def quick_cfg(**kw):
    defaults = dict(
        sim_time=12.0, warmup=2.0, seed=7,
        new_voice_rate=0.4, new_video_rate=0.2,
        handoff_voice_rate=0.2, handoff_video_rate=0.1,
        mean_holding=8.0, n_data_stations=2,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_scheme_runs_and_reports(scheme):
    r = BssScenario(quick_cfg(scheme=scheme)).run()
    assert r["scheme"] == scheme
    assert r["data_delivered"] > 0
    assert 0 <= r["dropping_probability"] <= 1
    assert 0 <= r["blocking_probability"] <= 1
    assert 0 < r["channel_busy_fraction"] < 1


def test_same_seed_same_results():
    a = BssScenario(quick_cfg()).run()
    b = BssScenario(quick_cfg()).run()
    assert a == b


def test_different_seeds_differ():
    a = BssScenario(quick_cfg(seed=1)).run()
    b = BssScenario(quick_cfg(seed=2)).run()
    assert a["voice_delay_mean"] != b["voice_delay_mean"]


def test_common_random_numbers_across_schemes():
    """Same seed => both schemes face identical call arrival counts."""
    a = BssScenario(quick_cfg(scheme="proposed")).run()
    b = BssScenario(quick_cfg(scheme="conventional")).run()
    assert a["call_attempts_new"] == b["call_attempts_new"]
    assert a["call_attempts_handoff"] == b["call_attempts_handoff"]


def test_load_scales_offered_traffic():
    lo = BssScenario(quick_cfg(load=0.5)).run()
    hi = BssScenario(quick_cfg(load=2.0)).run()
    assert hi["call_attempts_new"] > lo["call_attempts_new"]
    assert hi["data_delivered"] > lo["data_delivered"]


def test_proposed_beats_conventional_on_rt_delay():
    """The headline result at moderate-heavy load."""
    cfg = dict(sim_time=30.0, warmup=4.0, seed=3, load=1.0,
               new_voice_rate=0.3, new_video_rate=0.2,
               handoff_voice_rate=0.15, handoff_video_rate=0.1,
               mean_holding=20.0)
    p = BssScenario(ScenarioConfig(scheme="proposed", **cfg)).run()
    c = BssScenario(ScenarioConfig(scheme="conventional", **cfg)).run()
    assert p["voice_delay_mean"] < c["voice_delay_mean"]
    assert p["video_delay_mean"] < c["video_delay_mean"]


def test_analytic_bounds_exposed_for_proposed():
    r = BssScenario(quick_cfg(scheme="proposed")).run()
    assert "analytic_voice_bounds" in r
    assert all(b > 0 for b in r["analytic_voice_bounds"])


def test_jitter_within_budget_for_proposed():
    r = BssScenario(quick_cfg(scheme="proposed", sim_time=20.0)).run()
    # expired packets are dropped, so observed jitter of delivered
    # packets stays within the voice jitter budget
    assert r["worst_voice_jitter"] <= 0.03 + 1e-9


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(scheme="bogus")
    with pytest.raises(ValueError):
        ScenarioConfig(sim_time=1.0, warmup=2.0)
    with pytest.raises(ValueError):
        ScenarioConfig(load=0)


def test_offered_load_estimate_positive_and_monotone():
    a = quick_cfg(load=1.0)
    b = quick_cfg(load=2.0)
    assert 0 < a.offered_load_bps() < b.offered_load_bps()
    assert a.normalized_load() < 1.0


@pytest.fixture
def data_source_raising_after_three_arrivals(monkeypatch):
    """``data/1``'s source process raises after its third arrival."""
    original_run = PoissonDataSource._run

    def run(self):
        body = original_run(self)
        if self.source_id != "data/1":
            yield from body
            return
        for arrivals, delay in enumerate(body):
            if arrivals == 3:
                raise ZeroDivisionError("data/1 source failed")
            yield delay

    monkeypatch.setattr(PoissonDataSource, "_run", run)
    return ScenarioConfig(
        scheme="conventional", n_data_stations=4, load=2.0, seed=7,
        sim_time=3.0, warmup=0.5,
    )


def test_a_failing_process_stops_the_run(data_source_raising_after_three_arrivals):
    # a swallowed failure would return a plausible row with one
    # station's traffic missing
    with pytest.raises(ZeroDivisionError, match="data/1"):
        BssScenario(data_source_raising_after_three_arrivals).run()


def test_a_failing_process_fails_its_sweep_point_uncached(
    data_source_raising_after_three_arrivals, tmp_path
):
    cache_dir = tmp_path / "cache"
    executor = SweepExecutor(ExecutorConfig(cache_dir=str(cache_dir)))
    with pytest.raises(SweepExecutionError, match="ZeroDivisionError"):
        executor.run([data_source_raising_after_three_arrivals])
    assert not list(cache_dir.rglob("*.json"))
