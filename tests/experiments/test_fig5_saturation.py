"""Edge cases of the Fig. 5 static-population builder."""

from repro.exec import PointRecord, SweepExecutor
from repro.experiments.figures import _static_bss
from repro.experiments.runner import sweep_grid


def test_oversized_population_saturates_gracefully():
    """Requesting more sources than admission allows must not crash;
    the reported population is what was actually admitted."""
    row = _static_bss(n_voice=40, n_video=40, seed=2, sim_time=2.0)
    assert 0 < row["n_voice"] < 40
    assert 0 <= row["n_video"] < 40
    # bounds are reported for the admitted set only
    assert row["analytic_max_jitter"] > 0


def test_zero_population_yields_zero_bounds():
    row = _static_bss(n_voice=0, n_video=0, seed=1, sim_time=0.5)
    assert row["n_voice"] == 0 and row["n_video"] == 0
    assert row["analytic_max_jitter"] == 0.0
    assert row["simulated_max_jitter"] == 0.0
    assert row["analytic_max_delay"] == 0.0


def test_voice_only_population():
    row = _static_bss(n_voice=2, n_video=0, seed=1, sim_time=3.0)
    assert row["n_voice"] == 2
    assert row["analytic_max_delay"] == 0.0
    assert row["simulated_max_jitter"] <= row["analytic_max_jitter"]


def test_sweep_progress_callback_invoked():
    records = []
    SweepExecutor(progress=records.append).run(
        sweep_grid(["proposed", "conventional"], loads=[0.5], seeds=[1],
                   sim_time=4.0, warmup=1.0)
    )
    assert all(isinstance(r, PointRecord) for r in records)
    assert [(r.scheme, r.status) for r in records] == [
        ("proposed", "executed"), ("conventional", "executed"),
    ]
