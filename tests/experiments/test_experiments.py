"""Tests for the experiments package: tables, sweeps, figure generators."""

import pytest

from repro.exec import default_point_fn
from repro.experiments import (
    EVALUATION_LOADS,
    average_over_seeds,
    fig5,
    fig6,
    fig8,
    fig11,
    format_table,
    render_table1,
    render_table2,
    run_sweep,
    sweep_config,
    table1,
    table2,
)


class TestTables:
    def test_table1_matches_paper_example(self):
        rows = table1(alphas=(4, 4, 8), beta=0, stages=2)
        by_key = {(r["priority"], r["retry stage"]): r["backoff slots"] for r in rows}
        assert by_key[(0, 0)] == "0-3"
        assert by_key[(1, 0)] == "4-7"
        assert by_key[(2, 0)] == "8-15"
        assert by_key[(0, 1)] == "0-7"
        assert by_key[(2, 1)] == "16-31"

    def test_table1_labels_match_paper_classes(self):
        rows = table1()
        classes = {r["traffic class"] for r in rows}
        assert any("handoff" in c for c in classes)
        assert any("reactivation" in c or "inactivated" in c for c in classes)
        assert any("data" in c for c in classes)

    def test_table2_has_paper_stated_values(self):
        entries = {r["parameter"]: r["value"] for r in table2()}
        assert entries["voice talk spurt (on)"] == "exp(mean 1.35 s)"
        assert entries["voice silence (off)"] == "exp(mean 1.5 s)"
        assert entries["video delay bound D"] == "50 ms"
        assert entries["data MSDU length"] == "exp(mean 1024 octets)"
        assert entries["superframe (conventional)"] == "75 ms"
        assert entries["CFP maximum (conventional)"] == "50 ms"

    def test_render_tables_nonempty(self):
        assert "Table I" in render_table1()
        assert "Table II" in render_table2()


class TestRunner:
    def test_sweep_config_valid_for_all_loads(self):
        for load in EVALUATION_LOADS:
            cfg = sweep_config("proposed", load, 1)
            assert cfg.load == load

    def test_default_point_fn_returns_results(self):
        cfg = sweep_config("proposed", 0.5, 1, sim_time=8.0, warmup=1.0)
        r = default_point_fn(cfg)
        assert r["scheme"] == "proposed"

    def test_run_sweep_grid_size(self):
        rows = run_sweep(
            ["proposed"], loads=[0.5], seeds=[1, 2], sim_time=6.0, warmup=1.0
        )
        assert len(rows) == 2

    def test_average_over_seeds(self):
        rows = [
            {"scheme": "p", "load": 1.0, "x": 1.0},
            {"scheme": "p", "load": 1.0, "x": 3.0},
            {"scheme": "p", "load": 2.0, "x": 5.0},
        ]
        avg = average_over_seeds(rows, ["x"])
        assert len(avg) == 2
        one = next(r for r in avg if r["load"] == 1.0)
        assert one["x"] == pytest.approx(2.0)
        assert one["x_std"] == pytest.approx(2.0**0.5)

    def test_format_table_alignment(self):
        text = format_table(
            [{"a": 1.23456, "b": "x"}], ["a", "b"], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "1.235" in lines[3]


class TestFigures:
    def test_fig5_bounds_dominate_simulation(self):
        rows = fig5(populations=((2, 1), (3, 2)), sim_time=10.0)
        for r in rows:
            assert r["simulated_max_jitter"] <= r["analytic_max_jitter"]
            assert r["simulated_max_delay"] <= r["analytic_max_delay"]

    def test_fig5_bounds_grow_with_population(self):
        rows = fig5(populations=((1, 1), (4, 3)), sim_time=5.0)
        assert rows[1]["analytic_max_jitter"] > rows[0]["analytic_max_jitter"]
        assert rows[1]["analytic_max_delay"] > rows[0]["analytic_max_delay"]

    def test_sweep_figures_project_expected_metrics(self):
        rows = run_sweep(
            ["proposed"], loads=[0.5], seeds=[1], sim_time=6.0, warmup=1.0
        )
        f6 = fig6(rows)
        assert "dropping_probability" in f6[0]
        f8 = fig8(rows)
        assert "voice_delay_mean" in f8[0]
        f11 = fig11(rows)
        assert "channel_busy_fraction" in f11[0]
