"""Tests for the experiments package: tables, sweeps, figure generators."""

import inspect
import re

import pytest

from repro.baseline.conventional import CFP_MAX, SUPERFRAME
from repro.exec import SweepExecutor, default_point_fn
from repro.experiments import (
    EVALUATION_LOADS,
    FIGURE_METRICS,
    average_over_seeds,
    fig5,
    format_table,
    render_table1,
    render_table2,
    sweep_config,
    sweep_grid,
    table1,
    table2,
)
from repro.network.bss import DEFAULT_VIDEO, DEFAULT_VOICE, RT_PACKET_BITS
from repro.phy.timing import PhyTiming
from repro.traffic.data import PoissonDataSource
from repro.traffic.video import AR_A, AR_B, AR_W_MEAN


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


def _table2_numbers_from_the_model() -> dict[str, list[float]]:
    """Each numeric Table II row's numbers, read off the objects an
    evaluation point runs, in the units the table prints."""
    point = sweep_config("proposed", 1.0, 1)
    t = PhyTiming()
    voice, video = DEFAULT_VOICE, DEFAULT_VIDEO
    data = inspect.signature(PoissonDataSource).parameters
    us, ms = 1e6, 1e3
    return {
        "channel rate": [t.data_rate / 1e6],
        "PLCP preamble+header": [t.plcp_bits / t.plcp_rate * us,
                                 t.plcp_rate / 1e6],
        "slot time": [t.slot * us],
        "SIFS / PIFS / DIFS": [t.sifs * us, t.pifs * us, t.difs * us],
        "bit error rate": [point.ber],
        "MAC header + FCS": [t.mac_header_bits / 8],
        "ACK frame": [t.ack_bits / 8],
        "real-time MPDU payload": [RT_PACKET_BITS / 8],
        "data MSDU length": [data["mean_length_bits"].default / 8],
        "MTU": [data["mtu_bits"].default / 8],
        "voice codec rate r": [voice.rate],
        "voice jitter bound delta": [voice.max_jitter * ms],
        "voice talk spurt (on)": [voice.mean_on],
        "voice silence (off)": [voice.mean_off],
        "video declared rate rho": [video.avg_rate],
        "video burstiness sigma": [video.burstiness],
        "video delay bound D": [video.max_delay * ms],
        "video frame rate": [video.frame_rate],
        "AR(1) coefficients": [AR_A, AR_B, AR_W_MEAN],
        "call holding time": [point.mean_holding],
        "handoff deadline": [point.handoff_deadline * ms],
        "superframe (conventional)": [SUPERFRAME * ms],
        "CFP maximum (conventional)": [CFP_MAX * ms],
        "priority window partition": [*point.alphas, point.beta],
        "new calls at load 1": [point.new_voice_rate, point.new_video_rate],
        "handoff calls at load 1": [point.handoff_voice_rate,
                                    point.handoff_video_rate],
        "data at load 1": [point.n_data_stations,
                           point.data_msdus_per_station],
    }


def test_table2_prints_what_the_sweep_runs():
    """Every number in a Table II value is the model's, row by row."""
    printed = {
        r["parameter"]: [
            float(x)
            for x in re.findall(r"\d+(?:\.\d+)?(?:e-?\d+)?", r["value"])
        ]
        for r in table2()
    }
    numeric = {name: nums for name, nums in printed.items() if nums}
    expected = _table2_numbers_from_the_model()
    assert sorted(numeric) == sorted(expected)
    for name, nums in numeric.items():
        assert nums == pytest.approx(expected[name]), name


class TestRunner:
    def test_sweep_config_valid_for_all_loads(self):
        for load in EVALUATION_LOADS:
            cfg = sweep_config("proposed", load, 1)
            assert cfg.load == load

    def test_default_point_fn_returns_results(self):
        cfg = sweep_config("proposed", 0.5, 1, sim_time=8.0, warmup=1.0)
        r = default_point_fn(cfg)
        assert r["scheme"] == "proposed"

    def test_sweep_grid_size_and_order(self):
        grid = sweep_grid(
            ["proposed", "conventional"], loads=[0.5, 1.0], seeds=[1, 2],
            sim_time=6.0, warmup=1.0,
        )
        assert [(c.scheme, c.load, c.seed) for c in grid] == [
            (scheme, load, seed)
            for scheme in ("proposed", "conventional")
            for load in (0.5, 1.0)
            for seed in (1, 2)
        ]

    def test_sweep_grid_fields_reach_every_point(self):
        grid = sweep_grid(["proposed"], loads=[0.5], seeds=[1, 2],
                          monitor_invariants=True)
        assert all(c.monitor_invariants for c in grid)
        assert grid[0] == sweep_config(
            "proposed", 0.5, 1, monitor_invariants=True
        )

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
        rows = SweepExecutor().run(
            sweep_grid(["proposed"], loads=[0.5], seeds=[1], sim_time=6.0,
                       warmup=1.0)
        )
        assert len(rows) == 1
        for name, metrics in FIGURE_METRICS.items():
            (projected,) = average_over_seeds(rows, metrics)
            for metric in metrics:
                assert projected[metric] == rows[0][metric], name
