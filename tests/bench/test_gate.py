"""The perf gate: compare rules, report IO, CLI exit codes, and the
pinned ``events`` counts of ``BENCH_KERNEL.json``."""

import json
import pathlib

import pytest

from repro.__main__ import main
from repro.bench import (
    BENCHMARKS,
    DEFAULT_BASELINE,
    compare,
    load_report,
    run_benchmark,
    run_benchmarks,
)
from repro.bench import gate
from repro.obs.jsonutil import write_json

#: the committed baseline at the repository root
COMMITTED = pathlib.Path(__file__).resolve().parents[2] / DEFAULT_BASELINE


@pytest.fixture(scope="module")
def fresh_run():
    """Every suite run once, untraced (shared: about 0.7 s)."""
    return run_benchmarks(repeats=1, measure_alloc=False)


def entry(events=1000, ev_s=100_000, peak=50.0, wall=0.01):
    return {
        "events": events,
        "wall_s": wall,
        "events_per_sec": ev_s,
        "peak_kib": peak,
    }


def report(**benches):
    return {"schema": 1, "benchmarks": benches}


class TestCompare:
    def test_identical_reports_pass(self):
        r = report(a=entry(), b=entry(events=77))
        assert compare(r, r, tolerance=0.0) == []

    def test_throughput_regression_detected(self):
        base = report(a=entry(ev_s=100_000))
        fresh = report(a=entry(ev_s=80_000))
        problems = compare(fresh, base, tolerance=0.1)
        assert len(problems) == 1
        assert "throughput" in problems[0]

    def test_tolerance_absorbs_small_slowdowns(self):
        base = report(a=entry(ev_s=100_000))
        fresh = report(a=entry(ev_s=80_000))
        assert compare(fresh, base, tolerance=0.25) == []

    def test_new_benchmark_in_fresh_run_is_fine(self):
        base = report(a=entry())
        fresh = report(a=entry(), brand_new=entry())
        assert compare(fresh, base, tolerance=0.1) == []

    def test_allocation_regression_detected(self):
        base = report(a=entry(peak=1000.0))
        fresh = report(a=entry(peak=1600.0))
        problems = compare(fresh, base, tolerance=0.1)
        assert len(problems) == 1
        assert "allocation" in problems[0]

    def test_allocation_has_absolute_slack_for_tiny_workloads(self):
        # 1 KiB -> 60 KiB is huge relatively but within the 64 KiB
        # absolute slack that absorbs interpreter noise
        base = report(a=entry(peak=1.0))
        fresh = report(a=entry(peak=60.0))
        assert compare(fresh, base, tolerance=0.1) == []

    def test_missing_peak_field_skips_the_allocation_check(self):
        base = report(a=entry())
        fresh_entry = entry(peak=None)
        del fresh_entry["peak_kib"]
        assert compare(report(a=fresh_entry), base, tolerance=0.0) == []


class TestReportIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        original = report(a=entry())
        write_json(path, original)
        assert load_report(path) == original

    def test_load_rejects_non_reports(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"whatever": 1}))
        with pytest.raises(ValueError):
            load_report(path)


class TestMicro:
    def test_timer_chain_is_deterministic_and_exact(self):
        result = run_benchmark("timer_chain", repeats=1, measure_alloc=False)
        assert result["events"] == 30_000
        assert result["events_per_sec"] > 0

    def test_alloc_pass_verifies_determinism(self):
        result = run_benchmark("cancel_storm", repeats=1, measure_alloc=True)
        assert result["peak_kib"] > 0
        assert result["events"] == 6_000

    def test_registry_has_the_documented_suites(self):
        assert set(BENCHMARKS) == {
            "timer_chain", "cancel_storm", "process_ping",
            "dcf_contention", "pcf_polling", "end_to_end",
            "batched_end_to_end",
        }

    def test_every_benchmark_runs_and_reports_events(self, fresh_run):
        assert set(fresh_run) == set(BENCHMARKS)
        for name, got in fresh_run.items():
            assert got["events"] > 0, name
            assert got["events_per_sec"] > 0, name
            assert "peak_kib" not in got, name

    def test_full_stack_benchmarks_are_deterministic(self):
        first = run_benchmark("end_to_end", repeats=1, measure_alloc=False)
        second = run_benchmark("end_to_end", repeats=1, measure_alloc=False)
        assert first["events"] == second["events"]


class TestParallelSweepSection:
    def test_scaled_down_sweep_reports_identical_rows(self):
        from repro.bench import run_parallel_sweep

        section = run_parallel_sweep(workers=2, sim_time=2.0, warmup=0.5)
        assert section["rows_identical"] is True
        assert section["points"] == 8
        assert section["serial"]["workers"] == 1
        assert section["parallel"]["workers"] == 2
        assert section["speedup"] > 0


def stub_run(monkeypatch, **suites):
    """Make the gate report fixed entries instead of timing the suites.

    Every registered suite reads 100,000 ev/s and the batched one sits
    at its 5x floor; ``suites`` overrides single entries.
    """
    results = {name: entry(ev_s=100_000) for name in BENCHMARKS}
    results["batched_end_to_end"] = entry(ev_s=500_000)
    results.update(suites)
    monkeypatch.setattr(
        gate, "run_benchmarks",
        lambda progress=None: {k: dict(v) for k, v in results.items()},
    )


class TestCli:
    def _gate(self, tmp_path, *extra):
        return main(["bench", "--baseline", str(tmp_path / "BENCH.json"),
                     "--out", str(tmp_path / "fresh.json"), *extra])

    def test_update_creates_baseline_and_passes(self, tmp_path, monkeypatch):
        stub_run(monkeypatch, timer_chain=entry(events=30_000))
        assert self._gate(tmp_path, "--update") == 0
        assert load_report(tmp_path / "BENCH.json")["benchmarks"][
            "timer_chain"
        ]["events"] == 30_000
        assert self._gate(tmp_path) == 0

    def test_missing_baseline_fails(self, tmp_path, monkeypatch, capsys):
        # before any suite runs, naming the flag and the committed file
        def refuse(*args, **kwargs):
            raise AssertionError("a suite ran before the baseline was read")

        monkeypatch.setattr(gate, "run_benchmarks", refuse)
        monkeypatch.setattr(gate, "run_parallel_sweep", refuse)
        assert self._gate(tmp_path, "--with-sweep") == 1
        err = capsys.readouterr().err
        assert "--baseline" in err and DEFAULT_BASELINE in err, err
        assert "--update" not in err, err
        assert not (tmp_path / "fresh.json").exists()

    def test_regression_exits_nonzero(self, tmp_path, monkeypatch):
        stub_run(monkeypatch)
        write_json(tmp_path / "BENCH.json", report(
            timer_chain=entry(events=30_000, ev_s=10**9)
        ))
        assert self._gate(tmp_path, "--tolerance", "0.25") == 1

    def test_allocation_regression_exits_nonzero(self, tmp_path, monkeypatch):
        stub_run(monkeypatch, dcf_contention=entry(peak=1000.0))
        write_json(tmp_path / "BENCH.json", report(
            dcf_contention={"events": 1000, "peak_kib": 100.0}
        ))
        assert self._gate(tmp_path, "--tolerance", "0.25") == 1

    def test_full_stack_wall_time_is_not_gated(self, tmp_path, monkeypatch):
        # perfbench's cost_ms bounds gate it; the baseline keeps no ev/s
        stub_run(monkeypatch, dcf_contention=entry(ev_s=1))
        write_json(tmp_path / "BENCH.json", report(
            dcf_contention={"events": 1000, "peak_kib": 50.0}
        ))
        assert self._gate(tmp_path) == 0

    def test_update_writes_only_what_a_check_reads(
        self, tmp_path, monkeypatch
    ):
        stub_run(monkeypatch)
        seeded = report(timer_chain=entry(events=30_000, ev_s=1))
        seeded["parallel_sweep"] = {"speedup": 2.0}
        write_json(tmp_path / "BENCH.json", seeded)
        assert self._gate(tmp_path, "--update") == 0
        pinned = {"events": 1000, "peak_kib": 50.0}
        assert load_report(tmp_path / "BENCH.json") == report(**{
            name: dict(pinned, events_per_sec=100_000)
            if name in gate.KERNEL_SUITES else pinned
            for name in BENCHMARKS
        })

    @pytest.mark.parametrize(
        "flag", [["--only", "timer_chain"], ["--repeats", "1"],
                 ["--skip-alloc"]],
        ids=["only", "repeats", "skip-alloc"],
    )
    def test_removed_flags_exit_2(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            self._gate(tmp_path, *flag)
        assert exc.value.code == 2


class TestPins:
    """Every suite is a fixed-seed workload, so its ``events`` count is
    exact on any machine: a cross-machine determinism check."""

    PINS = load_report(COMMITTED)["benchmarks"]

    def test_pinned_and_registered_suites_match(self):
        assert set(self.PINS) == set(BENCHMARKS)

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_events_match_the_pin(self, fresh_run, name):
        assert fresh_run[name]["events"] == self.PINS[name]["events"]

    def test_baseline_holds_only_what_a_check_reads(self):
        assert set(load_report(COMMITTED)) == {"schema", "benchmarks"}
        for name, pin in self.PINS.items():
            wall = {"events_per_sec"} if name in gate.KERNEL_SUITES else set()
            assert set(pin) == {"events", "peak_kib"} | wall, name


class TestSpeedupFloors:
    """The batched and pool floors are constants every run enforces."""

    def _full_run(self, tmp_path):
        baseline = tmp_path / "BENCH.json"
        write_json(baseline, report(
            **{name: entry(ev_s=100_000) for name in BENCHMARKS}
        ))
        out = tmp_path / "fresh.json"
        return main(["bench", "--baseline", str(baseline),
                     "--out", str(out)]), out

    def test_full_run_below_the_batched_floor_exits_one(
        self, tmp_path, monkeypatch, capsys
    ):
        stub_run(monkeypatch, batched_end_to_end=entry(ev_s=490_000))
        code, _out = self._full_run(tmp_path)
        assert code == 1
        assert "batched speedup 4.9x < required 5.0x" in capsys.readouterr().err

    def test_full_run_measures_the_accel_section_unasked(
        self, tmp_path, monkeypatch
    ):
        stub_run(monkeypatch)
        code, out = self._full_run(tmp_path)
        assert code == 0
        assert load_report(out)["accel"] == {
            "exact_events_per_sec": 100_000,
            "batched_events_per_sec": 500_000,
            "batched_speedup": 5.0,
        }

    @pytest.mark.parametrize(
        "cores, speedup, code",
        [(4, 1.5, 1), (2, 1.5, 0), (4, 2.0, 0)],
        ids=["slow-pool", "too-few-cores", "at-the-floor"],
    )
    def test_sweep_floor_applies_only_with_enough_cores(
        self, tmp_path, monkeypatch, capsys, cores, speedup, code
    ):
        stub_run(monkeypatch)
        monkeypatch.setattr(gate, "run_parallel_sweep", lambda: {
            "points": 8,
            "cpu_cores": cores,
            "rows_identical": True,
            "parallel": {"workers": 4},
            "speedup": speedup,
        })
        baseline = tmp_path / "BENCH.json"
        write_json(baseline, report(timer_chain=entry(events=30_000, ev_s=1)))
        assert main(["bench", "--baseline", str(baseline),
                     "--out", str(tmp_path / "fresh.json"),
                     "--with-sweep"]) == code
        err = capsys.readouterr().err
        assert ("sweep speedup floor skipped: 2 core(s) < 4 workers" in err) == (
            cores == 2
        )
        assert ("error: sweep speedup 1.5x < required 2.0x" in err) == (code == 1)
