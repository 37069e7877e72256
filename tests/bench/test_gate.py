"""The perf gate: compare rules, report IO, CLI exit codes."""

import json

import pytest

from repro.bench import (
    BENCHMARKS,
    compare,
    load_report,
    main,
    run_benchmark,
    run_benchmarks,
)
from repro.bench import gate
from repro.obs.jsonutil import write_json


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

    def test_event_count_drift_fails_regardless_of_tolerance(self):
        base = report(a=entry(events=1000))
        fresh = report(a=entry(events=1001))
        problems = compare(fresh, base, tolerance=10.0)
        assert len(problems) == 1
        assert "DETERMINISM" in problems[0]

    def test_missing_benchmark_fails(self):
        base = report(a=entry(), b=entry())
        fresh = report(a=entry())
        problems = compare(fresh, base, tolerance=0.5)
        assert problems == ["b: baselined benchmark missing from run"]

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

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            run_benchmarks(names=["nope"], repeats=1)

    def test_registry_has_the_documented_suites(self):
        assert set(BENCHMARKS) == {
            "timer_chain", "cancel_storm", "process_ping",
            "dcf_contention", "pcf_polling", "end_to_end",
            "batched_end_to_end",
        }

    def test_every_benchmark_runs_and_reports_events(self):
        results = run_benchmarks(repeats=1, measure_alloc=False)
        assert set(results) == set(BENCHMARKS)
        for name, got in results.items():
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
        assert section["serial"]["sim_events"] == (
            section["parallel"]["sim_events"]
        ) > 0
        assert section["speedup"] > 0


class TestCli:
    def _kernel_only(self):
        return ["--only", "timer_chain", "--repeats", "1", "--skip-alloc"]

    def test_update_creates_baseline_and_passes(self, tmp_path):
        baseline = tmp_path / "BENCH.json"
        out = tmp_path / "fresh.json"
        code = main(["--baseline", str(baseline), "--out", str(out),
                     "--update"] + self._kernel_only())
        assert code == 0
        assert load_report(baseline)["benchmarks"]["timer_chain"][
            "events"
        ] == 30_000

    def test_missing_baseline_fails(self, tmp_path):
        code = main(["--baseline", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "fresh.json")]
                    + self._kernel_only())
        assert code == 1

    def test_regression_exits_nonzero(self, tmp_path):
        baseline = tmp_path / "BENCH.json"
        write_json(baseline, report(
            timer_chain=entry(events=30_000, ev_s=10**9)
        ))
        code = main(["--baseline", str(baseline),
                     "--out", str(tmp_path / "fresh.json"),
                     "--tolerance", "0.25"] + self._kernel_only())
        assert code == 1

    def test_determinism_drift_exits_nonzero_despite_huge_tolerance(
        self, tmp_path
    ):
        baseline = tmp_path / "BENCH.json"
        write_json(baseline, report(timer_chain=entry(events=1, ev_s=1)))
        code = main(["--baseline", str(baseline),
                     "--out", str(tmp_path / "fresh.json"),
                     "--tolerance", "1000"] + self._kernel_only())
        assert code == 1

    def test_only_subset_ignores_other_baselined_benchmarks(self, tmp_path):
        baseline = tmp_path / "BENCH.json"
        write_json(baseline, report(
            timer_chain=entry(events=30_000, ev_s=1),
            end_to_end=entry(events=12345, ev_s=10**9),
        ))
        code = main(["--baseline", str(baseline),
                     "--out", str(tmp_path / "fresh.json"),
                     "--tolerance", "0.99"] + self._kernel_only())
        assert code == 0

    def test_update_preserves_unmeasured_sections(self, tmp_path):
        baseline = tmp_path / "BENCH.json"
        seeded = report(timer_chain=entry(events=30_000, ev_s=1))
        seeded["parallel_sweep"] = {"speedup": 2.0}
        write_json(baseline, seeded)
        code = main(["--baseline", str(baseline),
                     "--out", str(tmp_path / "fresh.json"),
                     "--update"] + self._kernel_only())
        assert code == 0
        updated = load_report(baseline)
        assert updated["parallel_sweep"] == {"speedup": 2.0}

    def test_partial_update_keeps_unmeasured_suites_and_peaks(self, tmp_path):
        baseline = tmp_path / "BENCH.json"
        end_to_end = entry(events=17_256, ev_s=44_000, peak=900.0)
        write_json(baseline, report(
            timer_chain=entry(events=30_000, ev_s=1, peak=12.5),
            end_to_end=end_to_end,
        ))
        code = main(["--baseline", str(baseline),
                     "--out", str(tmp_path / "fresh.json"),
                     "--update"] + self._kernel_only())
        assert code == 0
        suites = load_report(baseline)["benchmarks"]
        assert suites["end_to_end"] == end_to_end
        assert suites["timer_chain"]["events"] == 30_000
        assert suites["timer_chain"]["peak_kib"] == 12.5


class TestSpeedupFloors:
    """The batched and pool floors are constants every run enforces."""

    def _stub_suites(self, monkeypatch, batched_ev_s):
        def fake_run_benchmarks(names=None, repeats=5, measure_alloc=True,
                                progress=None):
            results = {name: entry(ev_s=100_000) for name in names or BENCHMARKS}
            if "batched_end_to_end" in results:
                results["batched_end_to_end"] = entry(ev_s=batched_ev_s)
            return results

        monkeypatch.setattr(gate, "run_benchmarks", fake_run_benchmarks)

    def _full_run(self, tmp_path):
        baseline = tmp_path / "BENCH.json"
        suites = {name: entry(ev_s=100_000) for name in BENCHMARKS}
        suites["batched_end_to_end"] = entry(ev_s=1)
        write_json(baseline, report(**suites))
        out = tmp_path / "fresh.json"
        return main(["--baseline", str(baseline), "--out", str(out)]), out

    def test_full_run_below_the_batched_floor_exits_one(
        self, tmp_path, monkeypatch, capsys
    ):
        self._stub_suites(monkeypatch, batched_ev_s=490_000)
        code, _out = self._full_run(tmp_path)
        assert code == 1
        assert "batched speedup 4.9x < required 5.0x" in capsys.readouterr().err

    def test_full_run_measures_the_accel_section_unasked(
        self, tmp_path, monkeypatch
    ):
        self._stub_suites(monkeypatch, batched_ev_s=500_000)
        code, out = self._full_run(tmp_path)
        assert code == 0
        assert load_report(out)["accel"] == {
            "exact_events_per_sec": 100_000,
            "batched_events_per_sec": 500_000,
            "batched_speedup": 5.0,
        }

    def test_only_run_carries_the_baseline_accel_section(self, tmp_path):
        baseline = tmp_path / "BENCH.json"
        seeded = report(timer_chain=entry(events=30_000, ev_s=1))
        # below the floor: a run that measured neither suite checks none
        seeded["accel"] = {"batched_speedup": 1.0}
        write_json(baseline, seeded)
        out = tmp_path / "fresh.json"
        code = main(["--baseline", str(baseline), "--out", str(out),
                     "--only", "timer_chain", "--repeats", "1",
                     "--skip-alloc"])
        assert code == 0
        assert load_report(out)["accel"] == {"batched_speedup": 1.0}

    @pytest.mark.parametrize(
        "cores, speedup, code",
        [(4, 1.5, 1), (2, 1.5, 0), (4, 2.0, 0)],
        ids=["slow-pool", "too-few-cores", "at-the-floor"],
    )
    def test_sweep_floor_applies_only_with_enough_cores(
        self, tmp_path, monkeypatch, capsys, cores, speedup, code
    ):
        monkeypatch.setattr(gate, "run_parallel_sweep", lambda: {
            "points": 8,
            "cpu_cores": cores,
            "rows_identical": True,
            "parallel": {"workers": 4},
            "speedup": speedup,
        })
        baseline = tmp_path / "BENCH.json"
        write_json(baseline, report(timer_chain=entry(events=30_000, ev_s=1)))
        assert main(["--baseline", str(baseline),
                     "--out", str(tmp_path / "fresh.json"), "--with-sweep",
                     "--only", "timer_chain", "--repeats", "1",
                     "--skip-alloc"]) == code
        err = capsys.readouterr().err
        assert ("sweep speedup floor skipped: 2 core(s) < 4 workers" in err) == (
            cores == 2
        )
        assert ("error: sweep speedup 1.5x < required 2.0x" in err) == (code == 1)
