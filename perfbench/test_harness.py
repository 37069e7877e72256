"""Self-tests for the benchmark harness, on scaled-down workloads.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import pathlib
import pstats
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ledger  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402


class TinyExact(workloads.ContentionExact):
    sim_time = 2.0


class TinySweep(workloads.FigureSweep):
    sim_time = 1.0
    replays = 2


class TinyQuery(workloads.QueryMix):
    sim_time = 1.0
    trace_cycles = 2


def pinned(cls, work: pathlib.Path, seed: int = 1):
    """An instance of ``cls`` whose pins are the program's current outputs."""
    return cls(seed, work, {cls.name: cls(seed, work).outputs()})


def patched_state() -> list[tuple]:
    """Every attribute the ledger patches, with its current raw value."""
    probe = ledger.Ledger()
    probe.install_simulation()
    probe.install_exec()
    probe.install_serve()
    state: dict[tuple, object] = {}
    for owner, name, raw in probe._patches:  # a twice-wrapped method keeps its first raw
        state.setdefault((owner, name), raw)
    probe.uninstall()
    return [(owner, name, raw) for (owner, name), raw in state.items()]


def test_layer_self_times_sum_to_the_traced_total(tmp_path):
    workload = TinyExact(1, tmp_path)
    config = workload.config()
    start = time.perf_counter()
    with ledger.Profiled() as profiled:
        workload.run_once(config)
    wall = time.perf_counter() - start

    total = pstats.Stats(profiled.profile).total_tt
    layers = workloads.layer_metrics(profiled.layers)
    assert sum(layers[f"{b}.self_s"] for b in ledger.BUCKETS) == pytest.approx(total, rel=1e-9)
    assert sum(
        layers[f"{b}.share"] for b in ledger.BUCKETS if b != "harness"
    ) == pytest.approx(1.0)
    assert 0.3 * wall < total <= 1.05 * wall
    # the per-frame DCF path really is attributed to its layers
    assert layers["mac.self_s"] > 0 and layers["sim.self_s"] > 0 and layers["phy.self_s"] > 0
    assert layers["core.share"] < 0.01 and layers["accel.self_s"] == 0


@pytest.mark.parametrize("cls", [TinyExact, TinySweep, TinyQuery], ids=lambda c: c.name)
def test_counts_repeat_exactly_between_two_traced_runs(cls, tmp_path):
    first = pinned(cls, tmp_path / "first")
    second = cls(1, tmp_path / "second", {cls.name: first.pins})
    second.prepare()
    a, b = first.trace(), second.trace()
    assert first.tally.failed == second.tally.failed == 0
    assert {n: a[n] for n in spec.COUNT_METRICS} == {n: b[n] for n in spec.COUNT_METRICS}
    assert set(a) == {name for name, *_ in spec.PER_LAYER}


def test_traced_counts_land_on_their_layers(tmp_path):
    exact = pinned(TinyExact, tmp_path).trace()
    assert exact["phy.transmissions"] > 0
    # a transmission reaches the other data stations' DCFs, none useful
    assert exact["mac.on_frame_calls"] > 5 * exact["phy.transmissions"]
    assert exact["mac.on_frame_useful_ratio"] == 0.0
    assert exact["core.poll_decisions"] == 0 and exact["exec.cache_hit_ratio"] == 0

    query = pinned(TinyQuery, tmp_path).trace()
    misses = 3 * TinyQuery.trace_cycles
    assert query["serve.status_404"] == misses
    assert query["serve.status_200"] == 8 * misses
    assert query["serve.lookups_per_query"] > 1
    assert query["sim.events"] == 0


def test_a_wrong_row_counts_as_failed(tmp_path):
    workload = TinyExact(1, tmp_path, {"contention_exact": {"row": "0" * 64}})
    workload.measure(0.0)
    assert workload.tally.attempted >= 1
    assert workload.tally.failed == workload.tally.attempted

    sweep = pinned(TinySweep, tmp_path)
    sweep.pins["rows"][0] = "0" * 64
    sweep.cycle(sweep.grid())
    # the cold pass and every replay return the wrong row 0
    assert sweep.tally.failed == 1 + TinySweep.replays
    assert sweep.tally.attempted == 18 * (1 + TinySweep.replays)


def test_a_wrong_status_counts_as_failed(tmp_path, monkeypatch):
    query = pinned(TinyQuery, tmp_path)
    requests = workloads.query_requests()
    monkeypatch.setattr(workloads, "query_requests", lambda: [(p, 200) for p, _ in requests])
    run_ = query.drive(cycles=1)
    assert query.tally.failed == 3  # the three misses answer 404
    assert sum(1 for latency in run_.latencies if latency == math.inf) == 3
    assert run_.answered == len(requests) - 3


def test_wrappers_and_profiler_are_removed_after_the_traced_run(tmp_path):
    before = patched_state()
    assert before
    installed = ledger.Ledger()
    installed.install_simulation()
    installed.install_exec()
    installed.install_serve()
    assert not installed.missing
    assert all(vars(owner).get(name) is not raw for owner, name, raw in installed._patches)
    installed.uninstall()

    pinned(TinyExact, tmp_path).trace()
    pinned(TinyQuery, tmp_path).trace()
    for owner, name, raw in before:
        assert vars(owner).get(name, ledger._INHERITED) is raw, f"{owner}.{name}"
    assert ledger.clean()


def test_benchmark_json_is_generated_from_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_spec_meets_the_benchmark_contract():
    data = spec.benchmark_json()
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= data["run_seconds"] <= 60
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert 2 <= len(data["workloads"]) <= 8
    for workload in data["workloads"]:
        assert set(workload) == {"name", "why"} and name.fullmatch(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(data["end_to_end"]) <= 16 and 1 <= len(data["per_layer"]) <= 128
    for metric in data["end_to_end"] + data["per_layer"]:
        assert name.fullmatch(metric["name"]) and unit.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    for metric in data["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in data["workloads"] + data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in data["end_to_end"])}]
    assert len(json.dumps(data)) <= 64 * 1024


def test_result_line_has_exactly_the_contract_keys():
    tally = workloads.Tally()
    tally.check(True, "")
    values = {name: 1.5 for name, *_ in spec.END_TO_END}
    line = json.loads(run.result_line(tally, values, spec.END_TO_END))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 1 and line["failed"] == 0
    assert set(line["metrics"]) == {name for name, *_ in spec.END_TO_END}


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *spec.COMMAND[1:], "--workload", "contention_exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
