"""The perf-regression gate: baseline compare + report plumbing.

``BENCH_KERNEL.json`` (repo root) is the committed baseline.  A gate
run re-measures every benchmark it lists and fails (exit 1) when

* a baselined benchmark is missing from the fresh run,
* the exact ``events`` count drifts — a **determinism** regression,
  failed regardless of tolerance (pinned workloads cannot legitimately
  change event counts without a deliberate baseline update), or
* throughput or peak allocation regress beyond the tolerance:
  ``events_per_sec < base * (1 - tol)`` or
  ``peak_kib > base * (1 + tol) + 64``  (the 64 KiB absolute slack
  absorbs interpreter-version noise in tiny workloads), or
* a speedup misses its constant floor: batched over exact end-to-end
  (``MIN_BATCHED_SPEEDUP``, whenever a run measures both suites; see
  ``run_accel_section``), or the ``--with-sweep`` pool over serial
  (``MIN_SWEEP_SPEEDUP``, on a machine with a core per pool worker).

Wall-clock numbers are machine-relative; CI therefore runs the gate
with a generous tolerance (``--tolerance 0.25``) while the exact
``events`` check stays machine-independent.  ``--update`` rewrites the
baseline deliberately, and only with what the run measured: a suite
left out by ``--only`` keeps its baseline entry, a ``--skip-alloc`` run
keeps each suite's baseline ``peak_kib``, and the ``parallel_sweep``
and ``accel`` sections are carried over unless the run re-measured
them.  The serve loop is measured by perfbench's ``query_mix``
workload, not here.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import typing

from ..obs.jsonutil import write_json
from .micro import BENCHMARKS, run_benchmarks

__all__ = [
    "DEFAULT_BASELINE",
    "MIN_BATCHED_SPEEDUP",
    "MIN_SWEEP_SPEEDUP",
    "compare",
    "build_parser",
    "load_report",
    "main",
]

#: committed baseline, relative to the repository root / current dir
DEFAULT_BASELINE = "BENCH_KERNEL.json"

#: absolute allocation slack (KiB) added on top of the relative tolerance
_ALLOC_SLACK_KIB = 64.0

#: required batched-tier ev/s multiple over exact ``end_to_end``
MIN_BATCHED_SPEEDUP = 5.0

#: required serial-over-pool wall ratio of the ``--with-sweep`` section
MIN_SWEEP_SPEEDUP = 2.0

_SCHEMA = 1


def load_report(path: str | pathlib.Path) -> dict[str, typing.Any]:
    """Read a bench report; raises ``FileNotFoundError``/``ValueError``."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if not isinstance(report, dict) or "benchmarks" not in report:
        raise ValueError(f"{path}: not a bench report (no 'benchmarks' key)")
    return report


def compare(
    fresh: dict[str, typing.Any],
    baseline: dict[str, typing.Any],
    tolerance: float,
) -> list[str]:
    """Regression messages (empty list == gate passes)."""
    problems: list[str] = []
    fresh_benches = fresh.get("benchmarks", {})
    for name, base in sorted(baseline.get("benchmarks", {}).items()):
        if not isinstance(base, dict):  # metadata keys (e.g. cpu_cores)
            continue
        got = fresh_benches.get(name)
        if got is None:
            problems.append(f"{name}: baselined benchmark missing from run")
            continue
        if got["events"] != base["events"]:
            problems.append(
                f"{name}: DETERMINISM — events {got['events']} != "
                f"baseline {base['events']} (tolerance does not apply)"
            )
        floor = base["events_per_sec"] * (1.0 - tolerance)
        if got["events_per_sec"] < floor:
            problems.append(
                f"{name}: throughput {got['events_per_sec']:,.0f} ev/s < "
                f"{floor:,.0f} (baseline {base['events_per_sec']:,.0f} "
                f"- {tolerance:.0%})"
            )
        base_peak = base.get("peak_kib")
        got_peak = got.get("peak_kib")
        if base_peak is not None and got_peak is not None:
            ceiling = base_peak * (1.0 + tolerance) + _ALLOC_SLACK_KIB
            if got_peak > ceiling:
                problems.append(
                    f"{name}: peak allocation {got_peak:.0f} KiB > "
                    f"{ceiling:.0f} (baseline {base_peak:.0f} + {tolerance:.0%}"
                    f" + {_ALLOC_SLACK_KIB:.0f} KiB slack)"
                )
    return problems


# -- parallel-sweep wiring ---------------------------------------------------

def run_parallel_sweep(
    workers: int = 4,
    sim_time: float = 20.0,
    warmup: float = 2.0,
    schedule: str = "cost",
) -> dict[str, typing.Any]:
    """Scaled-down serial-vs-pool sweep for the ``parallel_sweep`` section.

    A schemes x loads x seeds grid through
    :class:`~repro.exec.SweepExecutor`, small enough that a gate run
    stays interactive; rows must be byte-identical across the two
    modes.  ``cpu_cores`` is recorded alongside the timings
    because the speedup is only meaningful relative to the cores the
    machine actually has (a 1-core container cannot beat ~1.0x no
    matter how warm the pool is — the gate skips its speedup floor
    there, see ``MIN_SWEEP_SPEEDUP``).
    """
    import os as _os
    import time as _time

    from ..exec import ExecutorConfig, SweepExecutor
    from ..experiments import sweep_grid

    grid = sweep_grid(("proposed", "conventional"), (0.5, 3.0), (1, 2),
                      sim_time, warmup)

    def timed(n: int) -> tuple:
        executor = SweepExecutor(ExecutorConfig(workers=n, schedule=schedule))
        start = _time.perf_counter()
        rows = executor.run(grid)
        wall = _time.perf_counter() - start
        return rows, executor.telemetry.bench_entry(wall)

    serial_rows, serial = timed(1)
    parallel_rows, parallel = timed(workers)
    canon = [json.dumps(r, sort_keys=True) for r in serial_rows]
    identical = canon == [json.dumps(r, sort_keys=True) for r in parallel_rows]
    return {
        "points": len(serial_rows),
        "schedule": schedule,
        "cpu_cores": _os.cpu_count() or 1,
        "rows_identical": identical,
        "serial": serial,
        "parallel": parallel,
        "speedup": (
            round(serial["wall_s"] / parallel["wall_s"], 2)
            if parallel["wall_s"] > 0 else 0.0
        ),
    }


# -- accelerated-tier wiring -------------------------------------------------

def run_accel_section(results: dict[str, typing.Any]) -> dict[str, typing.Any]:
    """The batched tier against exact, from one run's ``results``.

    ``batched_speedup`` is the modeled events/s of
    ``batched_end_to_end`` over exact ``end_to_end`` (ratio of same-run
    numbers, so shared machine noise cancels); ``results`` (a fresh
    ``run_benchmarks`` dict) must hold both entries.
    """
    batched = results["batched_end_to_end"]
    exact = results["end_to_end"]
    return {
        "exact_events_per_sec": exact["events_per_sec"],
        "batched_events_per_sec": batched["events_per_sec"],
        "batched_speedup": round(
            batched["events_per_sec"] / exact["events_per_sec"], 2
        ),
    }


# -- CLI ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro bench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="kernel perf benchmarks + regression gate",
    )
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"committed baseline (default: {DEFAULT_BASELINE})")
    parser.add_argument("--out", default=".repro-cache/bench-report.json",
                        help="where the fresh report is written")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="relative throughput/allocation slack "
                             "(default: 0.10; CI uses 0.25)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions per benchmark (best-of)")
    parser.add_argument("--only", nargs="+", default=None,
                        choices=sorted(BENCHMARKS),
                        help="run a subset of benchmarks")
    parser.add_argument("--skip-alloc", action="store_true",
                        help="skip the tracemalloc allocation pass")
    parser.add_argument("--with-sweep", action="store_true",
                        help="also measure the serial-vs-pool sweep "
                             "section; on a machine with a core per pool "
                             "worker, fail unless the pool is "
                             f"{MIN_SWEEP_SPEEDUP:g}x faster")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run and exit 0")
    return parser


def main(argv: list[str] | None = None) -> int:
    """``python -m repro bench`` entry."""
    import sys

    args = build_parser().parse_args(argv)

    def progress(name: str, entry: dict) -> None:
        peak = entry.get("peak_kib")
        print(
            f"  {name:<16} {entry['events']:>8} events  "
            f"{entry['wall_s']*1e3:8.1f} ms  "
            f"{entry['events_per_sec']:>10,} ev/s"
            + (f"  peak {peak:,.0f} KiB" if peak is not None else ""),
            file=sys.stderr,
        )

    results = run_benchmarks(
        names=args.only,
        repeats=args.repeats,
        measure_alloc=not args.skip_alloc,
        progress=progress,
    )
    import os as _os

    results["cpu_cores"] = _os.cpu_count() or 1
    report: dict[str, typing.Any] = {"schema": _SCHEMA, "benchmarks": results}

    baseline: dict[str, typing.Any] | None = None
    try:
        baseline = load_report(args.baseline)
    except FileNotFoundError:
        pass
    if baseline is not None:
        # carry the sections a fresh run does not re-measure
        for section in ("parallel_sweep", "accel"):
            if section in baseline:
                report[section] = baseline[section]

    if args.with_sweep:
        report["parallel_sweep"] = sweep = run_parallel_sweep()
        print(
            f"  parallel_sweep   {sweep['points']} points, "
            f"speedup {sweep['speedup']}x, "
            f"identical rows: {sweep['rows_identical']}",
            file=sys.stderr,
        )
        if not sweep["rows_identical"]:
            print("error: serial and pool sweep rows differ", file=sys.stderr)
            return 1
        cores = sweep["cpu_cores"]
        pool_workers = sweep["parallel"]["workers"]
        if cores < pool_workers:
            print(
                f"  sweep speedup floor skipped: {cores} core(s) < "
                f"{pool_workers} workers (no parallelism to measure)",
                file=sys.stderr,
            )
        elif sweep["speedup"] < MIN_SWEEP_SPEEDUP:
            print(
                f"error: sweep speedup {sweep['speedup']}x < "
                f"required {MIN_SWEEP_SPEEDUP}x "
                f"({pool_workers} workers on {cores} cores)",
                file=sys.stderr,
            )
            return 1

    if "end_to_end" in results and "batched_end_to_end" in results:
        report["accel"] = accel = run_accel_section(results)
        print(
            f"  accel            batched {accel['batched_speedup']}x ev/s "
            f"({accel['batched_events_per_sec']:,} vs "
            f"{accel['exact_events_per_sec']:,})",
            file=sys.stderr,
        )
        if accel["batched_speedup"] < MIN_BATCHED_SPEEDUP:
            print(
                f"error: batched speedup {accel['batched_speedup']}x < "
                f"required {MIN_BATCHED_SPEEDUP}x",
                file=sys.stderr,
            )
            return 1

    write_json(args.out, report)
    print(f"  report written to {args.out}", file=sys.stderr)

    if args.update:
        # one entry per registered suite: fresh fields over baseline
        # ones, so a suite this run skipped keeps its baseline entry and
        # a --skip-alloc run keeps the baseline peak_kib (suites no
        # longer registered drop out)
        kept = (baseline or {}).get("benchmarks", {})
        suites: dict[str, typing.Any] = {"cpu_cores": results["cpu_cores"]}
        for name in BENCHMARKS:
            entry = {**kept.get(name, {}), **results.get(name, {})}
            if entry:
                suites[name] = entry
        write_json(args.baseline, {**report, "benchmarks": suites})
        print(f"  baseline updated: {args.baseline}", file=sys.stderr)
        return 0
    if baseline is None:
        print(
            f"error: no baseline at {args.baseline} "
            "(run with --update to create it)",
            file=sys.stderr,
        )
        return 1
    if args.only:
        # a subset run gates only the benchmarks it measured
        baseline = dict(baseline)
        baseline["benchmarks"] = {
            name: entry
            for name, entry in baseline["benchmarks"].items()
            if name in args.only
        }
    problems = compare(report, baseline, args.tolerance)
    if problems:
        print(
            f"PERF GATE FAILED ({len(problems)} regression(s), "
            f"tolerance {args.tolerance:.0%}):",
            file=sys.stderr,
        )
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"  perf gate passed (tolerance {args.tolerance:.0%})",
          file=sys.stderr)
    return 0
