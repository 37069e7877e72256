"""The perf-regression gate: baseline compare + report plumbing.

``BENCH_KERNEL.json`` (repo root) is the committed baseline.  It holds
only what a check reads: each suite's pinned ``events`` count and peak
allocation, plus ``events_per_sec`` for the :data:`KERNEL_SUITES`.  The
``events`` pins are checked by a tier-1 test (``tests/bench``), which
runs every suite once.  A gate run re-measures every suite and fails
(exit 1) when

* a kernel suite's throughput or any suite's peak allocation regresses
  beyond the tolerance:
  ``events_per_sec < base * (1 - tol)`` or
  ``peak_kib > base * (1 + tol) + 64``  (the 64 KiB absolute slack
  absorbs interpreter-version noise in tiny workloads), or
* a speedup misses its constant floor: batched over exact end-to-end
  (``MIN_BATCHED_SPEEDUP``; see ``run_accel_section``), or the
  ``--with-sweep`` pool over serial (``MIN_SWEEP_SPEEDUP``, on a
  machine with a core per pool worker).

Wall-clock numbers are machine-relative; CI therefore runs the gate
with a generous tolerance (``--tolerance 0.25``).  End-to-end wall time
is perfbench's: its calibrated ``cost_ms`` bounds time the full-stack
workloads.  ``--update`` rewrites the baseline deliberately, in the
shape above.  Without it the baseline is read before any suite runs,
so a missing one (``--baseline`` resolves against the working
directory) fails at once instead of after the suites.  The flags are declared with the rest of the CLI, on the
``bench`` subparser in :mod:`repro.__main__`.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import typing

from ..obs.jsonutil import write_json
from .micro import run_benchmarks

__all__ = [
    "DEFAULT_BASELINE",
    "KERNEL_SUITES",
    "MIN_BATCHED_SPEEDUP",
    "MIN_SWEEP_SPEEDUP",
    "compare",
    "load_report",
    "run_gate",
]

#: committed baseline, relative to the repository root / current dir
DEFAULT_BASELINE = "BENCH_KERNEL.json"

#: the suites whose wall time the gate checks: pure-kernel loops that
#: no perfbench workload times on their own.  The full-stack suites'
#: wall time is gated by perfbench's calibrated ``cost_ms`` bounds
#: (``contention_exact``, ``figure_sweep``, ``contention_batched``), so
#: their baseline entries keep only ``events`` and ``peak_kib``
KERNEL_SUITES = ("timer_chain", "cancel_storm", "process_ping")

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
    """Regression messages (empty list == gate passes).

    Each fresh suite is held to the numbers its baseline entry holds;
    a suite the baseline does not list is not checked here (the
    tier-1 pin test requires every registered suite to be pinned).
    """
    problems: list[str] = []
    baselined = baseline.get("benchmarks", {})
    for name, got in sorted(fresh.get("benchmarks", {}).items()):
        base = baselined.get(name, {})
        if "events_per_sec" in base:
            floor = base["events_per_sec"] * (1.0 - tolerance)
            if got["events_per_sec"] < floor:
                problems.append(
                    f"{name}: throughput {got['events_per_sec']:,.0f} ev/s < "
                    f"{floor:,.0f} (baseline {base['events_per_sec']:,.0f} "
                    f"- {tolerance:.0%})"
                )
        if "peak_kib" in base and "peak_kib" in got:
            ceiling = base["peak_kib"] * (1.0 + tolerance) + _ALLOC_SLACK_KIB
            if got["peak_kib"] > ceiling:
                problems.append(
                    f"{name}: peak allocation {got['peak_kib']:.0f} KiB > "
                    f"{ceiling:.0f} (baseline {base['peak_kib']:.0f} + "
                    f"{tolerance:.0%} + {_ALLOC_SLACK_KIB:.0f} KiB slack)"
                )
    return problems


# -- parallel-sweep wiring ---------------------------------------------------

def run_parallel_sweep(
    workers: int = 4,
    sim_time: float = 20.0,
    warmup: float = 2.0,
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
        executor = SweepExecutor(ExecutorConfig(workers=n))
        start = _time.perf_counter()
        rows = executor.run(grid)
        wall = _time.perf_counter() - start
        return rows, {"workers": n, "wall_s": round(wall, 4)}

    serial_rows, serial = timed(1)
    parallel_rows, parallel = timed(workers)
    canon = [json.dumps(r, sort_keys=True) for r in serial_rows]
    identical = canon == [json.dumps(r, sort_keys=True) for r in parallel_rows]
    return {
        "points": len(serial_rows),
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

def run_gate(args: argparse.Namespace) -> int:
    """``python -m repro bench``: ``args`` holds its parsed flags."""
    import sys

    def progress(name: str, entry: dict) -> None:
        print(
            f"  {name:<16} {entry['events']:>8} events  "
            f"{entry['wall_s']*1e3:8.1f} ms  "
            f"{entry['events_per_sec']:>10,} ev/s  "
            f"peak {entry['peak_kib']:,.0f} KiB",
            file=sys.stderr,
        )

    baseline: dict[str, typing.Any] = {}
    if not args.update:
        # a gate run without a baseline can only fail: say so before
        # the suites run, not after
        try:
            baseline = load_report(args.baseline)
        except FileNotFoundError:
            print(
                f"error: no baseline at {args.baseline}; pass --baseline "
                f"with the path of the committed {DEFAULT_BASELINE} "
                "(at the repository root)",
                file=sys.stderr,
            )
            return 1

    results = run_benchmarks(progress=progress)
    report: dict[str, typing.Any] = {"schema": _SCHEMA, "benchmarks": results}

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
        # what a check reads: wall time only for the KERNEL_SUITES
        suites = {
            name: {
                key: entry[key]
                for key in ("events", "peak_kib", "events_per_sec")
                if key != "events_per_sec" or name in KERNEL_SUITES
            }
            for name, entry in results.items()
        }
        write_json(args.baseline, {"schema": _SCHEMA, "benchmarks": suites})
        print(f"  baseline updated: {args.baseline}", file=sys.stderr)
        return 0
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
