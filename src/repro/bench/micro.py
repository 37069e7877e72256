"""Pinned-seed kernel and scenario microbenchmarks.

Each benchmark is a deterministic workload: a fixed seed (or a fully
arithmetic schedule, for the pure-kernel ones) drives a known number of
agenda fires.  The runner reports, per benchmark:

``events``
    Live agenda fires (:attr:`repro.sim.engine.Simulator.events_processed`).
    Because every workload is pinned, this is **exact** on any machine:
    ``BENCH_KERNEL.json`` pins each count, and a tier-1 test
    (``tests/bench``) runs every suite and fails on any drift.
``wall_s`` / ``events_per_sec``
    Best-of-``repeats`` wall time and the derived throughput.
``peak_kib``
    Peak traced allocation of one run, measured in a *separate* pass
    under ``tracemalloc`` (tracing skews wall time severalfold, so it
    must never share a pass with the timing loop).
"""

from __future__ import annotations

import time
import tracemalloc
import typing

from ..sim.engine import Simulator

__all__ = ["BENCHMARKS", "run_benchmark", "run_benchmarks"]


# -- pure-kernel workloads ---------------------------------------------------

def _bench_timer_chain() -> int:
    """A single self-rescheduling timer: raw dispatch + heap churn."""
    sim = Simulator()
    n = 30_000
    state = {"left": n}

    def tick() -> None:
        state["left"] -= 1
        if state["left"]:
            sim.call_in(1e-4, tick)

    sim.call_in(1e-4, tick)
    sim.run()
    return sim.events_processed


def _bench_cancel_storm() -> int:
    """Schedule/cancel/reschedule churn: the tombstone-compaction path.

    Deterministic arithmetic pattern (no RNG): each round schedules a
    spread of timers and cancels two thirds of them, so the agenda
    repeatedly crosses the compaction threshold.
    """
    sim = Simulator()
    fired = {"count": 0}

    def noop() -> None:
        fired["count"] += 1

    for round_ in range(60):
        handles = [
            sim.call_at(sim.now + 1e-3 + (i * 7 % 50) * 1e-5, noop)
            for i in range(300)
        ]
        for i, handle in enumerate(handles):
            if i % 3 != 0:
                handle.cancel()
        sim.run(until=sim.now + 2e-3)
    sim.run()
    return sim.events_processed


def _bench_process_ping() -> int:
    """Generator processes on numeric yields: one agenda wake-up each."""
    sim = Simulator()

    def worker(period: float, steps: int) -> typing.Generator:
        for _ in range(steps):
            yield period

    for k in range(8):
        sim.process(worker(1e-4 * (k + 1), 2_000))
    sim.run()
    return sim.events_processed


# -- full-stack workloads ----------------------------------------------------

def _scenario(**overrides: typing.Any) -> int:
    from ..network import BssScenario, ScenarioConfig

    base: dict[str, typing.Any] = dict(
        scheme="proposed",
        seed=2,
        sim_time=10.0,
        warmup=1.0,
        new_voice_rate=0.3,
        new_video_rate=0.2,
        handoff_voice_rate=0.15,
        handoff_video_rate=0.1,
        mean_holding=10.0,
    )
    base.update(overrides)
    result = BssScenario(ScenarioConfig(**base)).run()
    return int(result["events_processed"])


def _bench_dcf_contention() -> int:
    """Contention-period heavy: many data stations, conventional CFP."""
    return _scenario(
        scheme="conventional", seed=3, sim_time=4.0, warmup=0.5,
        n_data_stations=8,
    )


def _bench_pcf_polling() -> int:
    """CFP heavy: high real-time admission pressure, long holding."""
    return _scenario(
        seed=4, sim_time=4.0, warmup=0.5,
        new_voice_rate=0.6, new_video_rate=0.4, mean_holding=30.0,
    )


def _bench_end_to_end() -> int:
    """One 10-simulated-second proposed-scheme BSS at nominal load."""
    return _scenario()


# -- accelerated-tier workloads (repro.accel) --------------------------------

def _bench_batched_end_to_end() -> int:
    """Pure-DCF contention point under ``engine="batched"``.

    The shape the batched fast path models: a conventional BSS with
    zero real-time call traffic at high data load.
    ``events_processed`` counts the fires the exact engine would have
    dispatched for the modeled exchanges (the accounting table in
    :mod:`repro.accel.engine`), so events-per-second is comparable
    with ``end_to_end``.
    """
    from ..accel import run_scenario
    from ..network import ScenarioConfig

    row = run_scenario(
        ScenarioConfig(
            scheme="conventional",
            seed=7,
            sim_time=10.0,
            warmup=1.0,
            n_data_stations=4,
            load=6.0,
            new_voice_rate=0.0,
            new_video_rate=0.0,
            handoff_voice_rate=0.0,
            handoff_video_rate=0.0,
            engine="batched",
        )
    )
    return int(row["events_processed"])


#: name -> zero-argument workload returning its live-fire count
BENCHMARKS: dict[str, typing.Callable[[], int]] = {
    "timer_chain": _bench_timer_chain,
    "cancel_storm": _bench_cancel_storm,
    "process_ping": _bench_process_ping,
    "dcf_contention": _bench_dcf_contention,
    "pcf_polling": _bench_pcf_polling,
    "end_to_end": _bench_end_to_end,
    "batched_end_to_end": _bench_batched_end_to_end,
}


def measure_allocations(fn: typing.Callable[[], typing.Any]) -> tuple:
    """Run ``fn()`` under ``tracemalloc``; return ``(result, peak_kib)``.

    Peak traced allocation is measured relative to the moment the call
    starts, so a warm interpreter does not inflate the number.  Tracing
    slows execution several-fold, so :func:`run_benchmark` keeps this
    pass separate from its wall-clock timing pass.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base, _ = tracemalloc.get_traced_memory()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, max(0.0, (peak - base) / 1024.0)


def run_benchmark(
    name: str, repeats: int = 3, measure_alloc: bool = True
) -> dict[str, typing.Any]:
    """Run one benchmark; see the module docstring for the fields."""
    workload = BENCHMARKS[name]
    events = 0
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        events = workload()
        best = min(best, time.perf_counter() - start)
    entry: dict[str, typing.Any] = {
        "events": events,
        "wall_s": round(best, 6),
        "events_per_sec": round(events / best) if best > 0 else 0,
    }
    if measure_alloc:
        alloc_events, peak_kib = measure_allocations(workload)
        if alloc_events != events:
            raise RuntimeError(
                f"benchmark {name!r} is non-deterministic: "
                f"{events} events timed vs {alloc_events} traced"
            )
        entry["peak_kib"] = round(peak_kib, 1)
    return entry


def run_benchmarks(
    repeats: int = 5,
    measure_alloc: bool = True,
    progress: typing.Callable[[str, dict], None] | None = None,
) -> dict[str, dict[str, typing.Any]]:
    """Run every benchmark in declaration order; ``{name: entry}``."""
    results: dict[str, dict[str, typing.Any]] = {}
    for name in BENCHMARKS:
        results[name] = entry = run_benchmark(
            name, repeats=repeats, measure_alloc=measure_alloc
        )
        if progress is not None:
            progress(name, entry)
    return results
