"""What the benchmark measures: workloads, metrics and their targets.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``) and the harness self-tests
check the two agree.  The JSON file only holds each metric's name,
unit and direction; the target each per-layer metric should move lives
here, in ``PER_LAYER``, and is printed beside it in every layer table.

Every workload reports every end-to-end metric, so the gated names are
workload-neutral.  Each workload's *unit* of work gives them their
meaning, and the ``ALIASES`` table names the quantity each one is on
that workload.
"""

from __future__ import annotations

import typing

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20

#: name -> why it is in the benchmark (one line each)
WORKLOADS: dict[str, str] = {
    "contention_exact": (
        "per-frame DCF hot path of one exact BSS (8 stations, load 6, "
        "~0.88 busy) via BssScenario.run; the PHY/MAC fan-out cut must "
        "show here; core idle"
    ),
    "contention_batched": (
        "the same pure-DCF BSS under engine=batched via "
        "repro.accel.run_scenario; the only accel workload; it bypasses "
        "PHY/MAC, so a fan-out cut must leave it unchanged"
    ),
    "figure_sweep": (
        "the Fig. 6-11 BENCH_LOADS grid (18 points) cold through "
        "SweepExecutor on 2 warm workers, then cached replays; the only "
        "workload running core and exec"
    ),
    "query_mix": (
        "one keep-alive client in a closed loop over build_server: exact "
        "hits, interpolations, admissible_calls, handoff reads and 404 "
        "misses for all 3 schemes"
    ),
}

#: (name, unit, better, bound).  Times are scaled to the reference speed
#: of the calibration probe (``workloads.Calibrated``).
END_TO_END: list[tuple[str, str, str, float]] = [
    # median host ms per unit of work: per simulated second of the run
    # call (contention_*), per point of a cold SweepExecutor.run from pool
    # spawn to last cached row (figure_sweep), per request from send to
    # last response byte (query_mix)
    ("cost_ms", "ms", "lower", 0.25),
    # throughput of the repeated path: simulated s per host s over all
    # runs (contention_*), points per s of the median fully cached replay
    # (figure_sweep), answered requests per s of closed-loop wall
    # (query_mix)
    ("rate_per_s", "1/s", "higher", 0.25),
    # median over fresh processes of imports plus everything before the
    # first timed call (config, construction, cache scan, server bind);
    # query_mix's cache fill is excluded
    ("setup_s", "s", "lower", 0.25),
    # peak resident memory of the workload process; figure_sweep also
    # covers its largest worker
    ("peak_rss_mib", "MiB", "lower", 0.1),
]

#: per workload: end-to-end name -> (the quantity it is there, its unit
#: and scale from the gated value)
ALIASES: dict[str, dict[str, tuple[str, str, float]]] = {
    "contention_exact": {
        "cost_ms": ("host_s_per_sim_s", "s/s", 1e-3),
        "rate_per_s": ("sim_s_per_host_s", "s/s", 1.0),
    },
    "contention_batched": {
        "cost_ms": ("host_s_per_sim_s", "s/s", 1e-3),
        "rate_per_s": ("sim_s_per_host_s", "s/s", 1.0),
    },
    "figure_sweep": {
        "cost_ms": ("sweep_point_s", "s", 1e-3),
        "rate_per_s": ("replay_points_per_s", "1/s", 1.0),
    },
    "query_mix": {
        "cost_ms": ("query_p50_ms", "ms", 1.0),
        "rate_per_s": ("query_rps", "req/s", 1.0),
    },
}

SIM =("contention_exact", "contention_batched", "figure_sweep")
EXACT = ("contention_exact", "figure_sweep")

LayerMetric = tuple[str, str, str, str, tuple[str, ...]]


def _layer_rows() -> list[LayerMetric]:
    rows: list[LayerMetric] = []
    for bucket, target, on in (
        ("sim", "cost_ms", SIM),
        ("phy", "cost_ms", EXACT),
        ("mac", "cost_ms", EXACT),
        ("core", "cost_ms", ("figure_sweep",)),
        ("baseline", "cost_ms", EXACT),
        ("traffic", "cost_ms", SIM),
        ("network", "cost_ms", EXACT),
        ("metrics", "cost_ms", EXACT),
        ("obs", "cost_ms", EXACT),
        ("accel", "cost_ms", ("contention_batched",)),
        ("exec", "cost_ms,rate_per_s", ("figure_sweep",)),
        ("serve", "cost_ms,rate_per_s", ("query_mix",)),
        ("other", "cost_ms", tuple(WORKLOADS)),
        ("harness", "none (tracing cost)", tuple(WORKLOADS)),
    ):
        rows.append((f"{bucket}.self_s", "s", "lower", target, on))
        rows.append((f"{bucket}.share", "fraction", "lower", target, on))
    return rows


#: (name, unit, better, end-to-end metric it should move, on workloads)
PER_LAYER: list[LayerMetric] = _layer_rows() + [
    ("sim.events", "count", "lower", "cost_ms", SIM),
    ("sim.timers_scheduled", "count", "lower", "cost_ms", SIM),
    ("sim.cancel_ratio", "ratio", "lower", "cost_ms", SIM),
    ("phy.transmissions", "count", "lower", "cost_ms", EXACT),
    ("phy.listener_calls_per_tx", "calls/tx", "lower", "cost_ms", EXACT),
    ("mac.on_frame_calls", "count", "lower", "cost_ms", EXACT),
    ("mac.on_frame_useful_ratio", "ratio", "higher", "cost_ms", EXACT),
    ("core.poll_decisions", "count", "lower", "cost_ms", ("figure_sweep",)),
    ("core.admission_checks", "count", "lower", "cost_ms", ("figure_sweep",)),
    ("exec.simulate_s", "s", "lower", "cost_ms", ("figure_sweep",)),
    ("exec.ipc_ms", "ms", "lower", "cost_ms", ("figure_sweep",)),
    ("exec.pool_warmup_s", "s", "lower", "cost_ms", ("figure_sweep",)),
    ("exec.drain_s", "s", "lower", "cost_ms", ("figure_sweep",)),
    ("exec.worker_utilization", "ratio", "higher", "cost_ms", ("figure_sweep",)),
    ("exec.hash_ms", "ms", "lower", "cost_ms", ("figure_sweep",)),
    ("exec.cache_put_ms", "ms", "lower", "cost_ms", ("figure_sweep",)),
    ("exec.journal_append_ms", "ms", "lower", "cost_ms", ("figure_sweep",)),
    ("exec.cache_get_ms", "ms", "lower", "rate_per_s", ("figure_sweep",)),
    ("exec.normalize_ms", "ms", "lower", "rate_per_s", ("figure_sweep",)),
    ("exec.cache_hit_ratio", "ratio", "higher", "rate_per_s", ("figure_sweep",)),
    ("exec.retries", "count", "lower", "cost_ms", ("figure_sweep",)),
    ("exec.failed_points", "count", "lower", "cost_ms", ("figure_sweep",)),
    ("exec.worker_restarts", "count", "lower", "cost_ms", ("figure_sweep",)),
    ("serve.index_build_s", "s", "lower", "setup_s", ("query_mix",)),
    ("serve.answer_ms.operating_point", "ms", "lower", "cost_ms,rate_per_s", ("query_mix",)),
    ("serve.answer_ms.admissible_calls", "ms", "lower", "rate_per_s", ("query_mix",)),
    ("serve.answer_ms.handoff_drop_rate", "ms", "lower", "cost_ms,rate_per_s", ("query_mix",)),
    ("serve.lookups_per_query", "count", "lower", "rate_per_s", ("query_mix",)),
    ("serve.lookup_us", "us", "lower", "rate_per_s", ("query_mix",)),
    ("serve.http_ms", "ms", "lower", "cost_ms", ("query_mix",)),
    ("serve.p99_ms", "ms", "lower", "rate_per_s", ("query_mix",)),
    ("serve.status_200", "count", "higher", "rate_per_s", ("query_mix",)),
    ("serve.status_404", "count", "higher", "rate_per_s", ("query_mix",)),
    ("serve.failed", "count", "lower", "rate_per_s", ("query_mix",)),
    ("trace.overhead", "ratio", "lower", "none (tracing cost)", tuple(WORKLOADS)),
]

#: per-layer metrics that count work: they must repeat exactly between
#: two traced runs of one seed
COUNT_METRICS = tuple(
    name for name, unit, *_ in PER_LAYER
    if unit in ("count", "calls/tx") or name in (
        "sim.cancel_ratio", "mac.on_frame_useful_ratio", "exec.cache_hit_ratio",
    )
)


def benchmark_json() -> dict[str, typing.Any]:
    """The content of the root ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _t, _on in PER_LAYER
        ],
    }
