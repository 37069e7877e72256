"""The four workloads: inputs, timed loops and traced passes.

Each workload drives only public entry points (``BssScenario.run``,
``repro.accel.run_scenario``, ``SweepExecutor.run``, ``build_server``
and HTTP) and checks every output it gets against a pinned digest in
``digests.json``; a mismatch, an exception or an unexpected status
counts as a failed operation.

The simulated inputs are pinned (scenario seed 7 for the contention
workloads, replication seeds 1 and 2 for the grids), so every output a
run sees has a pinned digest; ``--seed`` orders ``query_mix``'s
requests.  Letting the seed pick the scenario seeds moved the cold
sweep's cost by up to a third between seeds, more than any bound the
benchmark could then hold.  ``python3 perfbench/run.py --pin``
regenerates the digests after a deliberate change to the program's
outputs.

Nothing here imports ``repro`` at module level: the set-up probe times
those imports in a fresh process.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import gc
import hashlib
import heapq
import http.client
import json
import math
import multiprocessing
import os
import pathlib
import random
import resource
import shutil
import statistics
import threading
import time
import typing

import spec
from ledger import BUCKETS, Ledger, Profiled, add_layers, attribute

HERE = pathlib.Path(__file__).resolve().parent
PINS_PATH = HERE / "digests.json"

SCHEMES = ("proposed", "proposed-multipoll", "conventional")
CONTENTION_SEED = 7
GRID_SEEDS = (1, 2)
CONTENTION_SIM_TIME = 5.0
BATCHED_SIM_TIME = 50.0
SWEEP_SIM_TIME = 6.0
SWEEP_WORKERS = 2
#: fully cached replays after each cold pass
REPLAYS = 25
QUERY_SIM_TIME = 6.0
#: closed-loop cycles between two calibration probes (about 0.3 s)
CALIBRATE_EVERY = 10
#: closed-loop cycles of the traced query pass (27 requests each, so
#: the p99 has more than ten samples beyond it)
TRACE_QUERY_CYCLES = 40


# -- output digests ------------------------------------------------------------

def _plain(value: typing.Any) -> typing.Any:
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        return item()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def digest(value: typing.Any) -> str:
    """sha256 of the canonical JSON of ``value`` (bytes hash as-is)."""
    if not isinstance(value, bytes):
        value = json.dumps(
            value, sort_keys=True, separators=(",", ":"), default=_plain
        ).encode()
    return hashlib.sha256(value).hexdigest()


def load_pins() -> dict[str, typing.Any]:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.is_file() else {}


# -- machine-speed calibration ---------------------------------------------------
#
# On a shared machine the same pure-Python loop runs up to a third
# faster or slower from one minute to the next, so raw walls of two runs
# differ by more than any useful bound.  Every gated time is therefore
# scaled by a fixed probe timed right before and after the work it
# covers: it reads as the wall on a machine where one probe takes
# ``REFERENCE_PROBE_S``.  Raw walls are printed beside the scaled ones.

#: nominal seconds of one probe on the reference machine
REFERENCE_PROBE_S = 0.005
_PROBE_EVENTS = 800
_PROBE_CHURN = 3000


class _ProbeEntry:
    __slots__ = ("time", "owner")

    def __init__(self, time_: int, owner: int) -> None:
        self.time = time_
        self.owner = owner


class _ProbeStation:
    """A station of the probe's toy event loop (slotted, seeded RNG)."""

    __slots__ = ("rng", "heard", "sent")

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.heard: list[float] = []
        self.sent = 0

    def on_timer(self, now: float, agenda: list, seq: int) -> None:
        self.sent += 1
        heapq.heappush(agenda, (now + self.rng.expovariate(1e3), seq, self.on_timer))

    def on_frame(self, now: float) -> None:
        heard = self.heard
        heard.append(now)
        if len(heard) > 8:
            del heard[0]


def _probe_once() -> float:
    """Two fixed kernels, independent of the program: a toy event loop
    (heap agenda, bound-method dispatch, seeded draws, a listener
    fan-out) and a heap churn of slotted objects with dict updates.
    Each tracks some workloads' slowdowns better; together they track
    all four better than either alone."""
    start = time.perf_counter()
    stations = [_ProbeStation(seed) for seed in range(8)]
    listeners = [station.on_frame for station in stations]
    agenda: list = [(0.0, seq, station.on_timer) for seq, station in enumerate(stations)]
    heapq.heapify(agenda)
    for seq in range(len(stations), len(stations) + _PROBE_EVENTS):
        now, _seq, fire = heapq.heappop(agenda)
        fire(now, agenda, seq)
        for on_frame in listeners:
            on_frame(now)
    heap: list = []
    totals: dict[int, int] = {}
    for i in range(_PROBE_CHURN):
        heapq.heappush(heap, (i * 7 % 101, i, _ProbeEntry(i, i & 7)))
        if len(heap) > 64:
            entry = heapq.heappop(heap)[2]
            totals[entry.owner] = totals.get(entry.owner, 0) + entry.time
    return time.perf_counter() - start


def probe() -> float:
    """Median wall of three runs of the probe kernels."""
    return statistics.median(_probe_once() for _ in range(3))


def _probe_child(conn) -> None:
    conn.send(probe())
    conn.close()


def parallel_probe(processes: int) -> float:
    """The slowest of ``processes`` probes run at once.

    A parallel sweep keeps every core busy, and a busy sibling core
    slows each one; a lone probe in the idle coordinator would miss that.
    """
    ctx = multiprocessing.get_context("fork")
    pipes, children = [], []
    for _ in range(processes):
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_probe_child, args=(send,))
        child.start()
        send.close()
        pipes.append(receive)
        children.append(child)
    try:
        return max(receive.recv() for receive in pipes)
    finally:
        for child in children:
            child.join()


class Calibrated:
    """``with Calibrated() as c: ...`` then ``wall * c.factor``.

    ``processes`` is how many cores the covered work keeps busy.
    """

    factor = 1.0

    def __init__(self, processes: int = 1) -> None:
        self._probe = probe if processes == 1 else lambda: parallel_probe(processes)

    def __enter__(self) -> "Calibrated":
        self._before = self._probe()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.factor = REFERENCE_PROBE_S / ((self._before + self._probe()) / 2)


# -- accounting --------------------------------------------------------------------

@dataclasses.dataclass
class Tally:
    """Operations attempted and failed, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)
        return ok


def peak_rss_mib(children: bool = False) -> float:
    """Peak resident set of this process (and its largest reaped child)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # Linux reports KiB


def nearest_rank(values: typing.Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(layers: typing.Mapping[str, float]) -> dict[str, float]:
    """``<bucket>.self_s`` and ``<bucket>.share`` for every bucket.

    The self times sum to the traced total.  A layer's share is of the
    program's time, the total less the harness's wrappers, so counting
    does not dilute it; ``harness.share`` is the wrappers' share of the
    whole traced total.
    """
    total = sum(layers.values())
    program = total - layers.get("harness", 0.0)
    out: dict[str, float] = {}
    for bucket in BUCKETS:
        seconds = layers.get(bucket, 0.0)
        out[f"{bucket}.self_s"] = seconds
        out[f"{bucket}.share"] = _ratio(seconds, total if bucket == "harness" else program)
    return out


def simulation_counts(counts: typing.Mapping[str, int], events: int) -> dict[str, float]:
    timers = counts.get("sim.timers_scheduled", 0)
    tx = counts.get("phy.transmissions", 0)
    on_frame = counts.get("mac.on_frame_calls", 0)
    return {
        "sim.events": events,
        "sim.timers_scheduled": timers,
        "sim.cancel_ratio": _ratio(counts.get("sim.cancels", 0), timers),
        "phy.transmissions": tx,
        "phy.listener_calls_per_tx": _ratio(counts.get("phy.listener_calls", 0), tx),
        "mac.on_frame_calls": on_frame,
        "mac.on_frame_useful_ratio": _ratio(counts.get("mac.on_frame_useful", 0), on_frame),
        "core.poll_decisions": counts.get("core.poll_decisions", 0),
        "core.admission_checks": counts.get("core.admission_checks", 0),
    }


def complete(values: typing.Mapping[str, float]) -> dict[str, float]:
    """Every per-layer metric, zero where the workload has none of it."""
    return {name: float(values.get(name, 0.0)) for name, *_ in spec.PER_LAYER}


# -- workloads -------------------------------------------------------------------

class Workload:
    """One workload: ``prepare`` (untimed), ``setup``, ``measure``, ``trace``."""

    name = ""

    def __init__(self, seed: int, work: pathlib.Path, pins: dict | None = None) -> None:
        self.seed = seed
        self.work = work
        self.pins = (pins or {}).get(self.name)
        self.tally = Tally()
        #: end-to-end quantities printed but not gated: name -> (value, unit)
        self.extra: dict[str, tuple[float, str]] = {}

    def prepare(self) -> None:
        """Build inputs that are neither set-up nor timed."""

    def setup(self) -> typing.Any:
        """Imports plus construction up to the first timed call."""
        raise NotImplementedError

    def teardown(self, built: typing.Any) -> None:
        """Release what :meth:`setup` built (the set-up probe calls it)."""

    def measure(self, seconds: float) -> dict[str, float]:
        raise NotImplementedError

    def trace(self) -> dict[str, float]:
        raise NotImplementedError

    def outputs(self) -> dict[str, typing.Any]:
        """Digests of this workload's outputs, for ``digests.json``."""
        raise NotImplementedError


class ContentionExact(Workload):
    name = "contention_exact"
    engine = "exact"
    sim_time = CONTENTION_SIM_TIME

    def config(self):
        from repro.network.bss import ScenarioConfig

        return ScenarioConfig(
            scheme="conventional",
            seed=CONTENTION_SEED,
            sim_time=self.sim_time,
            warmup=1.0,
            n_data_stations=8,
            load=6.0,
            new_voice_rate=0.0,
            new_video_rate=0.0,
            handoff_voice_rate=0.0,
            handoff_video_rate=0.0,
            engine=self.engine,
        )

    def setup(self) -> typing.Any:
        from repro.network.bss import BssScenario

        return BssScenario(self.config())

    def run_once(self, config) -> tuple[dict, float]:
        """One operation: the timed run call (construction is untimed)."""
        from repro.network.bss import BssScenario

        scenario = BssScenario(config)
        start = time.perf_counter()
        row = scenario.run()
        return row, time.perf_counter() - start

    def _checked(self, config) -> tuple[dict | None, float]:
        try:
            row, wall = self.run_once(config)
        except Exception as exc:  # noqa: BLE001 — a raising run is a failed operation
            self.tally.check(False, f"run raised {exc!r}")
            return None, 0.0
        expected = self.pins and self.pins.get("row")
        self.tally.check(digest(row) == expected, "run row differs from its pinned digest")
        return row, wall

    def measure(self, seconds: float) -> dict[str, float]:
        config = self.config()
        raw: list[float] = []
        walls: list[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            gc.collect()  # each run starts from the same heap: steadier peak memory
            with Calibrated() as calibrated:
                row, wall = self._checked(config)
            if row is not None:
                raw.append(wall)
                walls.append(wall * calibrated.factor)
            if time.perf_counter() >= deadline:
                break
        if not walls:
            raw = walls = [math.inf]
        self.extra["runs"] = (len(walls), "count")
        self.extra["raw cost_ms"] = (statistics.median(raw) / config.sim_time * 1e3, "ms")
        return {
            "cost_ms": statistics.median(walls) / config.sim_time * 1e3,
            "rate_per_s": len(walls) * config.sim_time / sum(walls),
            "peak_rss_mib": peak_rss_mib(),
        }

    def trace(self) -> dict[str, float]:
        config = self.config()
        _row, untraced = self._checked(config)
        ledger = Ledger()
        try:
            ledger.install_simulation()
            with Profiled() as profiled:
                row, traced = self._checked(config)
        finally:
            ledger.uninstall()
        events = int(row["events_processed"]) if row else 0
        return complete({
            **layer_metrics(profiled.layers),
            **simulation_counts(ledger.counts, events),
            "trace.overhead": _ratio(traced, untraced),
        })

    def outputs(self) -> dict[str, typing.Any]:
        row, _wall = self.run_once(self.config())
        return {"row": digest(row)}


class ContentionBatched(ContentionExact):
    name = "contention_batched"
    engine = "batched"
    sim_time = BATCHED_SIM_TIME

    def setup(self) -> typing.Any:
        import repro.accel  # noqa: F401 — numpy and the batched tier

        return self.config()

    def run_once(self, config) -> tuple[dict, float]:
        from repro.accel import run_scenario

        start = time.perf_counter()
        row = run_scenario(config)
        return row, time.perf_counter() - start


def _traced_point_fn(ledger: Ledger, spool: pathlib.Path) -> typing.Callable:
    """The sweep's ``point_fn``: profile and count one point in its worker.

    Workers fork from the coordinator after the ledger is installed, so
    they inherit its wrappers; each point resets the worker's copy of
    the counters and leaves its ledger in ``spool``.
    """
    from repro.exec import default_point_fn

    def point_fn(config):
        ledger.reset()
        with Profiled() as profiled:
            row = default_point_fn(config)
        record = {"layers": profiled.layers, "counts": dict(ledger.counts)}
        name = f"{os.getpid()}-{time.perf_counter_ns()}.json"
        (spool / name).write_text(json.dumps(record))
        return row

    return point_fn


@dataclasses.dataclass
class Cycle:
    """One cold pass and its replays: raw walls and calibration factors."""

    cold: float
    replays: list[float]
    summaries: list[dict]
    cold_factor: float
    replay_factor: float


class FigureSweep(Workload):
    name = "figure_sweep"
    sim_time = SWEEP_SIM_TIME
    replays = REPLAYS

    def grid(self) -> list:
        from repro.experiments import BENCH_LOADS, sweep_grid

        t = self.sim_time
        # the sweep CLI's warm-up rule
        return sweep_grid(SCHEMES, BENCH_LOADS, GRID_SEEDS, sim_time=t, warmup=min(8.0, t / 8))

    def executor(self, store: pathlib.Path, point_fn=None):
        """Configured as ``python -m repro sweep --workers 2`` configures it."""
        from repro.exec import ExecutorConfig, SweepExecutor

        return SweepExecutor(
            ExecutorConfig(
                workers=SWEEP_WORKERS,
                schedule="cost",
                cache_dir=str(store),
                journal=str(store / "sweep-journal.jsonl"),
                resume=False,
                timeout=None,
            ),
            point_fn=point_fn,
        )

    def setup(self) -> typing.Any:
        return self.executor(self.work / "setup-store"), self.grid()

    def _check_rows(self, rows: list, points: int) -> None:
        expected = (self.pins or {}).get("rows", [])
        for i in range(points):
            ok = i < len(rows) and i < len(expected) and digest(rows[i]) == expected[i]
            self.tally.check(ok, f"sweep row {i} differs from its pinned digest")

    def _run(self, executor, grid) -> tuple[float, dict | None]:
        from repro.exec import SweepExecutionError

        start = time.perf_counter()
        try:
            rows = executor.run(grid)
        except SweepExecutionError as exc:
            rows = []
            self.tally.errors.append(str(exc)[:200])
        wall = time.perf_counter() - start
        self._check_rows(rows, len(grid))
        return wall, executor.summary() if executor.telemetry else None

    def cycle(self, grid, point_fn=None, between=None, around_replays=None) -> Cycle:
        """One cold pass into a fresh store, then cached replays of it.

        ``between`` runs after the cold pass; ``around_replays`` is a
        context manager wrapped around the replays (the traced pass
        profiles them in this process), inside their calibration.
        """
        store = self.work / "sweep-store"
        shutil.rmtree(store, ignore_errors=True)
        try:
            with Calibrated(SWEEP_WORKERS) as cold_speed:
                cold, cold_summary = self._run(self.executor(store, point_fn), grid)
            if between is not None:
                between()
            replays: list[float] = []
            summaries = [cold_summary]
            with Calibrated() as replay_speed, around_replays or contextlib.nullcontext():
                for _ in range(self.replays):
                    wall, summary = self._run(self.executor(store), grid)
                    replays.append(wall)
                    summaries.append(summary)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        return Cycle(
            cold, replays, [s for s in summaries if s is not None],
            cold_speed.factor, replay_speed.factor,
        )

    def measure(self, seconds: float) -> dict[str, float]:
        grid = self.grid()
        points = len(grid)
        raw_colds: list[float] = []
        colds: list[float] = []
        replays: list[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            cycle = self.cycle(grid)
            raw_colds.append(cycle.cold / points)
            colds.append(cycle.cold * cycle.cold_factor / points)
            replays.extend(wall * cycle.replay_factor for wall in cycle.replays)
            if time.perf_counter() >= deadline:
                break
        self.extra["replay_point_ms"] = (statistics.median(replays) / points * 1e3, "ms")
        self.extra["raw cost_ms"] = (statistics.median(raw_colds) * 1e3, "ms")
        self.extra["cold_passes"] = (len(colds), "count")
        return {
            "cost_ms": statistics.median(colds) * 1e3,
            "rate_per_s": points / statistics.median(replays),
            "peak_rss_mib": peak_rss_mib(children=True),
        }

    def trace(self) -> dict[str, float]:
        grid = self.grid()
        points = len(grid)
        untraced = self.cycle(grid)
        spool = self.work / "spool"
        shutil.rmtree(spool, ignore_errors=True)
        spool.mkdir(parents=True)
        ledger = Ledger()
        cold_seconds: dict[str, float] = {}
        cold_counts: dict[str, int] = {}

        def between() -> None:
            cold_seconds.update(ledger.seconds)
            cold_counts.update(ledger.counts)
            ledger.reset()

        profiled = Profiled()
        try:
            ledger.install_simulation()
            ledger.install_exec()
            traced = self.cycle(grid, _traced_point_fn(ledger, spool), between, profiled)
            replay_seconds = dict(ledger.seconds)
        finally:
            ledger.uninstall()

        layers = dict(profiled.layers)
        counts: collections.Counter[str] = collections.Counter()
        for path in sorted(spool.glob("*.json")):
            record = json.loads(path.read_text())
            add_layers(layers, record["layers"])
            counts.update(record["counts"])
        shutil.rmtree(spool, ignore_errors=True)

        summaries = traced.summaries
        cold = summaries[0] if summaries else {}
        phases = cold.get("phases") or {}
        replayed = points * self.replays
        values = {
            **layer_metrics(layers),
            **simulation_counts(counts, int(cold.get("sim_events", 0))),
            "exec.simulate_s": cold.get("point_wall_total", 0.0),
            "exec.ipc_ms": _ratio(cold_seconds.get("exec.ipc", 0.0), cold_counts.get("exec.ipc", 0)) * 1e3,
            "exec.pool_warmup_s": phases.get("warmup_s", 0.0),
            "exec.drain_s": phases.get("drain_s", 0.0),
            "exec.worker_utilization": cold.get("worker_utilization", 0.0),
            "exec.hash_ms": _ratio(cold_seconds.get("exec.hash", 0.0), points) * 1e3,
            "exec.cache_put_ms": _ratio(cold_seconds.get("exec.cache_put", 0.0), points) * 1e3,
            "exec.journal_append_ms": _ratio(cold_seconds.get("exec.journal_append", 0.0), points) * 1e3,
            "exec.cache_get_ms": _ratio(replay_seconds.get("exec.cache_get", 0.0), replayed) * 1e3,
            "exec.normalize_ms": _ratio(replay_seconds.get("exec.normalize", 0.0), replayed) * 1e3,
            "exec.cache_hit_ratio": _ratio(
                sum(s["cache_hits"] for s in summaries),
                sum(s["cache_hits"] + s["cache_misses"] for s in summaries),
            ),
            "exec.retries": sum(s["retries"] for s in summaries),
            "exec.failed_points": sum(s["failed"] for s in summaries),
            "exec.worker_restarts": sum(s["worker_restarts"] for s in summaries),
            "trace.overhead": _ratio(
                traced.cold + sum(traced.replays), untraced.cold + sum(untraced.replays)
            ),
        }
        return complete(values)

    def outputs(self) -> dict[str, typing.Any]:
        store = self.work / "pin-store"
        shutil.rmtree(store, ignore_errors=True)
        try:
            rows = self.executor(store).run(self.grid())
        finally:
            shutil.rmtree(store, ignore_errors=True)
        return {"rows": [digest(row) for row in rows]}


def query_requests() -> list[tuple[str, int]]:
    """One closed-loop cycle: (path, expected status) for all three schemes."""
    out: list[tuple[str, int]] = []
    for scheme in SCHEMES:
        base = f"/query?scheme={scheme}"
        # exact grid hits, then interpolations between grid loads
        for load in ("0.5", "1.0", "2.0", "0.75", "1.25", "2.5"):
            out.append((f"{base}&kind=operating_point&load={load}", 200))
        out.append((f"{base}&kind=admissible_calls", 200))
        out.append((f"{base}&kind=handoff_drop_rate&load=1.0", 200))
        # a miss: back-fill is off, so it must answer 404
        out.append((f"{base}&kind=operating_point&load=0.8&exact=true", 404))
    return out


@dataclasses.dataclass
class Drive:
    """One closed-loop drive: raw latencies with their calibration."""

    latencies: list[float]
    factors: list[float]
    statuses: collections.Counter
    answered: int
    wall: float
    scaled_wall: float

    def scaled(self) -> list[float]:
        return [latency * factor for latency, factor in zip(self.latencies, self.factors)]


class QueryMix(Workload):
    name = "query_mix"
    sim_time = QUERY_SIM_TIME
    trace_cycles = TRACE_QUERY_CYCLES

    @property
    def store(self) -> pathlib.Path:
        return self.work / "query-cache"

    def grid(self) -> list:
        from repro.experiments import EVALUATION_LOADS, sweep_grid

        t = self.sim_time
        return sweep_grid(SCHEMES, EVALUATION_LOADS, GRID_SEEDS, sim_time=t, warmup=t / 8)

    def prepare(self) -> None:
        from repro.exec import ExecutorConfig, SweepExecutor

        if not (self.store / "results").is_dir():
            SweepExecutor(
                ExecutorConfig(workers=SWEEP_WORKERS, cache_dir=str(self.store))
            ).run(self.grid())

    def setup(self) -> typing.Any:
        from repro.serve import build_server

        return build_server(str(self.store), port=0, backfill=False)

    def teardown(self, built: typing.Any) -> None:
        built.server_close()

    def _ask(self, conn: http.client.HTTPConnection, path: str, status: int) -> tuple[float, int | None]:
        """One request: its latency (``inf`` when it fails) and status."""
        sent = time.perf_counter()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            code = response.status
        except (OSError, http.client.HTTPException) as exc:
            conn.close()  # the next request reconnects
            code, body = None, repr(exc).encode()
        latency = time.perf_counter() - sent
        expected = (self.pins or {}).get("responses", {}).get(path)
        ok = code == status and digest(body) == expected
        if not self.tally.check(ok, f"{path}: status {code} or body differs from its pin"):
            latency = math.inf  # a failed request is slower than any limit
        return latency, code

    def drive(self, seconds: float | None = None, cycles: int | None = None) -> Drive:
        """Closed loop for ``seconds`` or ``cycles`` against a fresh server."""
        server = self.setup()
        thread = threading.Thread(target=server.serve_forever, name="perfbench-serve", daemon=True)
        thread.start()
        rng = random.Random(self.seed)
        requests = query_requests()
        run = Drive([], [], collections.Counter(), 0, 0.0, 0.0)
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            deadline = time.perf_counter() + (seconds or 0.0)
            done = 0
            finished = False
            while not finished:
                block: list[float] = []
                with Calibrated() as calibrated:
                    start = time.perf_counter()
                    for _ in range(CALIBRATE_EVERY):
                        order = list(requests)
                        rng.shuffle(order)
                        for path, status in order:
                            latency, code = self._ask(conn, path, status)
                            block.append(latency)
                            run.statuses[str(code)] += 1
                        done += 1
                        finished = (cycles is not None and done >= cycles) or (
                            seconds is not None and time.perf_counter() >= deadline
                        )
                        if finished:
                            break
                    wall = time.perf_counter() - start
                run.latencies.extend(block)
                run.factors.extend([calibrated.factor] * len(block))
                run.answered += sum(1 for latency in block if latency != math.inf)
                run.wall += wall
                run.scaled_wall += wall * calibrated.factor
        finally:
            conn.close()
            server.stop()
            thread.join(timeout=10)
        return run

    def measure(self, seconds: float) -> dict[str, float]:
        run = self.drive(seconds=seconds)
        scaled = run.scaled()
        self.extra["query_p99_ms"] = (nearest_rank(scaled, 0.99) * 1e3, "ms")
        self.extra["raw cost_ms"] = (statistics.median(run.latencies) * 1e3, "ms")
        self.extra["requests"] = (len(scaled), "count")
        return {
            "cost_ms": statistics.median(scaled) * 1e3,
            "rate_per_s": run.answered / run.scaled_wall,
            "peak_rss_mib": peak_rss_mib(),
        }

    def trace(self) -> dict[str, float]:
        untraced = self.drive(cycles=self.trace_cycles)
        failed_before = self.tally.failed
        ledger = Ledger()
        try:
            ledger.install_serve()
            traced = self.drive(cycles=self.trace_cycles)
        finally:
            ledger.uninstall()
        layers: dict[str, float] = {}
        for profile in ledger.thread_profiles:
            add_layers(layers, attribute(profile))
        seconds, counts = ledger.seconds, ledger.counts
        answers = sum(n for key, n in counts.items() if key.startswith("serve.answer."))
        answered = [latency for latency in traced.latencies if latency != math.inf]
        values: dict[str, float] = {
            **layer_metrics(layers),
            "serve.index_build_s": seconds.get("serve.index_build", 0.0),
            "serve.lookups_per_query": _ratio(counts.get("serve.lookup", 0), answers),
            "serve.lookup_us": _ratio(seconds.get("serve.lookup", 0.0), counts.get("serve.lookup", 0)) * 1e6,
            "serve.http_ms": _ratio(
                sum(answered) - sum(ledger.answer_walls), len(traced.latencies)
            ) * 1e3,
            "serve.p99_ms": nearest_rank(untraced.latencies, 0.99) * 1e3,
            "serve.status_200": traced.statuses.get("200", 0),
            "serve.status_404": traced.statuses.get("404", 0),
            "serve.failed": self.tally.failed - failed_before,
            "trace.overhead": _ratio(traced.wall, untraced.wall),
        }
        for kind in ("operating_point", "admissible_calls", "handoff_drop_rate"):
            key = f"serve.answer.{kind}"
            values[f"serve.answer_ms.{kind}"] = _ratio(seconds.get(key, 0.0), counts.get(key, 0)) * 1e3
        return complete(values)

    def outputs(self) -> dict[str, typing.Any]:
        from repro.serve import build_server

        self.prepare()
        server = build_server(str(self.store), port=0, backfill=False)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        responses: dict[str, str] = {}
        try:
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=10)
            for path, status in query_requests():
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                if response.status != status:
                    raise RuntimeError(f"{path}: expected {status}, got {response.status}: {body[:200]!r}")
                responses[path] = digest(body)
            conn.close()
        finally:
            server.stop()
            thread.join(timeout=10)
        return {"responses": responses}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ContentionExact, ContentionBatched, FigureSweep, QueryMix)
}
