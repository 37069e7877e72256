"""The serving front end: a stdlib-only JSON API over sweep surfaces.

``http.server.ThreadingHTTPServer`` + :class:`SurfaceIndex` +
:class:`~repro.exec.SweepExecutor` — no web framework, no
dependencies.  Endpoints:

``GET /query``
    Answer one capacity-planning query (:mod:`repro.serve.queries`)
    whose parameters ride in the query string (``?kind=operating_point
    &scheme=proposed&load=1.25``).  Answers are 200 with a
    deterministic body; a coordinate whose enclosing grid cell is
    missing corners is a **miss**: the missing configs
    are enqueued to the back-fill executor and the reply is 202 with a
    ``Retry-After`` header, so the cache back-fills under live traffic
    and the same query succeeds once the rows land.

``GET /healthz``
    Liveness + index shape (surfaces, rows, back-fill queue depth).

``GET /surfaces``
    Every surface the index recovered from the cache directory.

``GET /metrics``
    Prometheus 0.0.4 text exposition of the server's registry:
    per-endpoint request counters, request-latency histogram, result
    cache hit/miss counters, back-fill counters.

Every endpoint is GET-only; another method gets http.server's 501.

Concurrency: request handlers share one lock around the index (reads
are sub-millisecond), and the back-fill queue is **bounded** with
**single-flight dedup by cache key** — a thundering herd on one cold
coordinate enqueues its points once, and overload sheds with 503
rather than queueing without bound.
"""

from __future__ import annotations

import json
import math
import threading
import time
import typing
import urllib.parse
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..exec import ExecutorConfig, ResultCache, SweepExecutor, config_key
from ..network.bss import ScenarioConfig
from ..obs.registry import MetricsRegistry
from .metrics import render_prometheus
from .queries import QueryError, answer_query
from .surface import SurfaceError, SurfaceIndex

__all__ = ["BackfillQueue", "QueryServer", "build_server"]

#: request-latency histogram bounds (seconds) — sub-ms exact hits
#: through multi-second cold back-fill polls
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.010, 0.025, 0.050, 0.100, 0.250, 1.0,
)

#: seconds a 202 reply tells the client to wait before retrying
RETRY_AFTER_S = 2

_STATUS_BY_CODE = {
    "bad_request": 400,
    "missing_metric": 400,
    "axis_required": 400,
    "unknown_surface": 404,
    "extrapolation_refused": 422,
}


class BackfillQueue:
    """Bounded, deduplicated queue feeding the warm sweep executor.

    ``submit`` is called from request threads; one daemon worker
    drains the queue in batches through a
    :class:`~repro.exec.SweepExecutor` whose cache dir is the serving
    cache, then folds the fresh entries into the live index.  A key is
    *in flight* from submit until its row landed (or failed) —
    resubmissions of the same key are counted and dropped, so N
    concurrent clients asking for the same cold coordinate cost one
    simulation.
    """

    def __init__(
        self,
        cache: ResultCache,
        index: SurfaceIndex,
        lock: threading.Lock,
        registry: MetricsRegistry,
        workers: int = 1,
        max_queue: int = 64,
        batch: int = 4,
        point_fn: typing.Callable[[ScenarioConfig], dict] | None = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.cache = cache
        self.index = index
        self.lock = lock
        self.batch = max(1, batch)
        self.max_queue = max_queue
        self.executor = SweepExecutor(
            ExecutorConfig(
                workers=workers,
                cache_dir=str(cache.root),
                on_failure="skip",
            ),
            point_fn=point_fn,
        )
        self._queue: deque[tuple[str, dict]] = deque()
        self._inflight: set[str] = set()
        self._cond = threading.Condition()
        self._stop = False
        self._enqueued = registry.counter("serve_backfill_enqueued")
        self._deduped = registry.counter("serve_backfill_deduped")
        self._shed = registry.counter("serve_backfill_shed")
        self._completed = registry.counter("serve_backfill_completed")
        self._failed = registry.counter("serve_backfill_failed")
        self._depth = registry.gauge("serve_backfill_queue_depth")
        self._thread = threading.Thread(
            target=self._run, name="serve-backfill", daemon=True
        )
        self._thread.start()

    def submit(
        self, configs: typing.Sequence[typing.Mapping[str, typing.Any]]
    ) -> dict[str, typing.Any]:
        """Enqueue missing-point configs; returns the triage summary."""
        queued: list[str] = []
        inflight: list[str] = []
        shed: list[str] = []
        with self._cond:
            for config in configs:
                scenario = ScenarioConfig.from_dict(config)
                key = config_key(scenario)
                if key in self._inflight:
                    inflight.append(key)
                    self._deduped.inc()
                    continue
                if len(self._queue) >= self.max_queue:
                    shed.append(key)
                    self._shed.inc()
                    continue
                self._inflight.add(key)
                self._queue.append((key, dict(config)))
                self._enqueued.inc()
                queued.append(key)
            self._depth.set(float(len(self._queue)))
            if queued:
                self._cond.notify()
        return {
            "queued": sorted(queued),
            "in_flight": sorted(inflight),
            "shed": sorted(shed),
        }

    def pending(self) -> int:
        with self._cond:
            return len(self._inflight)

    def stop(self, timeout: float = 10.0) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        self._thread.join(timeout=timeout)

    # -- worker ------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait(timeout=0.5)
                if self._stop and not self._queue:
                    return
                batch = [
                    self._queue.popleft()
                    for _ in range(min(self.batch, len(self._queue)))
                ]
                self._depth.set(float(len(self._queue)))
            try:
                self._execute(batch)
            finally:
                with self._cond:
                    for key, _config in batch:
                        self._inflight.discard(key)

    def _execute(self, batch: list[tuple[str, dict]]) -> None:
        configs = [ScenarioConfig.from_dict(c) for _k, c in batch]
        try:
            self.executor.run(configs)
        except Exception:  # pragma: no cover — on_failure="skip" holds
            pass
        for key, config in batch:
            row = self.cache.get(key)
            if row is None:
                self._failed.inc()
                continue
            with self.lock:
                self.index.add_entry(key, config, row)
            self._completed.inc()


class QueryServer(ThreadingHTTPServer):
    """The HTTP server plus everything a handler needs to answer."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        cache: ResultCache,
        index: SurfaceIndex,
        registry: MetricsRegistry,
        backfill: BackfillQueue | None,
        lock: threading.Lock | None = None,
    ) -> None:
        super().__init__(address, _Handler)
        self._serving = False
        self.cache = cache
        self.index = index
        self.registry = registry
        self.backfill = backfill
        # the same lock the back-fill worker folds fresh entries under
        self.lock = lock if lock is not None else threading.Lock()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        try:
            super().serve_forever(poll_interval=poll_interval)
        finally:
            self._serving = False

    def stop(self) -> None:
        """Clean shutdown: drain the listener, stop the back-fill.

        ``shutdown()`` blocks on an event only ``serve_forever`` sets,
        so it is skipped when the serve loop never ran (e.g. the CLI
        bailing out on an empty cache directory).
        """
        if self._serving:
            self.shutdown()
        self.server_close()
        if self.backfill is not None:
            self.backfill.stop()


def _coerce(value: str) -> typing.Any:
    """Query-string scalar -> finite number where it parses to one,
    string otherwise (so ``nan`` echoes as valid JSON)."""
    try:
        as_float = float(value)
    except ValueError:
        return value
    if not math.isfinite(as_float):
        return value
    return int(as_float) if as_float.is_integer() else as_float


def _parse_constraints(text: str) -> dict[str, float]:
    """``metric:ceiling,metric:ceiling`` -> constraints mapping."""
    out: dict[str, float] = {}
    for clause in text.split(","):
        if not clause:
            continue
        metric, sep, ceiling = clause.partition(":")
        if not sep:
            raise QueryError(
                "bad_request",
                f"constraint {clause!r} must look like metric:ceiling",
            )
        try:
            out[metric] = float(ceiling)
        except ValueError:
            raise QueryError(
                "bad_request",
                f"constraint ceiling {ceiling!r} must be numeric",
            )
    return out


class _Handler(BaseHTTPRequestHandler):
    server: QueryServer  # narrowed for type checkers
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # headers and body go out as separate small writes; without
    # TCP_NODELAY the Nagle / delayed-ACK interaction adds ~40 ms to
    # every keep-alive round trip
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------
    def log_message(self, format: str, *args: typing.Any) -> None:
        pass  # requests are observable via /metrics, not stderr noise

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: typing.Sequence[tuple[str, str]] = (),
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        status: int,
        payload: dict[str, typing.Any],
        extra_headers: typing.Sequence[tuple[str, str]] = (),
    ) -> None:
        body = (
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
            + "\n"
        ).encode("utf-8")
        self._send(status, body, extra_headers=extra_headers)

    def _observe(self, endpoint: str, status: int, started: float) -> None:
        registry = self.server.registry
        registry.counter(
            "serve_requests_total", endpoint=endpoint, status=status
        ).inc()
        registry.histogram(
            "serve_request_seconds", LATENCY_BUCKETS, endpoint=endpoint
        ).observe(time.perf_counter() - started)

    # -- endpoints ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server contract
        started = time.perf_counter()
        split = urllib.parse.urlsplit(self.path)
        endpoint = split.path.rstrip("/") or "/"
        status = 500
        try:
            if endpoint == "/healthz":
                status = self._healthz()
            elif endpoint == "/surfaces":
                status = self._surfaces()
            elif endpoint == "/metrics":
                status = self._metrics()
            elif endpoint == "/query":
                status = self._query(split)
            else:
                status = 404
                self._send_json(
                    404,
                    {"error": {"code": "not_found",
                               "message": f"no route {endpoint}"}},
                )
        except BrokenPipeError:  # pragma: no cover — client went away
            return
        except Exception as exc:  # noqa: BLE001 — surface, don't hang
            status = 500
            self._send_json(
                500,
                {"error": {"code": "internal", "message": repr(exc)}},
            )
        finally:
            self._observe(endpoint, status, started)

    def _healthz(self) -> int:
        with self.server.lock:
            shape = {
                "status": "ok",
                "surfaces": len(self.server.index.surfaces),
                "rows": self.server.index.rows,
                "backfill": (
                    {"enabled": True,
                     "pending": self.server.backfill.pending()}
                    if self.server.backfill is not None
                    else {"enabled": False, "pending": 0}
                ),
            }
        self._send_json(200, shape)
        return 200

    def _surfaces(self) -> int:
        with self.server.lock:
            payload = self.server.index.describe()
        self._send_json(200, payload)
        return 200

    def _metrics(self) -> int:
        text = render_prometheus(self.server.registry).encode("utf-8")
        self._send(
            200, text, content_type="text/plain; version=0.0.4"
        )
        return 200

    def _query_params(
        self, split: urllib.parse.SplitResult
    ) -> dict[str, typing.Any]:
        params: dict[str, typing.Any] = {}
        for name, values in urllib.parse.parse_qs(split.query).items():
            value = values[-1]
            if name == "constraints":
                params[name] = _parse_constraints(value)
            elif name in ("kind", "scheme", "surface_id", "metrics"):
                params[name] = value
            else:
                params[name] = _coerce(value)
        return params

    def _query(self, split: urllib.parse.SplitResult) -> int:
        try:
            params = self._query_params(split)
            kind = params.pop("kind", None)
            if not isinstance(kind, str):
                raise QueryError(
                    "bad_request", "every query needs a 'kind' parameter"
                )
            with self.server.lock:
                result = answer_query(self.server.index, kind, params)
        except (QueryError, SurfaceError) as exc:
            return self._query_error(exc)
        self._send_json(200, result.to_dict())
        return 200

    def _query_error(self, exc: SurfaceError) -> int:
        if exc.code == "missing_points":
            return self._miss(exc)
        status = _STATUS_BY_CODE.get(exc.code, 400)
        self._send_json(status, {"error": exc.to_dict()})
        return status

    def _miss(self, exc: SurfaceError) -> int:
        """A coordinate inside the grid with uncached corners."""
        server = self.server
        surface_id = exc.detail.get("surface_id")
        missing = exc.detail.get("missing", [])
        configs: list[dict[str, typing.Any]] = []
        if server.backfill is not None and surface_id is not None:
            with server.lock:
                surface = server.index.surfaces.get(surface_id)
                if surface is not None:
                    configs = surface.missing_configs(missing)
        if server.backfill is None or not configs:
            self._send_json(404, {"error": exc.to_dict()})
            return 404
        triage = server.backfill.submit(configs)
        if not triage["queued"] and not triage["in_flight"]:
            # nothing accepted: the bounded queue shed every point
            self._send_json(
                503,
                {"error": exc.to_dict(), "backfill": triage},
                extra_headers=[("Retry-After", str(RETRY_AFTER_S))],
            )
            return 503
        self._send_json(
            202,
            {
                "status": "backfilling",
                "error": exc.to_dict(),
                "backfill": triage,
                "retry_after": RETRY_AFTER_S,
            },
            extra_headers=[("Retry-After", str(RETRY_AFTER_S))],
        )
        return 202


def build_server(
    cache_dir: str,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 1,
    backfill: bool = True,
    max_queue: int = 64,
    registry: MetricsRegistry | None = None,
    point_fn: typing.Callable[[ScenarioConfig], dict] | None = None,
) -> QueryServer:
    """Scan ``cache_dir`` into surfaces and bind the query server.

    ``port=0`` binds an ephemeral port (``server.url`` tells you
    where).  ``point_fn`` overrides the back-fill unit of work (tests
    inject stubs; production leaves the default full simulation).
    """
    registry = registry if registry is not None else MetricsRegistry()
    cache = ResultCache(cache_dir, registry=registry)
    index = SurfaceIndex.from_cache(cache)
    registry.gauge("serve_surfaces").set(float(len(index.surfaces)))
    registry.gauge("serve_index_rows").set(float(index.rows))
    lock = threading.Lock()
    queue = (
        BackfillQueue(
            cache,
            index,
            lock,
            registry,
            workers=workers,
            max_queue=max_queue,
            point_fn=point_fn,
        )
        if backfill
        else None
    )
    return QueryServer((host, port), cache, index, registry, queue, lock)
