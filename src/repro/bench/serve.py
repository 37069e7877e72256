"""Closed-loop load benchmark for the serving front end.

Builds a small pinned sweep surface in a temporary cache, binds an
in-process :class:`~repro.serve.QueryServer` on an ephemeral port, and
drives it with one keep-alive client issuing a fixed request mix —
exact hits, interpolated lookups, ``admissible_calls`` searches,
``handoff_drop_rate`` reads and deliberate misses — then reports

* client-side throughput (``requests_per_sec`` over the closed loop),
* the answered-query hit rate (200s over everything),
* server-side latency quantiles (p50/p99 from the server's own
  ``serve_request_seconds`` histogram, the same one ``/metrics``
  exposes), and
* a byte-determinism check: the first and last responses to the same
  query must be identical.

``python -m repro bench --with-serve`` records the numbers in the
``serve_queries`` section of the bench report, next to the kernel
microbenchmarks and the parallel-sweep section.
"""

from __future__ import annotations

import http.client
import tempfile
import time
import typing

__all__ = ["REQUEST_MIX", "run_serve_queries"]

#: one closed-loop cycle: (path, expected_status) pairs.  The miss is
#: an ``exact=true`` lookup at an uncached load — with back-fill
#: disabled it must answer 404 deterministically.
REQUEST_MIX: tuple[tuple[str, int], ...] = (
    ("/query?kind=operating_point&scheme=proposed&load=0.5", 200),
    ("/query?kind=operating_point&scheme=proposed&load=1.0", 200),
    ("/query?kind=operating_point&scheme=proposed&load=2.0", 200),
    ("/query?kind=operating_point&scheme=proposed&load=0.75", 200),
    ("/query?kind=operating_point&scheme=proposed&load=1.5", 200),
    ("/query?kind=admissible_calls&scheme=proposed", 200),
    ("/query?kind=handoff_drop_rate&scheme=proposed&load=1.0", 200),
    ("/query?kind=operating_point&scheme=proposed&load=0.8&exact=true", 404),
)


def _build_surface(cache_dir: str, sim_time: float, warmup: float) -> int:
    """Run the pinned warm-up sweep into ``cache_dir``; returns rows."""
    from ..exec import ExecutorConfig, SweepExecutor
    from ..experiments import sweep_grid

    grid = sweep_grid(
        ("proposed",), loads=(0.5, 1.0, 2.0), seeds=(1,),
        sim_time=sim_time, warmup=warmup,
    )
    executor = SweepExecutor(
        ExecutorConfig(workers=1, cache_dir=cache_dir, on_failure="raise")
    )
    executor.run(grid)
    return len(grid)


def run_serve_queries(
    requests: int = 240,
    sim_time: float = 6.0,
    warmup: float = 1.0,
) -> dict[str, typing.Any]:
    """Measure the serving stack; returns the ``serve_queries`` section.

    ``requests`` is rounded down to whole cycles of the request mix so
    the status distribution (and therefore the hit rate) is exact and
    machine-independent; only the timing numbers vary across hosts.
    """
    from ..serve import build_server

    cycles = max(1, requests // len(REQUEST_MIX))
    total = cycles * len(REQUEST_MIX)

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as tmp:
        rows = _build_surface(tmp, sim_time, warmup)
        server = build_server(tmp, port=0, backfill=False)
        import threading

        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=10)
            statuses: dict[str, int] = {}
            first_body: bytes | None = None
            last_body: bytes | None = None

            def fetch(path: str) -> tuple[int, bytes]:
                conn.request("GET", path)
                response = conn.getresponse()
                return response.status, response.read()

            start = time.perf_counter()
            for cycle in range(cycles):
                for path, expected in REQUEST_MIX:
                    status, body = fetch(path)
                    if status != expected:
                        raise RuntimeError(
                            f"{path}: expected {expected}, got {status}: "
                            f"{body[:200]!r}"
                        )
                    key = str(status)
                    statuses[key] = statuses.get(key, 0) + 1
                    if path == REQUEST_MIX[0][0]:
                        if cycle == 0 and first_body is None:
                            first_body = body
                        last_body = body
            wall = time.perf_counter() - start
            conn.close()

            histogram = server.registry.histogram(
                "serve_request_seconds", endpoint="/query"
            )
            p50 = histogram.quantile(0.5)
            p99 = histogram.quantile(0.99)
        finally:
            server.stop()
            thread.join(timeout=10)

    hits = statuses.get("200", 0)
    return {
        "requests": total,
        "wall_s": round(wall, 4),
        "requests_per_sec": round(total / wall, 1) if wall > 0 else 0.0,
        "hit_rate": round(hits / total, 4),
        "statuses": dict(sorted(statuses.items())),
        "latency_p50_ms": round(p50 * 1e3, 3),
        "latency_p99_ms": round(p99 * 1e3, 3),
        "responses_identical": (
            first_body is not None and first_body == last_body
        ),
        "surface_rows": rows,
    }
