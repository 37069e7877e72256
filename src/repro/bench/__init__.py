"""Performance benchmarks and the regression gate (``repro bench``).

* :mod:`repro.bench.micro` — pinned-seed kernel/DCF/PCF/end-to-end
  microbenchmarks; each reports exact live-fire counts (a determinism
  invariant), best-of wall time, derived events/sec and peak traced
  allocation.
* :mod:`repro.bench.gate` — compares a fresh run against the committed
  ``BENCH_KERNEL.json`` baseline, failing on event-count drift or on
  throughput/allocation regressions beyond a tolerance; also enforces
  two constant speedup floors: batched over exact end-to-end (5×,
  whenever a run measures both) and the scaled-down serial-vs-pool
  sweep (2×, with ``--with-sweep``).

The end-to-end benchmark, including the closed-loop serve benchmark
(``query_mix``), is ``perfbench/`` at the repository root.  See
DESIGN.md "Performance" for the fast-path invariants the gate
protects, and README for day-to-day usage.
"""

from .gate import (
    DEFAULT_BASELINE,
    compare,
    load_report,
    main,
    run_parallel_sweep,
)
from .micro import BENCHMARKS, run_benchmark, run_benchmarks

__all__ = [
    "BENCHMARKS",
    "DEFAULT_BASELINE",
    "compare",
    "load_report",
    "main",
    "run_benchmark",
    "run_benchmarks",
    "run_parallel_sweep",
]
