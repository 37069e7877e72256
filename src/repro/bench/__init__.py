"""Performance benchmarks and the regression gate (``repro bench``).

* :mod:`repro.bench.micro` — pinned-seed kernel/DCF/PCF/end-to-end
  microbenchmarks; each reports exact live-fire counts (a determinism
  invariant, pinned in ``BENCH_KERNEL.json`` and checked by tier-1),
  best-of wall time, derived events/sec and peak traced allocation.
* :mod:`repro.bench.gate` — compares a fresh run against the committed
  ``BENCH_KERNEL.json`` baseline, failing on a kernel suite's
  throughput or any suite's allocation regressing beyond a tolerance;
  also enforces two constant speedup floors: batched over exact
  end-to-end (5×) and, with ``--with-sweep``, the scaled-down
  serial-vs-pool sweep (2×).

End-to-end wall time, including the closed-loop serve benchmark
(``query_mix``), is measured by ``perfbench/`` at the repository root.
See DESIGN.md "Performance" for the fast-path invariants the gate
protects, and README for day-to-day usage.
"""

from .gate import (
    DEFAULT_BASELINE,
    compare,
    load_report,
    run_gate,
    run_parallel_sweep,
)
from .micro import BENCHMARKS, run_benchmark, run_benchmarks

__all__ = [
    "BENCHMARKS",
    "DEFAULT_BASELINE",
    "compare",
    "load_report",
    "run_benchmark",
    "run_benchmarks",
    "run_gate",
    "run_parallel_sweep",
]
