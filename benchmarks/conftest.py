"""Shared machinery for the figure-regeneration benchmarks.

The paper's Figs. 6-11 are all projections of one scheme x load sweep,
so the sweep runs once per benchmark session (session-scoped fixture)
and each figure's bench projects, validates and renders its own series.
Rendered tables are also written to ``benchmarks/results/`` so the
regenerated figures survive pytest's output capture.
"""

import os
import pathlib

import pytest

from repro.exec import ExecutorConfig, SweepExecutor
from repro.experiments import BENCH_LOADS, EVALUATION_SEEDS, sweep_grid

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: the scaled-down evaluation grid (shapes, not absolute magnitudes);
#: loads/seeds come from the canonical definitions in
#: repro.experiments.config so the grids can't drift apart
SWEEP_SCHEMES = ("proposed", "proposed-multipoll", "conventional")
SWEEP_LOADS = BENCH_LOADS
SWEEP_SEEDS = EVALUATION_SEEDS
SWEEP_SIM_TIME = 80.0
SWEEP_WARMUP = 8.0

#: process-pool size for the shared sweep; workers=1 and workers=N
#: produce identical rows, so this only changes wall time
SWEEP_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


@pytest.fixture(scope="session")
def sweep_rows():
    """Run the shared evaluation sweep once per benchmark session."""
    executor = SweepExecutor(ExecutorConfig(workers=SWEEP_WORKERS))
    return executor.run(
        sweep_grid(
            SWEEP_SCHEMES,
            loads=SWEEP_LOADS,
            seeds=SWEEP_SEEDS,
            sim_time=SWEEP_SIM_TIME,
            warmup=SWEEP_WARMUP,
        )
    )


def save_artifact(name: str, text: str) -> None:
    """Persist a rendered table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")
    print(f"\n{text}\n[saved to benchmarks/results/{name}]")


def by_scheme_load(rows, scheme):
    """{load: row} for one scheme from an averaged figure table."""
    return {r["load"]: r for r in rows if r["scheme"] == scheme}
