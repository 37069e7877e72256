"""Evaluation reproduction: Table II config, sweeps, tables, figures."""

from .config import (
    BENCH_LOADS,
    EVALUATION_LOADS,
    EVALUATION_SEEDS,
    TABLE2,
    sweep_config,
)
from .io import load_results, save_results
from .figures import FIGURE_METRICS, fig5
from .runner import (
    average_over_seeds,
    format_table,
    sweep_grid,
)
from .tables import render_table1, render_table2, table1, table2

__all__ = [
    "TABLE2",
    "EVALUATION_LOADS",
    "EVALUATION_SEEDS",
    "BENCH_LOADS",
    "sweep_config",
    "sweep_grid",
    "average_over_seeds",
    "format_table",
    "table1",
    "table2",
    "render_table1",
    "render_table2",
    "fig5",
    "FIGURE_METRICS",
    "save_results",
    "load_results",
]
