"""Sweep grids and tabular rendering for the evaluation figures.

:func:`sweep_grid` builds the ``schemes x loads x seeds`` grid of
configs; a :class:`~repro.exec.SweepExecutor` runs it
(``executor.run(sweep_grid(...))``), serially in-process by default
or parallel, cached and resumable when configured.
"""

from __future__ import annotations

import typing

from ..metrics.stats import OnlineStats
from ..network.bss import ScenarioConfig
from .config import EVALUATION_LOADS, EVALUATION_SEEDS, sweep_config

__all__ = [
    "sweep_grid",
    "average_over_seeds",
    "format_table",
]


def sweep_grid(
    schemes: typing.Sequence[str],
    loads: typing.Sequence[float] = EVALUATION_LOADS,
    seeds: typing.Sequence[int] = EVALUATION_SEEDS,
    sim_time: float = 60.0,
    warmup: float = 5.0,
    **fields: typing.Any,
) -> list[ScenarioConfig]:
    """The evaluation grid as configs: schemes x loads x seeds.

    ``fields`` set any other config field on every point (the tier
    harnesses pass ``monitor_invariants`` and ``faults``).
    """
    return [
        sweep_config(scheme, load, seed, sim_time, warmup, **fields)
        for scheme in schemes
        for load in loads
        for seed in seeds
    ]


def average_over_seeds(
    rows: typing.Sequence[dict],
    metrics: typing.Sequence[str],
) -> list[dict[str, typing.Any]]:
    """Collapse replications: group by (scheme, load), average metrics."""
    groups: dict[tuple, dict[str, OnlineStats]] = {}
    for row in rows:
        key = (row["scheme"], row["load"])
        stats = groups.setdefault(key, {m: OnlineStats() for m in metrics})
        for m in metrics:
            value = row.get(m)
            if isinstance(value, (int, float)):
                stats[m].add(float(value))
    out = []
    for (scheme, load), stats in sorted(groups.items()):
        entry: dict[str, typing.Any] = {"scheme": scheme, "load": load}
        for m in metrics:
            entry[m] = stats[m].mean
            entry[f"{m}_std"] = stats[m].std
        out.append(entry)
    return out


def format_table(
    rows: typing.Sequence[dict],
    columns: typing.Sequence[str],
    title: str = "",
    floatfmt: str = ".4g",
) -> str:
    """Plain-text table renderer (no external dependencies)."""
    def cell(v: typing.Any) -> str:
        if isinstance(v, float):
            return format(v, floatfmt)
        return str(v)

    body = [[cell(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(c), *(len(b[i]) for b in body)) if body else len(c)
        for i, c in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for b in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(b, widths)))
    return "\n".join(lines)
