"""Tiered validation runs: grid -> claims -> JSON verdict report.

``python -m repro validate --tier {smoke,full}`` lands here.  A tier
is a named sweep grid (schemes x loads x seeds, with the runtime
invariant monitors switched on) plus a Fig. 5 static-population run;
the grid executes through :class:`repro.exec.SweepExecutor` — so it is
parallel, content-address cached and resumable like any other sweep —
and the rows feed :func:`repro.validate.shapes.evaluate_claims`.

The **smoke** tier gates CI: the load extremes only, three seeds,
sized to finish in a few minutes on two workers.  The **full** tier
covers the whole evaluation load axis for release-grade checks.
"""

from __future__ import annotations

import dataclasses
import typing

from ..exec import SweepExecutor
from ..experiments.config import EVALUATION_LOADS, sweep_config
from ..network.bss import SCHEMES, ScenarioConfig
from .shapes import ClaimResult, ShapeThresholds, evaluate_claims

__all__ = [
    "TierSpec",
    "TIERS",
    "validation_grid",
    "ValidationReport",
    "run_validation",
]


@dataclasses.dataclass(frozen=True)
class TierSpec:
    """One named validation tier: grid shape + Fig. 5 populations."""

    name: str
    description: str
    schemes: tuple[str, ...]
    loads: tuple[float, ...]
    seeds: tuple[int, ...]
    sim_time: float
    warmup: float
    fig5_populations: tuple[tuple[int, int], ...]
    fig5_sim_time: float

    @property
    def grid_points(self) -> int:
        return len(self.schemes) * len(self.loads) * len(self.seeds)


TIERS: dict[str, TierSpec] = {
    "smoke": TierSpec(
        name="smoke",
        description=(
            "load extremes x 3 seeds x all schemes at sim_time=80 "
            "(the shortest horizon where the Fig. 10 reversal holds "
            "per-seed), plus a reduced Fig. 5 population ladder; "
            "sized for CI (~2-4 min on 2 workers)"
        ),
        schemes=SCHEMES,
        loads=(0.5, 3.0),
        seeds=(1, 2, 3),
        sim_time=80.0,
        warmup=8.0,
        fig5_populations=((1, 1), (2, 1), (3, 2)),
        fig5_sim_time=20.0,
    ),
    "full": TierSpec(
        name="full",
        description=(
            "the whole evaluation load axis x 3 seeds x all schemes "
            "at sim_time=80, plus the paper's full Fig. 5 ladder; "
            "release-grade (tens of minutes serial, minutes on a pool)"
        ),
        schemes=SCHEMES,
        loads=tuple(EVALUATION_LOADS),
        seeds=(1, 2, 3),
        sim_time=80.0,
        warmup=8.0,
        fig5_populations=((1, 1), (2, 1), (3, 2), (4, 2)),
        fig5_sim_time=30.0,
    ),
}


def _resolve(tier: str | TierSpec) -> TierSpec:
    if isinstance(tier, TierSpec):
        return tier
    try:
        return TIERS[tier]
    except KeyError:
        raise ValueError(
            f"unknown tier {tier!r}; available: {sorted(TIERS)}"
        ) from None


def validation_grid(tier: str | TierSpec) -> list[ScenarioConfig]:
    """The tier's sweep grid, with the runtime monitors switched on."""
    spec = _resolve(tier)
    return [
        dataclasses.replace(
            sweep_config(scheme, load, seed, spec.sim_time, spec.warmup),
            monitor_invariants=True,
        )
        for scheme in spec.schemes
        for load in spec.loads
        for seed in spec.seeds
    ]


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    """The verdict of one validation run."""

    tier: str
    claims: tuple[ClaimResult, ...]
    grid_rows: int
    fig5_rows: int
    telemetry: dict[str, typing.Any] = dataclasses.field(default_factory=dict)

    @property
    def failed(self) -> tuple[ClaimResult, ...]:
        return tuple(c for c in self.claims if c.status == "fail")

    @property
    def skipped(self) -> tuple[ClaimResult, ...]:
        return tuple(c for c in self.claims if c.status == "skip")

    @property
    def passed(self) -> bool:
        """Green iff no claim failed (skips are not failures)."""
        return not self.failed

    def to_dict(self) -> dict[str, typing.Any]:
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.claims:
            counts[c.status] += 1
        return {
            "tier": self.tier,
            "passed": self.passed,
            "counts": counts,
            "grid_rows": self.grid_rows,
            "fig5_rows": self.fig5_rows,
            "claims": [c.as_dict() for c in self.claims],
            "telemetry": self.telemetry,
        }

    def render(self) -> str:
        """Human-readable one-line-per-claim summary."""
        mark = {"pass": "PASS", "fail": "FAIL", "skip": "skip"}
        lines = [f"validation tier '{self.tier}': "
                 f"{'PASSED' if self.passed else 'FAILED'}"]
        for c in self.claims:
            lines.append(f"  [{mark[c.status]}] {c.claim_id}: {c.detail}")
        return "\n".join(lines)


def run_validation(
    tier: str | TierSpec,
    *,
    executor: SweepExecutor | None = None,
    thresholds: ShapeThresholds | None = None,
    include_fig5: bool = True,
) -> ValidationReport:
    """Execute one validation tier end to end.

    Parameters
    ----------
    tier:
        A name from :data:`TIERS` or a custom :class:`TierSpec`.
    executor:
        Pre-configured sweep executor (workers/cache/journal); a
        serial uncached one is built when omitted.
    thresholds:
        Gate constants override (defaults are the calibrated ones).
    include_fig5:
        Skip the static-population Fig. 5 run when False (its claim
        then reports ``skip``).
    """
    spec = _resolve(tier)
    if executor is None:
        executor = SweepExecutor()
    rows = executor.run(validation_grid(spec))
    fig5_rows: list[dict] = []
    if include_fig5:
        from ..experiments.figures import fig5

        fig5_rows = fig5(
            populations=spec.fig5_populations,
            seed=spec.seeds[0],
            sim_time=spec.fig5_sim_time,
        )
    claims = evaluate_claims(rows, fig5_rows or None, thresholds)
    return ValidationReport(
        tier=spec.name,
        claims=tuple(claims),
        grid_rows=len(rows),
        fig5_rows=len(fig5_rows),
        telemetry=executor.summary(),
    )
