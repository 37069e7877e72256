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

:class:`TierSpec`, :func:`resolve_tier` and :func:`tier_grid` are also
the chaos harness's (:mod:`repro.validate.chaos`): both harnesses run
the same monitored grid of named tiers.
"""

from __future__ import annotations

import dataclasses
import typing

from ..exec import SweepExecutor
from ..experiments.config import EVALUATION_LOADS
from ..experiments.figures import fig5
from ..experiments.runner import sweep_grid
from ..faults.plan import FaultPlan
from ..network.bss import SCHEMES, ScenarioConfig
from .shapes import ClaimResult, evaluate_claims

__all__ = [
    "TierSpec",
    "TIERS",
    "FIG5_LADDERS",
    "resolve_tier",
    "tier_grid",
    "validation_grid",
    "ValidationReport",
    "run_validation",
]


@dataclasses.dataclass(frozen=True)
class TierSpec:
    """One named tier: the monitored sweep grid a harness runs."""

    name: str
    description: str
    schemes: tuple[str, ...]
    loads: tuple[float, ...]
    seeds: tuple[int, ...]
    sim_time: float
    warmup: float


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
    ),
}

#: each validation tier's Fig. 5 run: (voice, video) populations and
#: sim_time, on the tier's first seed
FIG5_LADDERS: dict[str, tuple[tuple[tuple[int, int], ...], float]] = {
    "smoke": (((1, 1), (2, 1), (3, 2)), 20.0),
    "full": (((1, 1), (2, 1), (3, 2), (4, 2)), 30.0),
}


def resolve_tier(tiers: typing.Mapping[str, TierSpec], name: str) -> TierSpec:
    """The spec ``tiers`` holds under ``name``; ValueError if none."""
    try:
        return tiers[name]
    except KeyError:
        raise ValueError(
            f"unknown tier {name!r}; available: {sorted(tiers)}"
        ) from None


def tier_grid(
    spec: TierSpec, faults: FaultPlan | None = None
) -> list[ScenarioConfig]:
    """The tier's sweep grid with the runtime monitors switched on."""
    return sweep_grid(
        spec.schemes, spec.loads, spec.seeds, spec.sim_time, spec.warmup,
        monitor_invariants=True, faults=faults,
    )


def validation_grid(tier: str) -> list[ScenarioConfig]:
    """The named validation tier's monitored grid."""
    return tier_grid(resolve_tier(TIERS, tier))


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
    tier: str, *, executor: SweepExecutor | None = None
) -> ValidationReport:
    """Execute the named validation tier end to end.

    ``executor`` is a pre-configured sweep executor (workers/cache/
    journal); a serial uncached one is built when omitted.
    """
    if executor is None:
        executor = SweepExecutor()
    rows = executor.run(validation_grid(tier))
    populations, fig5_sim_time = FIG5_LADDERS[tier]
    fig5_rows = fig5(
        populations=populations,
        seed=TIERS[tier].seeds[0],
        sim_time=fig5_sim_time,
    )
    claims = evaluate_claims(rows, fig5_rows or None)
    return ValidationReport(
        tier=tier,
        claims=tuple(claims),
        grid_rows=len(rows),
        fig5_rows=len(fig5_rows),
        telemetry=executor.summary(),
    )
