"""Chaos soak harness: fault-scenario grids -> degradation report.

``python -m repro chaos --tier {smoke,full}`` lands here.  A chaos
tier crosses the canonical evaluation point with a set of named
**fault mixes** — reproducible :class:`~repro.faults.plan.FaultPlan`
instances ranging from the empty plan (hardened semantics armed,
nothing injected) to combined bursty-channel + control-frame-loss +
station-churn storms.  The grid executes through
:class:`repro.exec.SweepExecutor` (parallel, content-address cached,
resumable) with the runtime invariant monitors armed, and the rows are
summarized into a JSON **degradation report**: which QoS budgets held
or broke under each mix, how many stations were evicted, how much
admitted bandwidth was reclaimed and later re-admitted.

The gate is deliberately asymmetric:

* **structural invariants** (clock, NAV, token discipline, CFP
  accounting) must hold under *every* mix — injected faults may
  degrade service, never break the protocol machinery;
* **QoS budgets** must hold only under the ``baseline`` mix (no
  injection); under injected loss a budget miss is expected
  degradation and is reported, not gated.

Exit-code contract (mirrors ``validate``): 0 = gates green, 1 = a
gate failed, 2 = grid points permanently failed to execute.
"""

from __future__ import annotations

import dataclasses
import typing

from ..exec import SweepExecutor
from ..experiments.config import sweep_config
from ..network.bss import ScenarioConfig
from .plan import FaultPlan, FrameLossRule, GilbertElliottParams, StationFault

__all__ = [
    "ChaosTierSpec",
    "CHAOS_TIERS",
    "fault_mix",
    "MIX_NAMES",
    "chaos_grid",
    "MixSummary",
    "ChaosReport",
    "run_chaos",
]


@dataclasses.dataclass(frozen=True)
class ChaosTierSpec:
    """One named chaos tier: evaluation points x fault mixes."""

    name: str
    description: str
    schemes: tuple[str, ...]
    loads: tuple[float, ...]
    seeds: tuple[int, ...]
    sim_time: float
    warmup: float
    mixes: tuple[str, ...]

    @property
    def grid_points(self) -> int:
        return (
            len(self.schemes) * len(self.loads) * len(self.seeds)
            * len(self.mixes)
        )


#: canonical mix order (render order of the report)
MIX_NAMES = (
    "baseline",
    "bursty-channel",
    "control-loss",
    "station-churn",
    "combined",
)

#: moderately bursty channel: ~9% of frames see the Bad state in bursts
#: of mean length 5; a 512-octet MPDU survives a Bad frame ~42% of the
#: time, so the long-run frame loss sits near 5%
_GE_MODERATE = GilbertElliottParams(
    p_good_to_bad=0.02, p_bad_to_good=0.2, ber_good=1e-6, ber_bad=2e-4
)


def _churn_schedule(
    sim_time: float, warmup: float, heavy: bool
) -> tuple[StationFault, ...]:
    """Freeze/crash/recover schedule spread over the measured window.

    Durations are sized well past the AP's missed-poll eviction horizon
    (a few hundred ms at the default K=6), so each fault exercises the
    full evict -> reclaim -> recover -> re-admit cycle; recoveries land
    with plenty of holding time left for the re-admission to happen.
    """
    span = sim_time - warmup
    faults = [
        StationFault(at=warmup + 0.15 * span, mode="freeze", duration=2.0),
        StationFault(at=warmup + 0.35 * span, mode="crash", duration=2.5),
        StationFault(
            at=warmup + 0.55 * span, mode="freeze", duration=2.0, kind="voice"
        ),
        StationFault(
            at=warmup + 0.70 * span, mode="crash", duration=2.0, kind="video"
        ),
    ]
    if heavy:
        faults += [
            StationFault(at=warmup + 0.25 * span, mode="freeze", duration=1.5),
            StationFault(at=warmup + 0.80 * span, mode="crash", duration=None),
        ]
    return tuple(faults)


def fault_mix(name: str, sim_time: float, warmup: float) -> FaultPlan:
    """Build the named mix's plan for a given simulation horizon."""
    if name == "baseline":
        return FaultPlan()
    if name == "bursty-channel":
        return FaultPlan(gilbert_elliott=_GE_MODERATE)
    if name == "control-loss":
        return FaultPlan(
            frame_loss=(
                FrameLossRule("cf_poll", 0.2),
                FrameLossRule("ack", 0.1),
                FrameLossRule("cf_end", 0.5),
            )
        )
    if name == "station-churn":
        return FaultPlan(
            station_faults=_churn_schedule(sim_time, warmup, heavy=True)
        )
    if name == "combined":
        return FaultPlan(
            gilbert_elliott=_GE_MODERATE,
            frame_loss=(
                FrameLossRule("cf_poll", 0.1),
                FrameLossRule("cf_end", 0.25),
            ),
            station_faults=_churn_schedule(sim_time, warmup, heavy=False),
        )
    raise ValueError(f"unknown fault mix {name!r}; available: {MIX_NAMES}")


CHAOS_TIERS: dict[str, ChaosTierSpec] = {
    "smoke": ChaosTierSpec(
        name="smoke",
        description=(
            "all five fault mixes on the proposed scheme at load 1, "
            "two seeds, sim_time=30; sized for CI (~2-3 min on 2 "
            "workers)"
        ),
        schemes=("proposed",),
        loads=(1.0,),
        seeds=(1, 2),
        sim_time=30.0,
        warmup=4.0,
        mixes=MIX_NAMES,
    ),
    "full": ChaosTierSpec(
        name="full",
        description=(
            "all fault mixes x all schemes x light/heavy load x three "
            "seeds at sim_time=60; release-grade soak"
        ),
        schemes=("proposed", "proposed-multipoll", "conventional"),
        loads=(0.5, 2.0),
        seeds=(1, 2, 3),
        sim_time=60.0,
        warmup=6.0,
        mixes=MIX_NAMES,
    ),
}


def _resolve(tier: str | ChaosTierSpec) -> ChaosTierSpec:
    if isinstance(tier, ChaosTierSpec):
        return tier
    try:
        return CHAOS_TIERS[tier]
    except KeyError:
        raise ValueError(
            f"unknown chaos tier {tier!r}; available: {sorted(CHAOS_TIERS)}"
        ) from None


def chaos_grid(
    tier: str | ChaosTierSpec,
) -> list[tuple[str, ScenarioConfig]]:
    """(mix name, config) pairs; configs carry plans + armed monitors."""
    spec = _resolve(tier)
    return [
        (
            mix,
            dataclasses.replace(
                sweep_config(scheme, load, seed, spec.sim_time, spec.warmup),
                monitor_invariants=True,
                faults=fault_mix(mix, spec.sim_time, spec.warmup),
            ),
        )
        for mix in spec.mixes
        for scheme in spec.schemes
        for load in spec.loads
        for seed in spec.seeds
    ]


_SUMMED_COUNTERS = (
    "poll_retries",
    "polls_lost",
    "ghost_polls",
    "unreachable_nulls",
    "cf_ends_lost",
    "evictions",
    "readmissions",
    "station_crashes",
    "station_freezes",
    "station_recoveries",
)


@dataclasses.dataclass(frozen=True)
class MixSummary:
    """Aggregated degradation of one fault mix across its grid rows."""

    name: str
    rows: int
    #: summed protocol/fault counters (see _SUMMED_COUNTERS)
    counters: dict[str, int]
    #: summed admitted airtime fraction returned by evictions
    reclaimed_bandwidth: float
    #: QoS budget misses across the mix's rows (expected degradation)
    qos_breaches: int
    #: worst single breach, as a multiple of its budget (0 = none)
    worst_breach_ratio: float
    #: structural invariant violations (must be zero, every mix)
    invariant_violations: int
    #: delivered / (delivered + lost) across real-time packets
    rt_delivery_ratio: float

    def as_dict(self) -> dict[str, typing.Any]:
        return dataclasses.asdict(self)


def _summarize_mix(name: str, rows: list[dict]) -> MixSummary:
    counters = {key: 0 for key in _SUMMED_COUNTERS}
    reclaimed = 0.0
    breaches = 0
    worst_ratio = 0.0
    violations = 0
    delivered = lost = 0
    for row in rows:
        violations += len(row.get("invariant_violations", ()))
        faults = row.get("faults") or {}
        for key in _SUMMED_COUNTERS:
            counters[key] += int(faults.get(key, 0))
        reclaimed += float(faults.get("reclaimed_bandwidth", 0.0))
        for breach in faults.get("qos_breaches", ()):
            breaches += 1
            budget = float(breach.get("budget", 0.0)) or 1.0
            worst_ratio = max(
                worst_ratio, float(breach.get("measured", 0.0)) / budget
            )
        for kind in ("voice", "video", "ho-voice", "ho-video"):
            delivered += int(row.get(f"{kind}_delivered", 0))
            lost += int(row.get(f"{kind}_losses", 0))
    total = delivered + lost
    return MixSummary(
        name=name,
        rows=len(rows),
        counters=counters,
        reclaimed_bandwidth=reclaimed,
        qos_breaches=breaches,
        worst_breach_ratio=worst_ratio,
        invariant_violations=violations,
        rt_delivery_ratio=delivered / total if total else 1.0,
    )


@dataclasses.dataclass(frozen=True)
class ChaosReport:
    """The degradation report of one chaos run."""

    tier: str
    mixes: tuple[MixSummary, ...]
    grid_rows: int
    telemetry: dict[str, typing.Any] = dataclasses.field(default_factory=dict)

    def _mix(self, name: str) -> MixSummary | None:
        for m in self.mixes:
            if m.name == name:
                return m
        return None

    @property
    def structural_clean(self) -> bool:
        """No mix broke a structural invariant."""
        return all(m.invariant_violations == 0 for m in self.mixes)

    @property
    def baseline_clean(self) -> bool:
        """The no-injection mix held every QoS budget (vacuously true
        when the tier does not run a baseline mix)."""
        base = self._mix("baseline")
        return base is None or base.qos_breaches == 0

    @property
    def passed(self) -> bool:
        return self.structural_clean and self.baseline_clean

    def to_dict(self) -> dict[str, typing.Any]:
        return {
            "tier": self.tier,
            "passed": self.passed,
            "structural_clean": self.structural_clean,
            "baseline_clean": self.baseline_clean,
            "grid_rows": self.grid_rows,
            "mixes": [m.as_dict() for m in self.mixes],
            "telemetry": self.telemetry,
        }

    def render(self) -> str:
        """Human-readable per-mix degradation summary."""
        lines = [
            f"chaos tier '{self.tier}': "
            f"{'PASSED' if self.passed else 'FAILED'}"
            f" (structural {'clean' if self.structural_clean else 'BROKEN'},"
            f" baseline QoS "
            f"{'held' if self.baseline_clean else 'BREACHED'})"
        ]
        for m in self.mixes:
            c = m.counters
            lines.append(
                f"  [{m.name}] rows={m.rows} "
                f"rt-delivery={m.rt_delivery_ratio:.3f} "
                f"qos-breaches={m.qos_breaches} "
                f"invariants={m.invariant_violations}"
            )
            lines.append(
                f"      polls: {c['poll_retries']} retried, "
                f"{c['polls_lost']} lost, {c['ghost_polls']} ghost, "
                f"{c['unreachable_nulls']} unreachable; "
                f"cf-ends lost: {c['cf_ends_lost']}"
            )
            lines.append(
                f"      stations: {c['station_crashes']} crashed, "
                f"{c['station_freezes']} frozen, "
                f"{c['station_recoveries']} recovered; "
                f"evicted {c['evictions']} "
                f"(reclaimed {m.reclaimed_bandwidth:.4f} airtime), "
                f"re-admitted {c['readmissions']}"
            )
        return "\n".join(lines)


def run_chaos(
    tier: str | ChaosTierSpec,
    *,
    executor: SweepExecutor | None = None,
) -> ChaosReport:
    """Execute one chaos tier end to end.

    Parameters
    ----------
    tier:
        A name from :data:`CHAOS_TIERS` or a custom spec.
    executor:
        Pre-configured sweep executor (workers/cache/journal); a
        serial uncached one is built when omitted.
    """
    spec = _resolve(tier)
    pairs = chaos_grid(spec)
    if executor is None:
        executor = SweepExecutor()
    rows = executor.run([cfg for _, cfg in pairs])
    # the executor returns rows in input order: pair them positionally
    by_mix: dict[str, list[dict]] = {name: [] for name in spec.mixes}
    for (mix, _), row in zip(pairs, rows):
        by_mix[mix].append(row)
    summaries = tuple(
        _summarize_mix(name, by_mix[name]) for name in spec.mixes
    )
    return ChaosReport(
        tier=spec.name,
        mixes=summaries,
        grid_rows=len(rows),
        telemetry=executor.summary(),
    )
