"""The breach objective: result rows / ESS reports -> :class:`BreachVerdict`.

The search needs one number to climb and one identity to dedup on:

* **score** — a weighted sum of degradation signals.  Structural
  invariant violations dominate (they should never happen, under any
  injection — finding one is the jackpot); QoS-budget breaches, their
  worst ratio, and real-time delivery loss make up the rest.  Scores
  are rounded so campaign reports are byte-stable.
* **signature** — the sorted tuple of breach *kinds* (``invariant``,
  ``qos:jitter``, ``qos:delay``, ``delivery``, ``ess:conservation``,
  ``ess:handoff-drop``).  Champions are kept per signature, and a
  shrunk reproducer must preserve the original signature — the shrink
  may not trade one failure mode for another.

BSS scoring reuses the chaos harness's
:func:`~repro.validate.chaos.summarize_mix` aggregation so the redteam
objective and the soak report read the same degradation the same way.
"""

from __future__ import annotations

import dataclasses
import typing

from ..obs.jsonutil import JsonRecord
from ..validate.chaos import summarize_mix

__all__ = [
    "ObjectiveConfig",
    "BreachVerdict",
    "score_bss_row",
    "score_ess_report",
]


@dataclasses.dataclass(frozen=True)
class ObjectiveConfig(JsonRecord):
    """Weights and thresholds of the breach objective."""

    #: points per structural invariant violation (dominant on purpose)
    violation_weight: float = 100.0
    #: points per QoS budget breach
    breach_weight: float = 1.0
    #: points per unit of worst breach ratio (measured / budget)
    ratio_weight: float = 10.0
    #: points per unit of lost real-time delivery (1 - ratio)
    delivery_weight: float = 20.0
    #: real-time delivery below this is itself a breach (bss surface).
    #: Fault-free runs sit around 0.96-0.98 (frames still in flight at
    #: the simulation boundary count as undelivered), so the floor is
    #: set well below that band — only injected degradation crosses it.
    min_delivery_ratio: float = 0.90
    #: handoff-drop rate above this is a breach (ess surface)
    max_handoff_drop_rate: float = 0.25
    #: points per unit of handoff-drop rate (ess surface)
    drop_weight: float = 40.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_delivery_ratio <= 1.0:
            raise ValueError(
                f"min_delivery_ratio must be in [0, 1], "
                f"got {self.min_delivery_ratio}"
            )
        if not 0.0 <= self.max_handoff_drop_rate <= 1.0:
            raise ValueError(
                f"max_handoff_drop_rate must be in [0, 1], "
                f"got {self.max_handoff_drop_rate}"
            )


@dataclasses.dataclass(frozen=True)
class BreachVerdict(JsonRecord):
    """What one evaluation concluded about one genome."""

    breached: bool
    score: float
    #: sorted breach kinds; empty iff not breached
    signature: tuple[str, ...]
    #: the degradation numbers the score was assembled from
    metrics: dict[str, typing.Any] = dataclasses.field(default_factory=dict)

    def subsumes(self, other: "BreachVerdict") -> bool:
        """Does this verdict still exhibit every kind in ``other``?"""
        return set(other.signature) <= set(self.signature)


def score_bss_row(
    row: typing.Mapping[str, typing.Any],
    objective: ObjectiveConfig | None = None,
) -> BreachVerdict:
    """Score one monitored single-BSS result row."""
    obj = objective or ObjectiveConfig()
    summary = summarize_mix("genome", [dict(row)])
    signature = set()
    if summary.invariant_violations:
        signature.add("invariant")
    for breach in (row.get("faults") or {}).get("qos_breaches", ()):
        signature.add(f"qos:{breach.get('kind', 'unknown')}")
    if summary.rt_delivery_ratio < obj.min_delivery_ratio:
        signature.add("delivery")
    score = (
        obj.violation_weight * summary.invariant_violations
        + obj.breach_weight * summary.qos_breaches
        + obj.ratio_weight * summary.worst_breach_ratio
        + obj.delivery_weight * (1.0 - summary.rt_delivery_ratio)
    )
    return BreachVerdict(
        breached=bool(signature),
        score=round(score, 6),
        signature=tuple(sorted(signature)),
        metrics={
            "invariant_violations": summary.invariant_violations,
            "qos_breaches": summary.qos_breaches,
            "worst_breach_ratio": round(summary.worst_breach_ratio, 6),
            "rt_delivery_ratio": round(summary.rt_delivery_ratio, 6),
        },
    )


def score_ess_report(
    report: typing.Mapping[str, typing.Any],
    objective: ObjectiveConfig | None = None,
) -> BreachVerdict:
    """Score one call-level ESS run's JSON report."""
    obj = objective or ObjectiveConfig()
    totals = report["totals"]
    violations = len(report["conservation"]["violations"])
    drop_rate = float(totals["handoff_drop_rate"])
    signature = set()
    if violations:
        signature.add("ess:conservation")
    if drop_rate > obj.max_handoff_drop_rate:
        signature.add("ess:handoff-drop")
    score = (
        obj.violation_weight * violations + obj.drop_weight * drop_rate
    )
    return BreachVerdict(
        breached=bool(signature),
        score=round(score, 6),
        signature=tuple(sorted(signature)),
        metrics={
            "conservation_violations": violations,
            "handoff_drop_rate": round(drop_rate, 6),
            "dropped_backhaul": int(totals["dropped_backhaul"]),
            "dropped_ap_down": int(totals["dropped_ap_down"]),
        },
    )
