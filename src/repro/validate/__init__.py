"""Statistical validation: CI-gated shape checks and runtime invariants.

DESIGN.md's "Shape targets" section states the paper's headline claims
in prose (bounds conservative in Fig. 5, dropping pinned in Fig. 6,
delay orderings in Figs. 8-10, ...).  This package turns them into
machine-checkable gates so a refactor that silently inverts a figure
fails CI instead of shipping:

* :mod:`repro.validate.stats` — Student-t confidence intervals over
  seed replications and *paired* common-random-number comparisons, so
  scheme orderings are asserted on per-seed deltas rather than on two
  noisy means;
* :mod:`repro.validate.shapes` — one declarative
  :class:`~repro.validate.shapes.ClaimResult` per DESIGN shape target,
  evaluated against sweep rows;
* :mod:`repro.validate.invariants` — opt-in runtime monitors
  (``ScenarioConfig(monitor_invariants=True)``) hooked into the DES
  kernel, the NAV, the token policy and the QoS AP: clock
  monotonicity, NAV never set in the past, token regeneration obeying
  its rule, CFP budgeting/time accounting, and every admitted source's
  measured jitter/delay staying under its Theorem 1/3 budget;
* :mod:`repro.validate.runner` — tiered execution
  (``python -m repro validate --tier {smoke,full}``) riding
  :mod:`repro.exec` (parallel, cached, resumable) and emitting a JSON
  verdict report per claim;
* :mod:`repro.validate.chaos` — the soak harness
  (``python -m repro chaos --tier {smoke,full}``): the same monitored
  tier grid crossed with five named fault mixes, summarized into a
  JSON degradation report.
"""

from .ess import (
    EssLedgerSnapshot,
    cell_ledger_violations,
    conservation_violations,
)
from .invariants import InvariantSuite, Violation
from .runner import TIERS, TierSpec, ValidationReport, run_validation, validation_grid
from .shapes import ClaimResult, evaluate_claims
from .stats import (
    ConfidenceInterval,
    PairedComparison,
    mean_ci,
    paired_comparison,
    stats_ci,
    student_t_cdf,
    t_critical,
)

__all__ = [
    "InvariantSuite",
    "Violation",
    "EssLedgerSnapshot",
    "conservation_violations",
    "cell_ledger_violations",
    "TIERS",
    "TierSpec",
    "ValidationReport",
    "run_validation",
    "validation_grid",
    "ClaimResult",
    "evaluate_claims",
    "ConfidenceInterval",
    "PairedComparison",
    "mean_ci",
    "paired_comparison",
    "stats_ci",
    "student_t_cdf",
    "t_critical",
]
