"""Adversarial scenario search: hunt the FaultPlan x load space.

The fixed chaos grid (:mod:`repro.validate.chaos`) exercises five
hand-picked fault mixes; this package *searches* instead.  A seeded
random + greedy-mutation campaign over serializable
:class:`~repro.redteam.genome.ScenarioGenome` points — traffic load,
station counts, Gilbert–Elliott channel parameters, frame-loss rules,
station crash/freeze schedules, ESS backhaul link and whole-AP outage
windows — drives batches through the warm-worker executor, scores
each point with a breach objective assembled from invariant
violations and chaos-style degradation metrics, delta-debugs every
champion down to a minimal reproducer, and archives genuinely new
breaches as deterministic chaos-tier fixtures under
``tests/faults/reproducers/``.

``python -m repro redteam`` is the front end; campaign reports are
byte-identical for a fixed seed across runs and worker counts.
"""

from .archive import (
    DEFAULT_REPRODUCER_DIR,
    REPRODUCER_SCHEMA,
    Reproducer,
    archive_reproducer,
    archived_keys,
    load_reproducers,
    replay_reproducer,
    reproducer_name,
)
from .genome import (
    SURFACES,
    DecodeSettings,
    ScenarioGenome,
    mutate_genome,
    random_genome,
)
from .objective import (
    BreachVerdict,
    ObjectiveConfig,
    score_bss_row,
    score_ess_report,
)
from .search import (
    CAMPAIGN_SCHEMA,
    CampaignConfig,
    CampaignReport,
    Champion,
    Evaluator,
    ExecEvaluator,
    run_campaign,
)
from .shrink import shrink_genome

__all__ = [
    "SURFACES",
    "DecodeSettings",
    "ScenarioGenome",
    "random_genome",
    "mutate_genome",
    "ObjectiveConfig",
    "BreachVerdict",
    "score_bss_row",
    "score_ess_report",
    "CAMPAIGN_SCHEMA",
    "CampaignConfig",
    "CampaignReport",
    "Champion",
    "Evaluator",
    "ExecEvaluator",
    "run_campaign",
    "shrink_genome",
    "REPRODUCER_SCHEMA",
    "DEFAULT_REPRODUCER_DIR",
    "Reproducer",
    "reproducer_name",
    "archive_reproducer",
    "load_reproducers",
    "archived_keys",
    "replay_reproducer",
]
