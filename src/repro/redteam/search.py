"""The campaign engine: seeded random + greedy-mutation breach search.

One :func:`run_campaign` call spends a fixed evaluation *budget* in
batches.  The first batch is pure random sampling; every later batch
splits (deterministically, per the seeded RNG) between fresh random
genomes (exploration) and single-gene mutations of the current
*champions* — the best-scoring breached genome per breach signature
(exploitation).  Batches are generated in full **before** they are
evaluated, so the RNG trajectory depends only on prior batches'
verdicts — which are themselves deterministic — and never on dispatch
order: the same ``(seed, budget)`` produces the same campaign report
byte for byte whether the evaluator runs serial or on four warm
workers.

Evaluation goes through an :class:`Evaluator`: the default
:class:`ExecEvaluator` drives decoded BSS genomes through the
warm-worker :class:`~repro.exec.SweepExecutor` pool and call-level ESS
genomes through :func:`~repro.ess.coordinator.run_ess` in-process.
Tests inject a fake evaluator to exercise search logic without
simulation cost.

Champions are optionally delta-debugged down to minimal reproducers
(:mod:`repro.redteam.shrink`) and archived as chaos-tier fixtures
(:mod:`repro.redteam.archive`).  The campaign report intentionally
contains **no wall-clock numbers** — it must be byte-identical across
runs and machines.
"""

from __future__ import annotations

import dataclasses
import pathlib
import random
import typing

from .genome import (
    SURFACES,
    DecodeSettings,
    ScenarioGenome,
    mutate_genome,
    random_genome,
)
from .objective import BreachVerdict, ObjectiveConfig, score_bss_row, score_ess_report

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..exec import SweepExecutor

__all__ = [
    "CAMPAIGN_SCHEMA",
    "CampaignConfig",
    "Evaluator",
    "ExecEvaluator",
    "Champion",
    "CampaignReport",
    "run_campaign",
]

CAMPAIGN_SCHEMA = "repro/redteam-campaign/1"


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Everything one campaign needs (serializable, seed-deterministic)."""

    #: total scenario evaluations the search may spend
    budget: int = 32
    #: campaign RNG seed (drives generation only, never evaluation)
    seed: int = 0
    #: ``"bss"``, ``"ess"`` or ``"both"`` (alternating per batch slot)
    surface: str = "bss"
    #: evaluations per batch (one warm-pool dispatch per batch)
    batch: int = 8
    #: fraction of each post-seeding batch that stays pure random
    explore_ratio: float = 0.5
    settings: DecodeSettings = dataclasses.field(
        default_factory=DecodeSettings
    )
    objective: ObjectiveConfig = dataclasses.field(
        default_factory=ObjectiveConfig
    )
    #: delta-debug every champion down to a minimal reproducer
    shrink: bool = False
    #: per-champion evaluation budget for the shrinker
    shrink_budget: int = 48

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.surface not in SURFACES + ("both",):
            raise ValueError(
                f"surface must be one of {SURFACES + ('both',)}, "
                f"got {self.surface!r}"
            )
        if not 0.0 <= self.explore_ratio <= 1.0:
            raise ValueError(
                f"explore_ratio must be in [0, 1], got {self.explore_ratio}"
            )
        if self.shrink_budget < 1:
            raise ValueError(
                f"shrink_budget must be >= 1, got {self.shrink_budget}"
            )

    def to_dict(self) -> dict[str, typing.Any]:
        return {
            "budget": self.budget,
            "seed": self.seed,
            "surface": self.surface,
            "batch": self.batch,
            "explore_ratio": self.explore_ratio,
            "settings": self.settings.to_dict(),
            "objective": self.objective.to_dict(),
            "shrink": self.shrink,
            "shrink_budget": self.shrink_budget,
        }


class Evaluator(typing.Protocol):
    """Anything that can score a batch of genomes, in order."""

    def evaluate(
        self, genomes: typing.Sequence[ScenarioGenome]
    ) -> list[BreachVerdict]:  # pragma: no cover - protocol
        ...


class ExecEvaluator:
    """The real evaluator: warm-pool BSS runs + in-process ESS runs.

    BSS genomes decode to monitored :class:`ScenarioConfig` points and
    go through the sweep executor as one grid (rows come back in input
    order, byte-identical regardless of worker count).  ESS genomes
    decode to call-level :class:`EssConfig` scenarios and run
    in-process — the call-level tier is orders of magnitude cheaper
    than frame simulation, and in-process keeps its determinism
    trivially independent of the pool.
    """

    def __init__(
        self,
        settings: DecodeSettings | None = None,
        objective: ObjectiveConfig | None = None,
        executor: "SweepExecutor | None" = None,
    ) -> None:
        from ..exec import ExecutorConfig, SweepExecutor

        self.settings = settings or DecodeSettings()
        self.objective = objective or ObjectiveConfig()
        self.executor = executor or SweepExecutor(
            ExecutorConfig(on_failure="skip")
        )
        self.evaluations = 0

    def evaluate(
        self, genomes: typing.Sequence[ScenarioGenome]
    ) -> list[BreachVerdict]:
        self.evaluations += len(genomes)
        verdicts: list[BreachVerdict | None] = [None] * len(genomes)
        bss = [
            (i, g) for i, g in enumerate(genomes) if g.surface == "bss"
        ]
        if bss:
            configs = [g.decode_bss(self.settings) for _, g in bss]
            rows = self.executor.run(configs)
            if len(rows) != len(bss):
                # permanently failed points (on_failure="skip") would
                # silently misalign the batch; fail loudly instead
                raise RuntimeError(
                    f"evaluator lost {len(bss) - len(rows)} of "
                    f"{len(bss)} BSS points to permanent failures"
                )
            for (i, _), row in zip(bss, rows):
                verdicts[i] = score_bss_row(row, self.objective)
        for i, genome in enumerate(genomes):
            if genome.surface != "ess":
                continue
            from ..ess.coordinator import run_ess

            report = run_ess(genome.decode_ess(self.settings))
            verdicts[i] = score_ess_report(report, self.objective)
        assert all(v is not None for v in verdicts)
        return typing.cast("list[BreachVerdict]", verdicts)


@dataclasses.dataclass
class Champion:
    """The best breached genome seen for one breach signature."""

    genome: ScenarioGenome
    verdict: BreachVerdict
    found_at: int
    shrunk: ScenarioGenome | None = None
    shrunk_verdict: BreachVerdict | None = None
    shrink_evals: int = 0
    reproducer: str | None = None
    archived: bool = False
    new: bool = False

    def to_dict(self) -> dict[str, typing.Any]:
        return {
            "genome": self.genome.to_dict(),
            "verdict": self.verdict.to_dict(),
            "found_at": self.found_at,
            "shrunk": (
                self.shrunk.to_dict() if self.shrunk is not None else None
            ),
            "shrunk_verdict": (
                self.shrunk_verdict.to_dict()
                if self.shrunk_verdict is not None
                else None
            ),
            "shrink_evals": self.shrink_evals,
            "reproducer": self.reproducer,
            "archived": self.archived,
            "new": self.new,
        }


@dataclasses.dataclass
class CampaignReport:
    """Everything one campaign found (JSON-ready, wall-clock free)."""

    config: CampaignConfig
    evaluated: int
    unique_genomes: int
    breaches_found: int
    champions: list[Champion]
    #: champions whose (shrunk) reproducer was not already archived
    new_unarchived: int

    def to_dict(self) -> dict[str, typing.Any]:
        return {
            "schema": CAMPAIGN_SCHEMA,
            "config": self.config.to_dict(),
            "evaluated": self.evaluated,
            "unique_genomes": self.unique_genomes,
            "breaches_found": self.breaches_found,
            "champions": [
                c.to_dict()
                for c in sorted(
                    self.champions,
                    key=lambda c: (-c.verdict.score, c.verdict.signature),
                )
            ],
            "new_unarchived": self.new_unarchived,
        }

    def render(self) -> str:
        lines = [
            f"redteam campaign: {self.evaluated} evaluations "
            f"({self.unique_genomes} unique), "
            f"{self.breaches_found} breaches, "
            f"{len(self.champions)} champion signature(s), "
            f"{self.new_unarchived} new unarchived"
        ]
        for c in sorted(
            self.champions,
            key=lambda c: (-c.verdict.score, c.verdict.signature),
        ):
            sig = ",".join(c.verdict.signature)
            lines.append(
                f"  [{sig}] score={c.verdict.score:g} "
                f"surface={c.genome.surface} load={c.genome.load:g} "
                f"stations={c.genome.stations} "
                f"clauses={c.genome.fault_clauses}"
                + (
                    f" -> shrunk to {c.shrunk.fault_clauses} clause(s) "
                    f"({c.shrink_evals} shrink evals)"
                    if c.shrunk is not None
                    else ""
                )
                + (
                    f" [{'new' if c.new else 'archived'}:"
                    f" {c.reproducer}]"
                    if c.reproducer is not None
                    else ""
                )
            )
        return "\n".join(lines)


def _surface_for_slot(config: CampaignConfig, slot: int) -> str:
    if config.surface == "both":
        return SURFACES[slot % len(SURFACES)]
    return config.surface


def run_campaign(
    config: CampaignConfig,
    evaluator: Evaluator | None = None,
    archive_dir: str | pathlib.Path | None = None,
) -> CampaignReport:
    """Run one adversarial campaign; see the module docstring.

    ``archive_dir`` points at the reproducer fixture directory.  When
    given, every champion's minimal reproducer is checked against the
    archive; genuinely new breaches are written there and counted in
    ``new_unarchived`` (the CLI's exit-2 signal).  When ``None`` the
    archive is neither read nor written and every champion counts as
    new.
    """
    from .archive import archive_reproducer, archived_keys
    from .shrink import shrink_genome

    if evaluator is None:
        evaluator = ExecEvaluator(config.settings, config.objective)
    rng = random.Random(config.seed)
    seen: dict[str, BreachVerdict] = {}
    champions: dict[tuple[str, ...], Champion] = {}
    evaluated = 0

    while evaluated < config.budget:
        size = min(config.batch, config.budget - evaluated)
        batch: list[ScenarioGenome] = []
        ranked = sorted(
            champions.values(),
            key=lambda c: (-c.verdict.score, c.verdict.signature),
        )
        for slot in range(size):
            surface = _surface_for_slot(config, evaluated + slot)
            candidates = [
                c for c in ranked if c.genome.surface == surface
            ]
            if not candidates or rng.random() < config.explore_ratio:
                genome = random_genome(rng, config.settings, surface)
            else:
                parent = rng.choice(candidates).genome
                genome = mutate_genome(rng, parent, config.settings)
            batch.append(genome)

        fresh = [g for g in batch if g.canonical() not in seen]
        fresh_verdicts = evaluator.evaluate(fresh) if fresh else []
        for genome, verdict in zip(fresh, fresh_verdicts):
            seen[genome.canonical()] = verdict
        for slot, genome in enumerate(batch):
            verdict = seen[genome.canonical()]
            if not verdict.breached:
                continue
            champ = champions.get(verdict.signature)
            if champ is None or verdict.score > champ.verdict.score:
                champions[verdict.signature] = Champion(
                    genome=genome,
                    verdict=verdict,
                    found_at=evaluated + slot,
                )
        evaluated += size

    # search-phase stats, snapshotted before shrinking adds to ``seen``
    unique_genomes = len(seen)
    breaches = sum(1 for v in seen.values() if v.breached)

    def evaluate_one(genome: ScenarioGenome) -> BreachVerdict:
        cached = seen.get(genome.canonical())
        if cached is not None:
            return cached
        verdict = evaluator.evaluate([genome])[0]
        seen[genome.canonical()] = verdict
        return verdict

    archived = (
        archived_keys(archive_dir) if archive_dir is not None else set()
    )
    new_unarchived = 0
    for signature in sorted(champions):
        champ = champions[signature]
        final_genome, final_verdict = champ.genome, champ.verdict
        if config.shrink:
            shrunk, shrunk_verdict, used = shrink_genome(
                champ.genome,
                champ.verdict,
                evaluate_one,
                config.settings,
                max_evals=config.shrink_budget,
            )
            champ.shrunk = shrunk
            champ.shrunk_verdict = shrunk_verdict
            champ.shrink_evals = used
            final_genome, final_verdict = shrunk, shrunk_verdict
        champ.new = final_genome.key() not in archived
        if champ.new:
            new_unarchived += 1
        if archive_dir is not None:
            path = archive_reproducer(
                archive_dir, final_genome, final_verdict, config
            )
            champ.reproducer = path.name
            champ.archived = True
        else:
            champ.reproducer = None

    return CampaignReport(
        config=config,
        evaluated=evaluated,
        unique_genomes=unique_genomes,
        breaches_found=breaches,
        champions=list(champions.values()),
        new_unarchived=new_unarchived,
    )
