"""Reproducer fixtures: archiving and replaying minimal breaches.

Every campaign champion (shrunk when ``--shrink`` is on) is archived
as one JSON fixture under ``tests/faults/reproducers/`` — the
chaos-tier corpus.  A fixture pins:

* the minimal :class:`~repro.redteam.genome.ScenarioGenome`;
* the :class:`~repro.redteam.objective.BreachVerdict` it produced;
* the :class:`~repro.redteam.genome.DecodeSettings` and
  :class:`~repro.redteam.objective.ObjectiveConfig` it was judged
  under (a reproducer must re-run under *its own* frame, not whatever
  the current defaults happen to be).

File names are content-derived (``<surface>-<genome hash>.json``) so
re-archiving the same reproducer is idempotent and a campaign can
tell a *new* breach (exit 2 in the CLI) from a re-discovered one.
:func:`replay_reproducer` re-evaluates the genome and demands the
recorded verdict byte-for-byte — the CI job runs it over the whole
corpus, so every archived breach stays reproducible forever.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing

from ..obs.jsonutil import write_json
from .genome import DecodeSettings, ScenarioGenome
from .objective import BreachVerdict, ObjectiveConfig

if typing.TYPE_CHECKING:  # pragma: no cover
    from .search import CampaignConfig, Evaluator

__all__ = [
    "REPRODUCER_SCHEMA",
    "DEFAULT_REPRODUCER_DIR",
    "Reproducer",
    "reproducer_name",
    "archive_reproducer",
    "load_reproducers",
    "archived_keys",
    "replay_reproducer",
]

REPRODUCER_SCHEMA = "repro/reproducer/1"

#: the committed chaos-tier fixture corpus, relative to the repo root
DEFAULT_REPRODUCER_DIR = "tests/faults/reproducers"


@dataclasses.dataclass(frozen=True)
class Reproducer:
    """One archived minimal breach."""

    name: str
    genome: ScenarioGenome
    verdict: BreachVerdict
    settings: DecodeSettings
    objective: ObjectiveConfig
    campaign_seed: int

    def to_dict(self) -> dict[str, typing.Any]:
        return {
            "schema": REPRODUCER_SCHEMA,
            "name": self.name,
            "genome": self.genome.to_dict(),
            "verdict": self.verdict.to_dict(),
            "settings": self.settings.to_dict(),
            "objective": self.objective.to_dict(),
            "campaign_seed": self.campaign_seed,
        }

    @classmethod
    def from_dict(
        cls, data: typing.Mapping[str, typing.Any]
    ) -> "Reproducer":
        if data.get("schema") != REPRODUCER_SCHEMA:
            raise ValueError(
                f"not a reproducer fixture (schema {data.get('schema')!r}, "
                f"expected {REPRODUCER_SCHEMA!r})"
            )
        return cls(
            name=data["name"],
            genome=ScenarioGenome.from_dict(data["genome"]),
            verdict=BreachVerdict.from_dict(data["verdict"]),
            settings=DecodeSettings.from_dict(data["settings"]),
            objective=ObjectiveConfig.from_dict(data["objective"]),
            campaign_seed=int(data.get("campaign_seed", 0)),
        )


def reproducer_name(genome: ScenarioGenome) -> str:
    """Content-derived fixture name: same genome, same file."""
    return f"{genome.surface}-{genome.key()}"


def archive_reproducer(
    directory: str | pathlib.Path,
    genome: ScenarioGenome,
    verdict: BreachVerdict,
    campaign: "CampaignConfig",
) -> pathlib.Path:
    """Write one fixture (idempotent — same genome overwrites in place)."""
    name = reproducer_name(genome)
    rep = Reproducer(
        name=name,
        genome=genome,
        verdict=verdict,
        settings=campaign.settings,
        objective=campaign.objective,
        campaign_seed=campaign.seed,
    )
    return write_json(pathlib.Path(directory) / f"{name}.json", rep.to_dict())


def load_reproducers(
    directory: str | pathlib.Path,
) -> list[Reproducer]:
    """Every fixture in the corpus, sorted by name (missing dir = empty)."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    out = []
    for path in sorted(directory.glob("*.json")):
        out.append(Reproducer.from_dict(json.loads(path.read_text())))
    return out


def archived_keys(directory: str | pathlib.Path) -> set[str]:
    """Genome hashes already present in the corpus."""
    return {rep.genome.key() for rep in load_reproducers(directory)}


def replay_reproducer(
    rep: Reproducer, evaluator: "Evaluator | None" = None
) -> tuple[bool, BreachVerdict]:
    """Re-run one fixture; ``(verdict matches the recording, fresh verdict)``.

    The evaluator defaults to a serial :class:`ExecEvaluator` built
    from the fixture's own settings and objective.  A replay passes
    only when the fresh verdict equals the recorded one exactly —
    breached flag, score, signature and metrics.
    """
    if evaluator is None:
        from .search import ExecEvaluator

        evaluator = ExecEvaluator(rep.settings, rep.objective)
    fresh = evaluator.evaluate([rep.genome])[0]
    return fresh == rep.verdict, fresh
