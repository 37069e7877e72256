"""Delta-debugging a champion down to a minimal reproducer.

Given a breached genome, :func:`shrink_genome` greedily applies
simplification candidates and keeps any that *persist* — the shrunk
genome must still breach **and** still exhibit every breach kind of
the original signature (a shrink may sharpen a breach, never swap it
for a different one).  Candidate order is fixed, so the shrink is
deterministic given a deterministic evaluator:

1. drop whole fault clauses (station faults, frame-loss rules, link
   faults, AP faults, the Gilbert–Elliott channel) — fewest clauses
   first is the strongest simplification;
2. halve fault windows (pull ``end`` toward ``start``);
3. reduce the station/capacity gene (halve, then decrement);
4. reduce the load gene (halve, then 25% off);
5. halve frame-loss probabilities.

After any accepted candidate the pass list restarts, so clause drops
enabled by an earlier simplification are still found.  The evaluation
budget bounds the worst case; the original genome is returned when
nothing simpler persists.
"""

from __future__ import annotations

import dataclasses
import typing

from .genome import ScenarioGenome
from .objective import BreachVerdict

__all__ = ["shrink_genome"]

#: smallest meaningful fault window (s); halving stops below this
_MIN_WINDOW = 0.5
#: smallest frame-loss probability worth keeping
_MIN_PROBABILITY = 0.05


def _r4(x: float) -> float:
    return round(float(x), 4)


def _drop_candidates(
    genome: ScenarioGenome,
) -> typing.Iterator[ScenarioGenome]:
    """Every one-clause-dropped variant, in a fixed order."""
    for i in range(len(genome.station_faults)):
        faults = genome.station_faults[:i] + genome.station_faults[i + 1:]
        yield dataclasses.replace(genome, station_faults=faults)
    for i in range(len(genome.frame_loss)):
        rules = genome.frame_loss[:i] + genome.frame_loss[i + 1:]
        yield dataclasses.replace(genome, frame_loss=rules)
    for i in range(len(genome.link_faults)):
        faults = genome.link_faults[:i] + genome.link_faults[i + 1:]
        yield dataclasses.replace(genome, link_faults=faults)
    for i in range(len(genome.ap_faults)):
        faults = genome.ap_faults[:i] + genome.ap_faults[i + 1:]
        yield dataclasses.replace(genome, ap_faults=faults)
    if genome.gilbert_elliott is not None:
        yield dataclasses.replace(genome, gilbert_elliott=None)


def _halved_window(
    clause: typing.Any,
) -> typing.Any | None:
    """The clause with its ``[start, end)`` window halved, if shrinkable."""
    end = getattr(clause, "end", None)
    if end is None:
        return None
    start = clause.start
    half = _r4(start + (end - start) / 2)
    if half - start < _MIN_WINDOW or half >= end:
        return None
    return dataclasses.replace(clause, end=half)


def _window_candidates(
    genome: ScenarioGenome,
) -> typing.Iterator[ScenarioGenome]:
    for i, rule in enumerate(genome.frame_loss):
        shrunk = _halved_window(rule)
        if shrunk is not None:
            rules = (
                genome.frame_loss[:i] + (shrunk,) + genome.frame_loss[i + 1:]
            )
            yield dataclasses.replace(genome, frame_loss=rules)
    for i, fault in enumerate(genome.link_faults):
        shrunk = _halved_window(fault)
        if shrunk is not None:
            faults = (
                genome.link_faults[:i]
                + (shrunk,)
                + genome.link_faults[i + 1:]
            )
            yield dataclasses.replace(genome, link_faults=faults)
    for i, fault in enumerate(genome.ap_faults):
        shrunk = _halved_window(fault)
        if shrunk is not None:
            faults = (
                genome.ap_faults[:i] + (shrunk,) + genome.ap_faults[i + 1:]
            )
            yield dataclasses.replace(genome, ap_faults=faults)
    for i, fault in enumerate(genome.station_faults):
        if fault.duration is not None and fault.duration / 2 >= _MIN_WINDOW:
            shorter = dataclasses.replace(
                fault, duration=_r4(fault.duration / 2)
            )
            faults = (
                genome.station_faults[:i]
                + (shorter,)
                + genome.station_faults[i + 1:]
            )
            yield dataclasses.replace(genome, station_faults=faults)


def _reduction_candidates(
    genome: ScenarioGenome,
) -> typing.Iterator[ScenarioGenome]:
    if genome.stations > 1:
        halved = max(1, genome.stations // 2)
        if halved < genome.stations:
            yield dataclasses.replace(genome, stations=halved)
        yield dataclasses.replace(genome, stations=genome.stations - 1)
    if genome.load > 0.5:
        yield dataclasses.replace(genome, load=_r4(genome.load / 2))
        yield dataclasses.replace(genome, load=_r4(genome.load * 0.75))
    for i, rule in enumerate(genome.frame_loss):
        half = _r4(rule.probability / 2)
        if half >= _MIN_PROBABILITY:
            weaker = dataclasses.replace(rule, probability=half)
            rules = (
                genome.frame_loss[:i] + (weaker,) + genome.frame_loss[i + 1:]
            )
            yield dataclasses.replace(genome, frame_loss=rules)


def _candidates(
    genome: ScenarioGenome,
) -> typing.Iterator[ScenarioGenome]:
    yield from _drop_candidates(genome)
    yield from _window_candidates(genome)
    yield from _reduction_candidates(genome)


def shrink_genome(
    genome: ScenarioGenome,
    verdict: BreachVerdict,
    evaluate_one: typing.Callable[[ScenarioGenome], BreachVerdict],
    max_evals: int = 48,
) -> tuple[ScenarioGenome, BreachVerdict, int]:
    """Minimize ``genome`` while its breach persists.

    Returns ``(minimal genome, its verdict, evaluations used)``.  The
    persistence predicate: the candidate's verdict must be breached
    and its signature must contain every kind of the **original**
    verdict's signature.
    """
    current, current_verdict = genome, verdict
    used = 0
    progressed = True
    while progressed and used < max_evals:
        progressed = False
        for candidate in _candidates(current):
            if used >= max_evals:
                break
            candidate_verdict = evaluate_one(candidate)
            used += 1
            if candidate_verdict.breached and candidate_verdict.subsumes(verdict):
                current, current_verdict = candidate, candidate_verdict
                progressed = True
                break  # restart the pass list on the simpler genome
    return current, current_verdict, used
