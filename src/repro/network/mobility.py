"""Roaming calls: the per-call dwell race and the ESS cell context.

The paper's evaluation watches one BSS fed Poisson handoffs from
neighbours it does not model.  The ESS layer (:mod:`repro.ess`) models
those neighbours: its call-level cells move calls between microcells,
and its frame-level shards replay the handoffs the backhaul routed into
one cell.  This module holds the two pieces both sides of that split
share: :func:`draw_roam_step`, one dwell of a call's life in a cell,
and :class:`EssCellContext`, which carries a shard's routed arrivals
into :class:`~repro.network.bss.BssScenario`.
"""

from __future__ import annotations

import dataclasses

from ..obs.jsonutil import JsonRecord, store_floats

__all__ = [
    "EssCellContext",
    "draw_roam_step",
    "ROAM_KINDS",
]

#: traffic classes that roam between cells (data stations are fixed)
ROAM_KINDS = ("voice", "video")


def draw_roam_step(
    rng, mean_holding: float, mean_residence: float
) -> tuple[float, bool]:
    """One dwell of a call's life in a cell: ``(dwell, call_ends)``.

    Races the exponential remaining-holding clock against the
    exponential cell-residence clock (both memoryless, so drawing them
    fresh each dwell is exact).  ``call_ends`` is True when the call
    completes during this dwell; False means it survives the dwell and
    hands off to a neighbouring cell.  The ESS cell model
    (:mod:`repro.ess.cells`) draws every dwell of a roaming call here.
    """
    holding = rng.exponential(mean_holding)
    residence = rng.exponential(mean_residence)
    if holding <= residence:
        return float(holding), True
    return float(residence), False


@dataclasses.dataclass(frozen=True)
class EssCellContext(JsonRecord):
    """One cell-epoch's ESS context, riding in ``ScenarioConfig.ess``.

    When the ESS coordinator shards its grid across the executor, each
    per-cell frame-level run carries this context: which cell it is,
    which sharding epoch, and the handoff arrivals the backhaul routed
    *into* the cell during the epoch (offsets are sim-seconds from the
    start of the cell's run).  The BSS
    injects those arrivals at their offsets through the call
    generator's :meth:`~repro.network.calls.CallGenerator.inject_handoff`
    — deterministic scheduled handoffs replacing the synthetic Poisson
    stream.  ``ess=None`` configs behave (and hash) exactly like
    single-BSS scenarios.
    """

    cell: str
    epoch: int = 0
    #: absolute ESS-time at which this epoch starts (informational —
    #: part of the point's identity so epochs cache separately)
    epoch_start: float = 0.0
    #: routed inbound handoffs: (offset into the run, kind) pairs
    handoff_arrivals: tuple[tuple[float, str], ...] = ()

    def __post_init__(self) -> None:
        store_floats(self)
        if not self.cell:
            raise ValueError("cell must be a non-empty id")
        if self.epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {self.epoch}")
        if self.epoch_start < 0:
            raise ValueError(
                f"epoch_start must be >= 0, got {self.epoch_start}"
            )
        arrivals = tuple(
            (float(offset), str(kind)) for offset, kind in self.handoff_arrivals
        )
        object.__setattr__(self, "handoff_arrivals", arrivals)
        for offset, kind in arrivals:
            if offset < 0:
                raise ValueError(
                    f"handoff arrival offset must be >= 0, got {offset}"
                )
            if kind not in ROAM_KINDS:
                raise ValueError(
                    f"handoff kind must be one of {ROAM_KINDS}, got {kind!r}"
                )
