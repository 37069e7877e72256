"""Microcell mobility: handoff arrivals driven by neighbour occupancy.

The paper motivates handoff prioritization with small-cell
(microcell/picocell) architectures where calls frequently cross cell
boundaries; its simulation abstracts geometry away.  This module
supplies the next step up in fidelity from a plain Poisson handoff
stream: the cells neighbouring the observed BSS carry their own call
populations (an M/M/∞ birth-death process per traffic class), and each
resident call hands off after an exponential cell-residence time,
heading for the observed cell with probability ``1/directions``.

The handoff arrival process into the observed cell is then *state
dependent* — intensity proportional to the current neighbour
population — which reproduces the bursty handoff clumps that fixed-rate
Poisson misses (a neighbour filling up precedes a wave of handoffs).
"""

from __future__ import annotations

import dataclasses
import typing

from ..obs.jsonutil import JsonRecord
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from ..traffic.base import TrafficKind

__all__ = [
    "NeighborhoodConfig",
    "NeighborhoodMobility",
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
    hands off to a neighbouring cell.  Shared by the single-observed-
    cell :class:`NeighborhoodMobility` and the ESS-wide cell model
    (:mod:`repro.ess.cells`), so both layers reproduce the same
    per-call dynamics.
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


class HandoffSink(typing.Protocol):
    """Where handoff arrivals are delivered (the call generator)."""

    def inject_handoff(self, kind: TrafficKind) -> None: ...


@dataclasses.dataclass(frozen=True)
class NeighborhoodConfig:
    """Birth-death parameters of the neighbouring cells.

    Attributes
    ----------
    cells:
        Number of neighbouring cells feeding the observed one.
    new_call_rate:
        Fresh-call arrival rate *per neighbour cell* and per class
        (calls/s).
    mean_holding:
        Exponential call duration (shared with the observed cell).
    mean_residence:
        Exponential time a call stays in one cell before moving.
    directions:
        Possible handoff directions from a neighbour; the observed cell
        is chosen with probability ``1/directions``.
    """

    cells: int = 6
    new_call_rate: float = 0.05
    mean_holding: float = 40.0
    mean_residence: float = 30.0
    directions: int = 6

    def __post_init__(self) -> None:
        if self.cells < 1:
            raise ValueError(f"cells must be >= 1, got {self.cells}")
        if self.new_call_rate < 0:
            raise ValueError(
                f"new_call_rate must be >= 0, got {self.new_call_rate}"
            )
        if self.mean_holding <= 0:
            raise ValueError(
                f"mean_holding must be > 0, got {self.mean_holding}"
            )
        if self.mean_residence <= 0:
            raise ValueError(
                f"mean_residence must be > 0, got {self.mean_residence}"
            )
        if self.directions < 1:
            raise ValueError(f"directions must be >= 1, got {self.directions}")

    def equilibrium_population(self) -> float:
        """Expected total calls per class resident in the neighbourhood.

        A call leaves the neighbourhood when it ends (rate
        ``1/holding``) or when a cell change (rate ``1/residence``)
        happens to head into the observed cell (probability
        ``1/directions``) — moves between neighbours keep it resident.
        M/M/∞: ``cells * lambda / (1/holding + 1/(residence*directions))``.
        """
        departure = 1.0 / self.mean_holding + 1.0 / (
            self.mean_residence * self.directions
        )
        return self.cells * self.new_call_rate / departure

    def equilibrium_handoff_rate(self) -> float:
        """Expected handoff arrival rate into the observed cell per class."""
        return (
            self.equilibrium_population()
            / self.mean_residence
            / self.directions
        )


class NeighborhoodMobility:
    """Simulates the neighbour populations and injects handoffs.

    Parameters
    ----------
    sim:
        The same simulator the BSS runs on.
    sink:
        Receiver of handoff arrivals (``inject_handoff(kind)``).
    streams:
        Random streams (uses ``mobility/*`` names).
    config:
        Birth-death parameters.
    kinds:
        Which traffic classes roam (default voice + video).
    """

    def __init__(
        self,
        sim: Simulator,
        sink: HandoffSink,
        streams: RandomStreams,
        config: NeighborhoodConfig,
        kinds: tuple[TrafficKind, ...] = (TrafficKind.VOICE, TrafficKind.VIDEO),
    ) -> None:
        self.sim = sim
        self.sink = sink
        self.config = config
        self.kinds = kinds
        self._rng = streams.get("mobility/neighborhood")
        #: live neighbour population per class
        self.population: dict[TrafficKind, int] = {k: 0 for k in kinds}
        self.handoffs_injected = 0
        self._started = False

    def start(self, warm: bool = True) -> None:
        """Begin the birth-death dynamics (idempotent).

        ``warm`` seeds each class at its equilibrium population so the
        handoff stream is stationary from t = 0 instead of ramping up.
        """
        if self._started:
            return
        self._started = True
        for kind in self.kinds:
            if warm:
                seed = self._rng.poisson(self.config.equilibrium_population())
                for _ in range(int(seed)):
                    self._admit_call(kind)
            self.sim.process(self._births(kind))

    # -- birth-death machinery ---------------------------------------------
    def _births(self, kind: TrafficKind):
        rate = self.config.cells * self.config.new_call_rate
        if rate <= 0:
            return
        while True:
            yield self._rng.exponential(1.0 / rate)
            self._admit_call(kind)

    def _admit_call(self, kind: TrafficKind) -> None:
        self.population[kind] += 1
        self.sim.process(self._resident(kind))

    def _resident(self, kind: TrafficKind):
        """One call's life in the neighbourhood."""
        cfg = self.config
        while True:
            dwell, call_ends = draw_roam_step(
                self._rng, cfg.mean_holding, cfg.mean_residence
            )
            yield dwell
            if call_ends:
                self.population[kind] -= 1
                return  # call ended inside the neighbourhood
            if self._rng.random() < 1.0 / cfg.directions:
                # crosses into the observed cell
                self.population[kind] -= 1
                self.handoffs_injected += 1
                self.sink.inject_handoff(kind)
                return
            # moved to another neighbour: population unchanged, new cell
