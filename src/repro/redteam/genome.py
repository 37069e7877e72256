"""The search space: :class:`ScenarioGenome` and its mutation operators.

A genome is a compact, serializable point in the FaultPlan x load
space the adversarial search explores.  Two surfaces:

* ``"bss"`` — one frame-level BSS under a chosen scheme; the genome's
  fault genes map onto a :class:`~repro.faults.plan.FaultPlan`
  (Gilbert–Elliott channel, frame-type loss rules, station
  crash/freeze schedules) and its load genes onto the canonical
  evaluation point.  Decoded genomes run with the runtime invariant
  monitors armed, so structural violations and QoS-budget breaches
  both surface in the result row.
* ``"ess"`` — a call-level multi-BSS grid; the fault genes map onto
  backhaul :class:`~repro.faults.plan.LinkFault` and whole-AP
  :class:`~repro.faults.plan.ApFault` outage windows, the load genes
  onto arrival rate and per-cell capacity.

Everything is deterministic: genomes serialize canonically
(:func:`ScenarioGenome.canonical`), hash stably
(:func:`ScenarioGenome.key`), and every random choice in
:func:`random_genome` / :func:`mutate_genome` draws from the caller's
seeded ``random.Random`` — the same seed always walks the same
trajectory.  All float genes are rounded to four decimals so JSON
round-trips are byte-exact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing

from ..faults.plan import (
    ApFault,
    FaultPlan,
    FrameLossRule,
    GilbertElliottParams,
    LinkFault,
    StationFault,
)
from ..obs.jsonutil import JsonRecord

if typing.TYPE_CHECKING:  # pragma: no cover
    import random

    from ..ess.coordinator import EssConfig
    from ..network.bss import ScenarioConfig

__all__ = [
    "SURFACES",
    "DecodeSettings",
    "ScenarioGenome",
    "random_genome",
    "mutate_genome",
]

SURFACES = ("bss", "ess")

#: frame types the loss-rule mutations may attack
_LOSSY_FTYPES = ("cf_poll", "ack", "cf_end", "beacon")

#: seeds the search may hop between (small on purpose: a breach that
#: needs a magic seed is noise, not a scenario)
_SEED_POOL = (1, 2, 3)

#: load multipliers the mutations step through
_LOAD_STEPS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)


def _r4(x: float) -> float:
    """Round a float gene for byte-stable JSON round-trips."""
    return round(float(x), 4)


@dataclasses.dataclass(frozen=True)
class DecodeSettings(JsonRecord):
    """Fixed frame around the genome: everything the search does NOT vary.

    Horizon knobs stay out of the genome so every evaluation costs
    roughly the same and shrinking works on *scenario content*, not on
    simulation length.
    """

    # -- bss surface -------------------------------------------------------
    sim_time: float = 12.0
    warmup: float = 2.0
    scheme: str = "proposed"
    # -- ess surface -------------------------------------------------------
    rows: int = 2
    cols: int = 2
    epochs: int = 4
    epoch_length: float = 20.0
    new_call_rate: float = 0.10
    mean_holding: float = 40.0
    mean_residence: float = 25.0

    def __post_init__(self) -> None:
        if self.sim_time <= self.warmup:
            raise ValueError("sim_time must exceed warmup")
        if self.rows * self.cols < 2:
            raise ValueError("the ess surface needs at least two cells")

    def ap_ids(self) -> list[str]:
        """The AP ids of the ess surface's grid topology."""
        from ..ess.topology import grid_ap_id

        return [
            grid_ap_id(r, c)
            for r in range(self.rows)
            for c in range(self.cols)
        ]

    def links(self) -> list[tuple[str, str]]:
        """Canonically-ordered links of the ess surface's grid."""
        from ..ess.topology import grid_ap_id

        out = []
        for r in range(self.rows):
            for c in range(self.cols):
                if c + 1 < self.cols:
                    out.append((grid_ap_id(r, c), grid_ap_id(r, c + 1)))
                if r + 1 < self.rows:
                    out.append((grid_ap_id(r, c), grid_ap_id(r + 1, c)))
        return out


@dataclasses.dataclass(frozen=True)
class ScenarioGenome(JsonRecord):
    """One point in the search space (see module docstring)."""

    surface: str = "bss"
    seed: int = 1
    #: load multiplier (bss) / arrival-rate multiplier (ess)
    load: float = 1.0
    #: data-station count (bss) / per-cell capacity (ess)
    stations: int = 4
    # -- bss fault genes ---------------------------------------------------
    gilbert_elliott: GilbertElliottParams | None = None
    frame_loss: tuple[FrameLossRule, ...] = ()
    station_faults: tuple[StationFault, ...] = ()
    # -- ess fault genes ---------------------------------------------------
    link_faults: tuple[LinkFault, ...] = ()
    ap_faults: tuple[ApFault, ...] = ()

    def __post_init__(self) -> None:
        if self.surface not in SURFACES:
            raise ValueError(
                f"surface must be one of {SURFACES}, got {self.surface!r}"
            )
        if self.load <= 0:
            raise ValueError(f"load must be > 0, got {self.load}")
        if self.stations < 1:
            raise ValueError(f"stations must be >= 1, got {self.stations}")
        for name in ("frame_loss", "station_faults", "link_faults",
                     "ap_faults"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if self.surface == "bss" and (self.link_faults or self.ap_faults):
            raise ValueError("bss genomes cannot carry ESS fault genes")
        if self.surface == "ess" and (
            self.gilbert_elliott or self.frame_loss or self.station_faults
        ):
            raise ValueError("ess genomes cannot carry BSS fault genes")

    # -- identity ----------------------------------------------------------
    def canonical(self) -> str:
        """Canonical JSON form — the genome's stable identity."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def key(self) -> str:
        """Short stable hash of the canonical form (fixture naming)."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:12]

    @property
    def fault_clauses(self) -> int:
        """How many droppable fault genes the genome carries."""
        return (
            (1 if self.gilbert_elliott is not None else 0)
            + len(self.frame_loss)
            + len(self.station_faults)
            + len(self.link_faults)
            + len(self.ap_faults)
        )

    # -- decoding ----------------------------------------------------------
    def decode_bss(self, settings: DecodeSettings) -> "ScenarioConfig":
        """The runnable single-BSS point this genome describes.

        The invariant monitors are always armed and a
        :class:`~repro.faults.plan.FaultPlan` always attached (even an
        empty one), so QoS-budget misses land as structured
        ``qos_breaches`` in the result row rather than gating.
        """
        import dataclasses as _dc

        from ..experiments.config import sweep_config

        if self.surface != "bss":
            raise ValueError(f"cannot decode a {self.surface!r} genome as bss")
        return _dc.replace(
            sweep_config(
                settings.scheme,
                self.load,
                self.seed,
                settings.sim_time,
                settings.warmup,
            ),
            n_data_stations=self.stations,
            monitor_invariants=True,
            faults=FaultPlan(
                gilbert_elliott=self.gilbert_elliott,
                frame_loss=self.frame_loss,
                station_faults=self.station_faults,
            ),
        )

    def decode_ess(self, settings: DecodeSettings) -> "EssConfig":
        """The runnable call-level ESS scenario this genome describes."""
        from ..ess.coordinator import EssConfig

        if self.surface != "ess":
            raise ValueError(f"cannot decode a {self.surface!r} genome as ess")
        return EssConfig(
            rows=settings.rows,
            cols=settings.cols,
            seed=self.seed,
            epochs=settings.epochs,
            epoch_length=settings.epoch_length,
            new_call_rate=_r4(settings.new_call_rate * self.load),
            mean_holding=settings.mean_holding,
            mean_residence=settings.mean_residence,
            capacity=self.stations,
            backhaul_faults=self.link_faults,
            ap_faults=self.ap_faults,
        )


# -- random generation -----------------------------------------------------
def _random_window(
    rng: "random.Random", horizon: float
) -> tuple[float, float]:
    """A fault window inside the horizon, at least 10% of it long."""
    start = _r4(rng.uniform(0.0, 0.6 * horizon))
    end = _r4(start + rng.uniform(0.1 * horizon, horizon - start))
    return start, end


def _random_ge(rng: "random.Random") -> GilbertElliottParams:
    return GilbertElliottParams(
        p_good_to_bad=_r4(rng.uniform(0.01, 0.1)),
        p_bad_to_good=_r4(rng.uniform(0.1, 0.5)),
        ber_good=1e-6,
        ber_bad=_r4(rng.uniform(1e-4, 2e-3)),
    )


def _random_frame_loss(
    rng: "random.Random", horizon: float
) -> FrameLossRule:
    start, end = _random_window(rng, horizon)
    return FrameLossRule(
        ftype=rng.choice(_LOSSY_FTYPES),
        probability=_r4(rng.uniform(0.05, 0.6)),
        start=start,
        end=end,
    )


def _random_station_fault(
    rng: "random.Random", settings: DecodeSettings
) -> StationFault:
    span = settings.sim_time - settings.warmup
    return StationFault(
        at=_r4(settings.warmup + rng.uniform(0.0, 0.8 * span)),
        mode=rng.choice(("crash", "freeze")),
        duration=_r4(rng.uniform(0.5, 0.5 * span)),
        kind=rng.choice(("any", "voice", "video")),
    )


def _random_link_fault(
    rng: "random.Random", settings: DecodeSettings
) -> LinkFault:
    a, b = rng.choice(settings.links())
    start, end = _random_window(
        rng, settings.epochs * settings.epoch_length
    )
    return LinkFault(a=a, b=b, start=start, end=end)


def _random_ap_fault(
    rng: "random.Random", settings: DecodeSettings
) -> ApFault:
    ap = rng.choice(settings.ap_ids())
    start, end = _random_window(
        rng, settings.epochs * settings.epoch_length
    )
    return ApFault(ap=ap, start=start, end=end)


def random_genome(
    rng: "random.Random", settings: DecodeSettings, surface: str
) -> ScenarioGenome:
    """Sample a fresh genome for one surface from the seeded RNG."""
    seed = rng.choice(_SEED_POOL)
    load = rng.choice(_LOAD_STEPS)
    if surface == "bss":
        stations = rng.randint(1, 8)
        ge = _random_ge(rng) if rng.random() < 0.5 else None
        frame_loss = tuple(
            _random_frame_loss(rng, settings.sim_time)
            for _ in range(rng.randint(0, 2))
        )
        station_faults = tuple(
            _random_station_fault(rng, settings)
            for _ in range(rng.randint(0, 2))
        )
        return ScenarioGenome(
            surface="bss",
            seed=seed,
            load=load,
            stations=stations,
            gilbert_elliott=ge,
            frame_loss=frame_loss,
            station_faults=station_faults,
        )
    if surface == "ess":
        stations = rng.randint(2, 10)
        link_faults = tuple(
            _random_link_fault(rng, settings)
            for _ in range(rng.randint(0, 2))
        )
        ap_faults = tuple(
            _random_ap_fault(rng, settings)
            for _ in range(rng.randint(0, 2))
        )
        return ScenarioGenome(
            surface="ess",
            seed=seed,
            load=load,
            stations=stations,
            link_faults=link_faults,
            ap_faults=ap_faults,
        )
    raise ValueError(f"surface must be one of {SURFACES}, got {surface!r}")


# -- mutation --------------------------------------------------------------
def _step_load(rng: "random.Random", load: float) -> float:
    steps = sorted(set(_LOAD_STEPS) | {load})
    i = steps.index(load)
    if i == 0:
        return steps[1]
    if i == len(steps) - 1:
        return steps[-2]
    return steps[i + rng.choice((-1, 1))]


def mutate_genome(
    rng: "random.Random",
    genome: ScenarioGenome,
    settings: DecodeSettings,
) -> ScenarioGenome:
    """One greedy-mutation step: perturb exactly one gene.

    The operator is drawn from the surface's catalog with the seeded
    RNG; the result is always a valid genome.
    """
    if genome.surface == "bss":
        ops = ["load", "stations", "seed", "ge", "frame_loss",
               "station_fault"]
    else:
        ops = ["load", "stations", "seed", "link_fault", "ap_fault"]
    op = rng.choice(ops)
    if op == "load":
        return dataclasses.replace(
            genome, load=_step_load(rng, genome.load)
        )
    if op == "stations":
        delta = rng.choice((-1, 1))
        return dataclasses.replace(
            genome, stations=max(1, genome.stations + delta)
        )
    if op == "seed":
        return dataclasses.replace(genome, seed=rng.choice(_SEED_POOL))
    if op == "ge":
        if genome.gilbert_elliott is None or rng.random() < 0.5:
            return dataclasses.replace(
                genome, gilbert_elliott=_random_ge(rng)
            )
        return dataclasses.replace(genome, gilbert_elliott=None)
    if op == "frame_loss":
        rules = list(genome.frame_loss)
        if rules and rng.random() < 0.5:
            rules.pop(rng.randrange(len(rules)))
        else:
            rules.append(_random_frame_loss(rng, settings.sim_time))
        return dataclasses.replace(genome, frame_loss=tuple(rules))
    if op == "station_fault":
        faults = list(genome.station_faults)
        if faults and rng.random() < 0.5:
            faults.pop(rng.randrange(len(faults)))
        else:
            faults.append(_random_station_fault(rng, settings))
        return dataclasses.replace(genome, station_faults=tuple(faults))
    if op == "link_fault":
        faults = list(genome.link_faults)
        if faults and rng.random() < 0.5:
            faults.pop(rng.randrange(len(faults)))
        else:
            faults.append(_random_link_fault(rng, settings))
        return dataclasses.replace(genome, link_faults=tuple(faults))
    # op == "ap_fault"
    faults = list(genome.ap_faults)
    if faults and rng.random() < 0.5:
        faults.pop(rng.randrange(len(faults)))
    else:
        faults.append(_random_ap_fault(rng, settings))
    return dataclasses.replace(genome, ap_faults=tuple(faults))
