"""The serializable description of what a run injects: :class:`FaultPlan`.

A fault plan rides inside :class:`~repro.network.bss.ScenarioConfig`
(its ``faults`` field), so it is part of a simulation point's identity:
two runs with different plans hash to different
:func:`~repro.exec.hashing.config_key` addresses, and a plan-free run
keys (and behaves) exactly like the seed's fault-free scenarios.

Three injector families, all optional:

* **channel** — replace the i.i.d. ``(1-BER)^L`` error model with the
  two-state Gilbert–Elliott bursty model
  (:class:`~repro.faults.gilbert.GilbertElliottModel`);
* **frames** — corrupt specific frame *types* with a target
  probability, optionally inside a time window
  (:class:`~repro.faults.injector.FrameLossInjector`) — lose CF-Polls,
  ACKs or CF-Ends specifically;
* **stations** — crash or freeze admitted real-time terminals on a
  schedule (:class:`~repro.faults.stations.StationFaultDriver`).

Attaching *any* plan — even an empty ``FaultPlan()`` — arms the
hardened protocol semantics (strict CF-End delivery with NAV-expiry
fallback); see ``network/bss.py``.  Fault-free configs (``faults is
None``) keep the seed's idealizations so the golden quickstart row and
every shape claim reproduce byte-identically.
"""

from __future__ import annotations

import dataclasses

from ..mac.frames import FrameType
from ..obs.jsonutil import JsonRecord, store_floats

__all__ = [
    "GilbertElliottParams",
    "FrameLossRule",
    "StationFault",
    "LinkFault",
    "ApFault",
    "FaultPlan",
    "FAULT_MODES",
    "FAULT_KINDS",
]

#: station fault modes: ``crash`` loses the buffer (device reboot),
#: ``freeze`` keeps it (radio mute; packets queue and expire in place)
FAULT_MODES = ("crash", "freeze")

#: station targeting filters
FAULT_KINDS = ("any", "voice", "video")

#: the frame kinds a frame-loss rule can name
_FRAME_TYPES = tuple(ftype.value for ftype in FrameType)


@dataclasses.dataclass(frozen=True)
class GilbertElliottParams:
    """Two-state bursty channel: Good/Bad with per-state BER.

    The state chain advances one step per frame; the stationary bad
    probability is ``p_good_to_bad / (p_good_to_bad + p_bad_to_good)``.
    """

    p_good_to_bad: float
    p_bad_to_good: float
    ber_good: float = 0.0
    ber_bad: float = 1e-3

    def __post_init__(self) -> None:
        store_floats(self)
        for name in ("p_good_to_bad", "p_bad_to_good"):
            p = getattr(self, name)
            if not 0.0 < p <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {p}")
        for name in ("ber_good", "ber_bad"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {b}")

    @property
    def stationary_bad(self) -> float:
        """Long-run fraction of frames seeing the Bad state."""
        return self.p_good_to_bad / (self.p_good_to_bad + self.p_bad_to_good)


@dataclasses.dataclass(frozen=True)
class FrameLossRule:
    """Corrupt frames of one type with probability ``probability``.

    ``ftype`` is a :class:`~repro.mac.frames.FrameType` value string
    (``"cf_poll"``, ``"ack"``, ``"cf_end"``, ...); any other string is
    refused, as it would match no frame.  The rule applies from
    ``start`` until ``end`` (``None`` = forever).
    """

    ftype: str
    probability: float
    start: float = 0.0
    end: float | None = None

    def __post_init__(self) -> None:
        store_floats(self)
        if self.ftype not in _FRAME_TYPES:
            raise ValueError(
                f"ftype must be one of {_FRAME_TYPES}, got {self.ftype!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.start < 0.0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end is not None and self.end <= self.start:
            raise ValueError(
                f"need end > start, got [{self.start}, {self.end})"
            )

    def active(self, now: float) -> bool:
        return self.start <= now and (self.end is None or now < self.end)


@dataclasses.dataclass(frozen=True)
class StationFault:
    """One scheduled station fault.

    At time ``at`` the driver picks one currently-reachable admitted
    real-time station (filtered by ``kind``, chosen via the seeded
    fault RNG stream) and takes its radio down.  ``duration`` seconds
    later it recovers and rejoins; ``duration=None`` means the station
    never comes back (the call eventually ends upstream).
    """

    at: float
    mode: str = "freeze"
    duration: float | None = None
    kind: str = "any"

    def __post_init__(self) -> None:
        store_floats(self)
        if self.at < 0.0:
            raise ValueError(f"at must be >= 0, got {self.at}")
        if self.mode not in FAULT_MODES:
            raise ValueError(
                f"mode must be one of {FAULT_MODES}, got {self.mode!r}"
            )
        if self.duration is not None and self.duration <= 0.0:
            raise ValueError(
                f"duration must be > 0 or None, got {self.duration}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )


@dataclasses.dataclass(frozen=True)
class LinkFault:
    """One backhaul-link outage window in an ESS topology.

    ``a`` and ``b`` name the APs the faulted link connects (order is
    irrelevant — the link is undirected).  The link is down from
    ``start`` until ``end`` (``None`` = for the rest of the run).
    While it is down, handoff signalling that would cross it fails
    over to the node-disjoint alternate path
    (:class:`~repro.ess.routing.BackhaulRouter`); consumed by the ESS
    coordinator, not by the single-BSS injectors above.
    """

    a: str
    b: str
    start: float = 0.0
    end: float | None = None

    def __post_init__(self) -> None:
        if not self.a or not self.b:
            raise ValueError("link endpoints must be non-empty AP ids")
        if self.a == self.b:
            raise ValueError(f"link endpoints must differ, got {self.a!r}")
        if self.start < 0.0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end is not None and self.end <= self.start:
            raise ValueError(
                f"need end > start, got [{self.start}, {self.end})"
            )

    def key(self) -> tuple[str, str]:
        """Canonical undirected link identity."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)

    def active_during(self, t0: float, t1: float) -> bool:
        """Does the outage overlap the ``[t0, t1)`` window?"""
        return self.start < t1 and (self.end is None or self.end > t0)


@dataclasses.dataclass(frozen=True)
class ApFault:
    """One whole-AP outage window in an ESS topology.

    ``ap`` names the access point that goes dark.  The AP is down from
    ``start`` until ``end`` (``None`` = for the rest of the run).
    While it is down its microcell sheds resident calls, refuses new
    admissions and inbound handoffs (all ledgered, never raised), and
    the backhaul router treats every path through the AP as unhealthy —
    traffic between healthy APs fails over to the node-disjoint
    alternate exactly as under a :class:`LinkFault`.  Windows are
    honoured at epoch granularity (same convention as link faults).
    """

    ap: str
    start: float = 0.0
    end: float | None = None

    def __post_init__(self) -> None:
        if not self.ap:
            raise ValueError("ap must be a non-empty AP id")
        if self.start < 0.0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.end is not None and self.end <= self.start:
            raise ValueError(
                f"need end > start, got [{self.start}, {self.end})"
            )

    def active_during(self, t0: float, t1: float) -> bool:
        """Does the outage overlap the ``[t0, t1)`` window?"""
        return self.start < t1 and (self.end is None or self.end > t0)


@dataclasses.dataclass(frozen=True)
class FaultPlan(JsonRecord):
    """Everything one run injects (see module docstring)."""

    gilbert_elliott: GilbertElliottParams | None = None
    frame_loss: tuple[FrameLossRule, ...] = ()
    station_faults: tuple[StationFault, ...] = ()

    def __post_init__(self) -> None:
        # tolerate lists from hand-written configs
        if not isinstance(self.frame_loss, tuple):
            object.__setattr__(self, "frame_loss", tuple(self.frame_loss))
        if not isinstance(self.station_faults, tuple):
            object.__setattr__(
                self, "station_faults", tuple(self.station_faults)
            )

    @property
    def injects_anything(self) -> bool:
        """False for the empty plan (hardening armed, nothing injected)."""
        return bool(
            self.gilbert_elliott or self.frame_loss or self.station_faults
        )
