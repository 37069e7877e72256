"""Scenario-level metric aggregation.

One :class:`MetricsCollector` per simulated BSS gathers everything the
paper's figures report: per-class access delays (Figs. 8-10), per-source
max jitter/delay (Fig. 5), handoff dropping and new-call blocking
probabilities (Figs. 6-7), and bandwidth utilization (Fig. 11).
"""

from __future__ import annotations

import typing

from ..obs.registry import Counter, MetricsRegistry
from ..traffic.base import Packet, TrafficKind
from .stats import JitterTracker, OnlineStats, WindowedRatio

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Collects packet- and call-level outcomes for one scenario run.

    Per-kind delivered/loss tallies are counters of the scenario's
    :class:`~repro.obs.registry.MetricsRegistry` (``delivered{kind=..}``
    / ``losses{kind=..}``), held in dicts keyed by
    :class:`~repro.traffic.base.TrafficKind`; access delays additionally
    feed per-kind registry histograms for snapshotting.
    """

    def __init__(
        self, warmup: float = 0.0, metrics: MetricsRegistry | None = None
    ) -> None:
        #: observations before this time are ignored (transient removal)
        self.warmup = warmup
        self.metrics = metrics or MetricsRegistry()
        self.access_delay: dict[TrafficKind, OnlineStats] = {
            k: OnlineStats() for k in TrafficKind
        }
        self._delay_hist = {
            k: self.metrics.histogram("access_delay", kind=k.value)
            for k in TrafficKind
        }
        self.losses: dict[TrafficKind, Counter] = {
            k: self.metrics.counter("losses", kind=k.value) for k in TrafficKind
        }
        self.delivered: dict[TrafficKind, Counter] = {
            k: self.metrics.counter("delivered", kind=k.value)
            for k in TrafficKind
        }
        self.jitter: dict[str, JitterTracker] = {}
        self.max_delay: dict[str, float] = {}
        self.dropping = WindowedRatio()  # handoff calls
        self.blocking = WindowedRatio()  # new calls
        #: successfully delivered payload bits (utilization numerator)
        self.useful_bits = 0

    # -- packet level -----------------------------------------------------
    def packet_outcome(self, packet: Packet, delivered: bool) -> None:
        """Feed one packet's final fate (hook for stations)."""
        if packet.created < self.warmup:
            return
        kind = packet.kind
        if not delivered:
            self.losses[kind].inc()
            return
        self.delivered[kind].inc()
        self.useful_bits += packet.bits
        delay = packet.access_delay()
        self.access_delay[kind].add(delay)
        self._delay_hist[kind].observe(delay)
        if kind == TrafficKind.VOICE:
            tracker = self.jitter.setdefault(packet.source_id, JitterTracker())
            if packet.new_stream:
                tracker.reset_stream()
            tracker.delivered(packet.created, packet.completed)
        if kind in (TrafficKind.VOICE, TrafficKind.VIDEO):
            prev = self.max_delay.get(packet.source_id, 0.0)
            if delay > prev:
                self.max_delay[packet.source_id] = delay

    # -- call level --------------------------------------------------------------
    def handoff_outcome(self, dropped: bool, now: float) -> None:
        """One handoff attempt concluded."""
        if now >= self.warmup:
            self.dropping.record(dropped)

    def newcall_outcome(self, blocked: bool, now: float) -> None:
        """One new-call attempt concluded."""
        if now >= self.warmup:
            self.blocking.record(blocked)

    # -- feedback for the adaptive bandwidth manager -----------------------------
    def adaptation_sample(self, utilization: float) -> tuple[float, float, float]:
        """(drop, block, utilization) over the recent past; ages the window."""
        sample = (self.dropping.ratio(), self.blocking.ratio(), utilization)
        self.dropping.decay()
        self.blocking.decay()
        return sample

    # -- reporting ------------------------------------------------------------------
    def loss_rate(self, kind: TrafficKind) -> float:
        lost = self.losses[kind].value
        total = self.delivered[kind].value + lost
        return lost / total if total else 0.0

    def worst_jitter(self) -> float:
        """Max observed voice jitter across all sources (Fig. 5 left)."""
        if not self.jitter:
            return 0.0
        return max(t.max_jitter for t in self.jitter.values())

    def worst_delay(self, source_prefix: str = "") -> float:
        """Max observed RT access delay (Fig. 5 right), optionally
        filtered by a source-id prefix like ``"video"``."""
        values = [
            d for sid, d in self.max_delay.items() if sid.startswith(source_prefix)
        ]
        return max(values) if values else 0.0

    def utilization(self, useful_time_denominator: float, data_rate: float) -> float:
        """Delivered-payload fraction of the raw channel capacity."""
        if useful_time_denominator <= 0:
            return 0.0
        return self.useful_bits / (data_rate * useful_time_denominator)

    def summary(self) -> dict[str, typing.Any]:
        """Flat dict of everything, for experiment tables."""
        out: dict[str, typing.Any] = {
            "dropping_probability": self.dropping.total_ratio(),
            "blocking_probability": self.blocking.total_ratio(),
            "worst_voice_jitter": self.worst_jitter(),
        }
        for kind in TrafficKind:
            stats = self.access_delay[kind]
            out[f"{kind.value}_delay_mean"] = stats.mean
            out[f"{kind.value}_delay_var"] = stats.variance
            out[f"{kind.value}_delivered"] = self.delivered[kind].value
            out[f"{kind.value}_losses"] = self.losses[kind].value
        return out
