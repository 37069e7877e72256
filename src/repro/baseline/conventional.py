"""The conventional IEEE 802.11 baseline the paper compares against.

From the evaluation section: "In the conventional IEEE 802.11 protocol,
CSMA/CA is adopted as the random access protocol for the contention
period, and a round-robin discipline is chosen as the scheduling policy
for AP in the contention free period.  That is, all traffics have the
same priority.  The admission control scheme ... is very simple and
intuitive" — a single utilization test over declared rates.  "The
duration of the contention free period and the length of each
superframe are set to be 50 and 75 ms" and CFPs begin strictly on the
fixed superframe schedule (the proposed scheme's ability to open a CFP
on demand is exactly what this baseline lacks); a CFP ends early once
the request table empties.

Stations reuse the same Fig. 2 request state machine, but every request
contends at the same (lowest) priority through plain binary-exponential
backoff.
"""

from __future__ import annotations

import dataclasses
import typing

from ..mac.frames import Frame, FrameType
from ..mac.pcf import PcfCoordinator, PollAction
from ..mac.station import RealTimeStation
from ..obs.registry import MetricsRegistry
from ..phy.channel import Channel, ChannelListener
from ..phy.timing import PhyTiming
from ..sim.engine import Simulator
from ..traffic.base import RT_PACKET_BITS
from ..traffic.video import VideoParams
from ..traffic.voice import VoiceParams
from .. import core

__all__ = ["ConventionalAccessPoint"]

#: the fixed superframe, and the most of it a CFP may take (the
#: paper's evaluation defaults: 75 and 50 ms)
SUPERFRAME = 0.075
CFP_MAX = 0.050


@dataclasses.dataclass
class _Admitted:
    station_id: str
    declared_rate: float  # packets/s (r for voice, rho for video)


class ConventionalAccessPoint(ChannelListener):
    """Plain 802.11 DCF + PCF with round-robin polling."""

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        timing: PhyTiming,
        nav,
        ap_id: str = "ap",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.timing = timing
        self.ap_id = ap_id
        self.metrics = metrics or MetricsRegistry()
        self.coordinator = PcfCoordinator(
            sim, channel, timing, nav, ap_id, metrics=self.metrics
        )
        self.packet_time = core.rt_exchange_time(timing, RT_PACKET_BITS)
        #: fraction of the superframe the CFP may occupy
        self.cfp_share = CFP_MAX / SUPERFRAME

        self.admitted: dict[str, _Admitted] = {}
        self.stations: dict[str, RealTimeStation] = {}
        #: stations that signalled pending traffic (the request table)
        self.request_table: list[str] = []
        self._rr_index = 0

        self.admitted_count = 0
        self.blocked_new = 0
        self.rejected_handoff = 0

        channel.attach(self)
        self.sim.call_in(SUPERFRAME, self._superframe_tick)

    # -- registry ------------------------------------------------------------
    def register_station(self, station: RealTimeStation) -> None:
        """Attach a real-time terminal (same interface as the QoS AP)."""
        self.stations[station.station_id] = station
        self.coordinator.register(station.station_id, station)

    def station_departed(self, station_id: str) -> None:
        """Tear down a terminated call (idempotent)."""
        self.stations.pop(station_id, None)
        self.coordinator.unregister(station_id)
        self.admitted.pop(station_id, None)
        if station_id in self.request_table:
            self.request_table.remove(station_id)

    # -- admission (the paper's "simple and intuitive" test) ------------------
    def _declared_rate(self, qos: typing.Any) -> float:
        if isinstance(qos, VoiceParams):
            return qos.rate
        if isinstance(qos, VideoParams):
            return qos.avg_rate
        raise TypeError(f"unknown QoS declaration {type(qos).__name__}")

    def _admission_test(self, extra_rate: float) -> bool:
        load = sum(a.declared_rate for a in self.admitted.values()) + extra_rate
        return load * self.packet_time <= self.cfp_share

    # -- request handling -----------------------------------------------------
    def on_frame(self, frame: Frame, ok: bool, now: float) -> None:
        if not ok or frame.ftype != FrameType.REQUEST or frame.dest != self.ap_id:
            return
        sid = frame.src
        info = frame.info or {}
        station = self.stations.get(sid)
        if station is None:
            # late request from a torn-down call: ignore (see QoS AP)
            return
        if sid in self.admitted:
            # traffic (re)indication from an admitted station
            if sid not in self.request_table:
                self.request_table.append(sid)
            if station is not None:
                station.grant()
            return
        qos = info.get("qos")
        rate = self._declared_rate(qos)
        if not self._admission_test(rate):
            if info.get("handoff"):
                self.rejected_handoff += 1
            else:
                self.blocked_new += 1
            if station is not None:
                station.deny()
            return
        self.admitted[sid] = _Admitted(sid, rate)
        self.admitted_count += 1
        self.request_table.append(sid)
        if station is not None:
            station.grant()

    # -- fixed superframe schedule ----------------------------------------------
    def _superframe_tick(self) -> None:
        self.sim.call_in(SUPERFRAME, self._superframe_tick)
        if self.request_table and not self.coordinator.active:
            self.coordinator.start_cfp(self, CFP_MAX, lambda: None)

    # -- CfpScheduler (round-robin over the request table) -----------------------
    def next_action(self, now: float, elapsed: float) -> PollAction | None:
        if not self.request_table:
            return None
        self._rr_index %= len(self.request_table)
        sid = self.request_table[self._rr_index]
        self._rr_index += 1
        return PollAction((sid,))

    def on_response(
        self, station_id: str, frame: Frame | None, ok: bool, now: float
    ) -> None:
        if frame is None or not frame.piggyback:
            # buffer drained (or nothing to send): leave the table
            if station_id in self.request_table:
                idx = self.request_table.index(station_id)
                self.request_table.remove(station_id)
                if idx < self._rr_index:
                    self._rr_index -= 1
        if frame is not None and frame.packet is not None:
            station = self.stations.get(station_id)
            if station is not None:
                station.delivery_outcome(frame.packet, ok, now)
