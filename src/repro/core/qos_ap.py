"""The proposed QoS access point: admission + tokens + adaptive bandwidth.

This class wires the paper's three mechanisms to the MAC substrate:

* it receives request frames from the (priority-) contention period and
  runs the Theorem 1/3 **admission control** — handoff requests are
  tested against the channel I+II share, new calls against channel I;
* it drives CFPs with the **token-buffer transmit-permission policy**;
  a CFP starts as soon as a token exists (subject to channel III's
  guaranteed contention-period share), which is why the proposed
  scheme's light-load delay beats the fixed-superframe baseline, and
  the next CFP is announced by observing the earliest pending token;
* per superframe-equivalent it budgets CFP time into channel I
  (real-time) and channel II (handoff-exclusive), with the
  **adaptive bandwidth manager** moving the splits in response to the
  measured dropping/blocking/utilization triple.
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
from ..sim.engine import Simulator, TimerHandle
from ..traffic.base import RT_PACKET_BITS, TrafficKind
from ..traffic.video import VideoParams
from ..traffic.voice import VoiceParams
from .admission import AdmissionController, Session
from .bandwidth import AdaptiveBandwidthManager
from .token_policy import TokenPolicy

__all__ = ["QosApConfig", "QosAccessPoint"]

#: superframe-equivalent period over which channel shares are budgeted
SUPERFRAME = 0.075
#: evict an admitted source after this many consecutive abnormal nulls
#: (polls that never reached it); its token buffer and admitted
#: bandwidth are reclaimed and it must re-request admission
EVICT_AFTER_NULLS = 6
#: upper bound on the contention-period gap owed after one CFP.  The
#: long-run channel-III share is protected by admission (RT load is
#: capped at the I+II shares), so this gate only needs to guarantee data
#: some airtime between CFPs; letting one long CFP impose its full
#: proportional debt would instead stall the next poll past the voice
#: sources' Theorem 1 bounds.
CP_DEBT_CAP = 0.002


@dataclasses.dataclass(frozen=True)
class QosApConfig:
    """Tunables of the proposed AP."""

    #: 1 = single CF-Polls; >1 = CF-MultiPoll batches of this size
    multipoll_size: int = 1
    #: period of the adaptive-bandwidth feedback loop (0 disables)
    adaptation_interval: float = 1.0
    #: voice scan order; 'ascending' is Theorem 2's optimum
    voice_order: str = "ascending"
    #: HCF-style TXOP: max frames a backlogged station may send per
    #: poll (1 = classic PCF single response)
    txop_packets: int = 1

    def __post_init__(self) -> None:
        if self.multipoll_size < 1:
            raise ValueError("multipoll_size must be >= 1")
        if self.adaptation_interval < 0:
            raise ValueError("adaptation_interval must be >= 0")
        if self.txop_packets < 1:
            raise ValueError("txop_packets must be >= 1")


#: the AP's registry-backed decision counters (``ap_<name>`` metrics)
_AP_COUNTERS = (
    "admitted_new",
    "admitted_handoff",
    "blocked_new",
    "rejected_handoff",
    "reactivations",
    "evictions",
    "readmissions",
    "reclaimed_bandwidth",  # admitted airtime fraction returned by evictions
)


class QosAccessPoint(ChannelListener):
    """The paper's QoS provisioning system, running at the AP.

    Parameters
    ----------
    sim, channel, timing, nav:
        MAC substrate (the nav is shared with all stations).
    config:
        See :class:`QosApConfig`.
    feedback:
        ``fn() -> (drop_prob, block_prob, utilization)`` sampled every
        ``adaptation_interval`` to drive the bandwidth manager.
    ap_id:
        MAC address of the AP.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        timing: PhyTiming,
        nav,
        config: QosApConfig | None = None,
        feedback: typing.Callable[[], tuple[float, float, float]] | None = None,
        ap_id: str = "ap",
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.timing = timing
        self.ap_id = ap_id
        self.config = config or QosApConfig()
        self.bandwidth = AdaptiveBandwidthManager()
        self.feedback = feedback
        #: the scenario-wide metrics registry (one is created when the
        #: AP is built standalone); the token policy and coordinator
        #: register their instruments in the same registry
        self.metrics = metrics or MetricsRegistry()
        self.admission = AdmissionController(
            timing, RT_PACKET_BITS, self.bandwidth
        )
        self.policy = TokenPolicy(
            sim,
            multipoll_size=self.config.multipoll_size,
            budget_check=self._budget_allows,
            voice_order=self.config.voice_order,
            drain_interval=self.admission.packet_time,
            evict_after=EVICT_AFTER_NULLS,
            metrics=self.metrics,
        )
        self.policy.on_token = self._maybe_start_cfp
        self.policy.on_evict = self._evict_station
        self.coordinator = PcfCoordinator(
            sim, channel, timing, nav, ap_id,
            txop_packets=self.config.txop_packets,
            metrics=self.metrics,
        )
        self.stations: dict[str, RealTimeStation] = {}
        #: optional :class:`repro.validate.invariants.InvariantSuite`
        self.monitor = None
        #: optional :class:`repro.obs.trace.TraceRecorder` (``admission``)
        self.trace = None

        self._earliest_next_cfp = 0.0
        self._cfp_started_at = 0.0
        self._check_timer: TimerHandle | None = None
        self._used_new = 0.0
        self._used_handoff = 0.0

        #: decision counters: ``self.<name>`` is the registry's
        #: ``ap_<name>`` counter (``self.admitted_new.inc()`` etc.)
        for name in _AP_COUNTERS:
            setattr(self, name, self.metrics.counter(f"ap_{name}"))
        self._evicted_ids: set[str] = set()

        channel.attach(self)
        if self.feedback is not None and self.config.adaptation_interval > 0:
            self.sim.call_in(self.config.adaptation_interval, self._adapt)

    # -- station registry -----------------------------------------------------
    def register_station(self, station: RealTimeStation) -> None:
        """Attach a real-time terminal (called by the call generator)."""
        self.stations[station.station_id] = station
        self.coordinator.register(station.station_id, station)

    def station_departed(self, station_id: str) -> None:
        """Tear down a terminated/left call (idempotent)."""
        self.stations.pop(station_id, None)
        self.coordinator.unregister(station_id)
        self.policy.remove_session(station_id)
        self._evicted_ids.discard(station_id)
        session = self.admission.find(station_id)
        if session is not None:
            self.admission.remove(session)

    def _evict_station(self, station_id: str) -> None:
        """Missed-poll escalation: reclaim an unreachable session.

        Unlike :meth:`station_departed` the station stays registered
        (with the AP and the coordinator) so a recovery can re-request
        admission through the normal REQUEST path; only its token
        buffer and admitted bandwidth are torn down.
        """
        session = self.admission.find(station_id)
        if session is not None:
            rate = (
                session.params.rate
                if session.is_voice
                else session.params.avg_rate
            )
            self.reclaimed_bandwidth.inc(rate * self.admission.packet_time)
            self.admission.remove(session)
        self.policy.remove_session(station_id)
        station = self.stations.get(station_id)
        if station is not None:
            station.evicted()
        self.evictions.inc()
        self._evicted_ids.add(station_id)
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, "admission", "evict", station=station_id
            )
        if self.monitor is not None:
            self.monitor.session_evicted(station_id, self.sim.now)

    # -- request handling (ChannelListener) -----------------------------------
    def on_frame(self, frame: Frame, ok: bool, now: float) -> None:
        if not ok or frame.ftype != FrameType.REQUEST or frame.dest != self.ap_id:
            return
        info = frame.info or {}
        sid = frame.src
        station = self.stations.get(sid)
        if station is None:
            # e.g. a request that was still on the air when its call
            # tore down — admitting it would create a ghost session
            # the coordinator can never poll
            return
        if info.get("reactivation"):
            self.reactivations.inc()
            if self.trace is not None:
                self.trace.emit(now, "admission", "reactivation", station=sid)
            if self.policy.grant_token(sid) and station is not None:
                station.grant()
            return
        if self.admission.find(sid) is not None:
            # duplicate request (lost ACK path): re-grant idempotently
            if station is not None:
                station.grant()
            return
        handoff = bool(info.get("handoff"))
        handoff_time = float(info.get("handoff_time", 0.0))
        qos = info.get("qos")
        session: Session | None
        if info.get("kind") == TrafficKind.VOICE or isinstance(qos, VoiceParams):
            session = self.admission.try_admit_voice(sid, qos, handoff, handoff_time)
        else:
            session = self.admission.try_admit_video(sid, qos, handoff, handoff_time)
        if session is None:
            if handoff:
                self.rejected_handoff.inc()
            else:
                self.blocked_new.inc()
            if self.trace is not None:
                self.trace.emit(
                    now, "admission", "reject", station=sid, handoff=handoff
                )
            if station is not None:
                station.deny()
            return
        if handoff:
            self.admitted_handoff.inc()
        else:
            self.admitted_new.inc()
        readmitted = sid in self._evicted_ids
        if readmitted:
            # a previously evicted session earned its way back in
            self.readmissions.inc()
            self._evicted_ids.discard(sid)
        if self.trace is not None:
            self.trace.emit(
                now, "admission", "accept", station=sid, handoff=handoff,
                kind=("voice" if session.is_voice else "video"),
                readmission=readmitted,
            )
        self.policy.add_session(session)
        if self.monitor is not None:
            self.monitor.session_admitted(session)
        if station is not None:
            station.grant()

    # -- CFP budgeting (channels I and II) -----------------------------------
    def _budget_allows(self, session: Session) -> bool:
        cost = self.admission.packet_time
        budget_i = self.bandwidth.share_i * SUPERFRAME
        budget_ii = self.bandwidth.share_ii * SUPERFRAME
        if session.handoff:
            # channel II is handoff-exclusive; spare channel I time may
            # also be used, but never ahead of non-handoff RT demand.
            spare_i = max(0.0, budget_i - self._used_new)
            return self._used_handoff + cost <= budget_ii + spare_i
        return self._used_new + cost <= budget_i

    # -- CFP lifecycle --------------------------------------------------------
    def _maybe_start_cfp(self) -> None:
        if self.coordinator.active or not self.policy.any_token():
            return
        now = self.sim.now
        if now < self._earliest_next_cfp:
            self._schedule_check(self._earliest_next_cfp)
            return
        self._used_new = 0.0
        self._used_handoff = 0.0
        self._cfp_started_at = now
        max_dur = (
            self.bandwidth.share_i + self.bandwidth.share_ii
        ) * SUPERFRAME
        if self.monitor is not None:
            self.monitor.cfp_started(now, max_dur)
        self.coordinator.start_cfp(self, max_dur, self._cfp_ended)

    def _cfp_ended(self) -> None:
        now = self.sim.now
        # Channel III's guaranteed contention-period share, charged
        # proportionally to the CFP time actually consumed: a CFP of
        # duration d owes the CP  d * share_iii / (share_i + share_ii),
        # which preserves the long-run split while letting short CFPs
        # recur quickly (the proposed scheme's on-demand CFP start).
        cfp_share = self.bandwidth.share_i + self.bandwidth.share_ii
        duration = now - self._cfp_started_at
        debt = min(
            duration * self.bandwidth.share_iii / cfp_share, CP_DEBT_CAP
        )
        self._earliest_next_cfp = now + debt
        if self.monitor is not None:
            self.monitor.cfp_ended(now, duration, debt)
        if self.policy.any_token():
            self._schedule_check(self._earliest_next_cfp)
        else:
            regen = self.policy.next_token_time()
            if regen < float("inf"):
                self._schedule_check(max(regen, self._earliest_next_cfp))

    def _schedule_check(self, at: float) -> None:
        if self._check_timer is not None and not self._check_timer.cancelled:
            if self._check_timer.time <= at:
                return  # an earlier check is already pending
            self._check_timer.cancel()
        self._check_timer = self.sim.call_at(at, self._check_fired)

    def _check_fired(self) -> None:
        self._check_timer = None
        self._maybe_start_cfp()

    # -- CfpScheduler interface (delegates to the token policy) ---------------
    def next_action(self, now: float, elapsed: float) -> PollAction | None:
        return self.policy.next_action(now, elapsed)

    def on_response(
        self, station_id: str, frame: Frame | None, ok: bool, now: float
    ) -> None:
        if frame is None and not ok:
            # Abnormal null: the poll never reached the station, so no
            # exchange happened — nothing is charged to the channel
            # budgets; the policy runs its miss escalation.
            self.policy.on_response(station_id, frame, ok, now)
            return
        state = self.policy.get(station_id)
        if state is not None:
            # charge the nominal exchange time to the right channel
            if state.session.handoff:
                self._used_handoff += self.admission.packet_time
            else:
                self._used_new += self.admission.packet_time
        self.policy.on_response(station_id, frame, ok, now)
        if frame is not None and frame.packet is not None:
            station = self.stations.get(station_id)
            if station is not None:
                station.delivery_outcome(frame.packet, ok, now)

    # -- adaptive bandwidth loop -------------------------------------------------
    def _adapt(self) -> None:
        assert self.feedback is not None
        drop, block, util = self.feedback()
        self.bandwidth.update(drop, block, util)
        self.sim.call_in(self.config.adaptation_interval, self._adapt)
