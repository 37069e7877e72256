"""Call-level dynamics: new-call and handoff arrivals, holding times.

The paper's microcell setting is abstracted (as its own simulation
does) into arrival processes at one BSS:

* **new calls** (voice / video) arrive Poisson, contend with a
  connection request at the lowest priority, and are *blocked* if
  admission control refuses them (or the request never gets through);
* **handoff calls** arrive Poisson from neighbouring cells carrying a
  handoff deadline ``t_h``; their requests ride the highest backoff
  priority, and the call is *dropped* if it is not admitted within the
  deadline;
* admitted calls hold for an exponential duration (the paper uses a
  3-minute mean; sweeps scale this down to keep runs laptop-sized) and
  then depart, releasing their bandwidth.
"""

from __future__ import annotations

import dataclasses
import typing

from ..mac.backoff import BackoffPolicy
from ..mac.dcf import DcfTransmitter
from ..mac.nav import Nav
from ..mac.station import RealTimeStation
from ..metrics.collectors import MetricsCollector
from ..phy.channel import Channel
from ..phy.timing import PhyTiming
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from ..traffic.base import TrafficKind
from ..traffic.video import MaglarisVideoSource, VideoParams
from ..traffic.voice import OnOffVoiceSource, VoiceParams

__all__ = ["CallMixConfig", "CallGenerator", "ActiveCall"]


class AccessPointLike(typing.Protocol):
    """What the call generator needs from either AP implementation."""

    ap_id: str

    def register_station(self, station: RealTimeStation) -> None: ...

    def station_departed(self, station_id: str) -> None: ...


@dataclasses.dataclass(frozen=True)
class CallMixConfig:
    """Arrival intensities and per-call parameters."""

    voice: VoiceParams
    video: VideoParams
    new_voice_rate: float = 0.2  # calls/s
    new_video_rate: float = 0.2
    handoff_voice_rate: float = 0.1
    handoff_video_rate: float = 0.1
    mean_holding: float = 60.0  # seconds (paper: 180; scaled for sweeps)
    handoff_deadline: float = 0.5  # t_h
    #: handoff latency fed to the admission test (paper's t_h_i);
    #: must stay well inside the tightest jitter budget or every
    #: handoff is trivially infeasible
    handoff_time: float = 0.005

    def __post_init__(self) -> None:
        for name in (
            "new_voice_rate",
            "new_video_rate",
            "handoff_voice_rate",
            "handoff_video_rate",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.mean_holding <= 0:
            raise ValueError("mean_holding must be > 0")
        if self.handoff_deadline <= 0:
            raise ValueError("handoff_deadline must be > 0")
        if self.handoff_time < 0:
            raise ValueError("handoff_time must be >= 0")


@dataclasses.dataclass
class ActiveCall:
    """Bookkeeping for one live call."""

    station: RealTimeStation
    dcf: DcfTransmitter
    source: typing.Any
    kind: TrafficKind
    handoff: bool
    resolved: bool = False
    admitted: bool = False


class CallGenerator:
    """Drives the four Poisson call streams into one BSS."""

    def __init__(
        self,
        sim: Simulator,
        ap: AccessPointLike,
        channel: Channel,
        timing: PhyTiming,
        nav: Nav,
        policy_factory: typing.Callable[[], BackoffPolicy],
        streams: RandomStreams,
        config: CallMixConfig,
        collector: MetricsCollector,
    ) -> None:
        self.sim = sim
        self.ap = ap
        self.channel = channel
        self.timing = timing
        self.nav = nav
        self.policy_factory = policy_factory
        self.streams = streams
        self.config = config
        self.collector = collector

        self._counter = 0
        self.active: dict[str, ActiveCall] = {}
        self.attempts = {"new": 0, "handoff": 0}
        self.admitted = {"new": 0, "handoff": 0}
        self.blocked = 0
        self.dropped = 0
        self.completed = 0
        #: optional :class:`repro.obs.trace.TraceRecorder`, installed on
        #: every DCF transmitter this generator creates (``backoff``)
        self.trace = None

    # -- arrival processes -----------------------------------------------------
    def start(self) -> None:
        """Spawn the four arrival processes (zero-rate streams skipped)."""
        plan = [
            (TrafficKind.VOICE, False, self.config.new_voice_rate),
            (TrafficKind.VIDEO, False, self.config.new_video_rate),
            (TrafficKind.VOICE, True, self.config.handoff_voice_rate),
            (TrafficKind.VIDEO, True, self.config.handoff_video_rate),
        ]
        for kind, handoff, rate in plan:
            if rate > 0:
                self.sim.process(self._arrivals(kind, handoff, rate))

    def _arrivals(self, kind: TrafficKind, handoff: bool, rate: float):
        rng = self.streams.get(f"arrivals/{kind.value}/{int(handoff)}")
        while True:
            yield rng.exponential(1.0 / rate)
            self._new_call(kind, handoff)

    def inject_handoff(self, kind: TrafficKind) -> None:
        """ESS cell shards deliver their routed handoff arrivals here."""
        self._new_call(kind, handoff=True)

    # -- one call's lifecycle -------------------------------------------------------
    def _new_call(self, kind: TrafficKind, handoff: bool) -> None:
        self._counter += 1
        sid = f"{'ho-' if handoff else ''}{kind.value}/{self._counter}"
        qos = self.config.voice if kind == TrafficKind.VOICE else self.config.video
        dcf = DcfTransmitter(
            self.sim,
            self.channel,
            self.timing,
            self.policy_factory(),
            self.streams.blocks(f"dcf/{sid}"),
            sid,
            self.nav,
        )
        dcf.trace = self.trace
        station = RealTimeStation(
            self.sim,
            sid,
            dcf,
            self.ap.ap_id,
            kind,
            qos,
            is_handoff=handoff,
            handoff_time=self.config.handoff_time if handoff else 0.0,
            on_packet_outcome=self.collector.packet_outcome,
            service_margin=self.timing.frame_airtime(qos.packet_bits),
        )
        call = ActiveCall(station, dcf, None, kind, handoff)
        self.active[sid] = call
        self.attempts["handoff" if handoff else "new"] += 1
        self.ap.register_station(station)

        if handoff:
            self.sim.call_in(
                self.config.handoff_deadline, self._handoff_deadline, call
            )
        station.start_admission_request(
            lambda success, call=call: self._request_done(call, success)
        )

    def _request_done(self, call: ActiveCall, success: bool) -> None:
        if call.resolved:
            return
        # the AP decided synchronously while receiving the request frame
        self._resolve(call, admitted=call.station.admitted)

    def _handoff_deadline(self, call: ActiveCall) -> None:
        if call.resolved:
            return
        self._resolve(call, admitted=False)

    def _resolve(self, call: ActiveCall, admitted: bool) -> None:
        call.resolved = True
        call.admitted = admitted
        now = self.sim.now
        sid = call.station.station_id
        if call.handoff:
            self.collector.handoff_outcome(dropped=not admitted, now=now)
        else:
            self.collector.newcall_outcome(blocked=not admitted, now=now)
        if not admitted:
            if call.handoff:
                self.dropped += 1
            else:
                self.blocked += 1
            self._teardown(sid)
            return
        self.admitted["handoff" if call.handoff else "new"] += 1
        call.source = self._make_source(call)
        call.source.start()
        rng = self.streams.get(f"holding/{sid}")
        self.sim.call_in(
            rng.exponential(self.config.mean_holding), self._end_call, sid
        )

    def _make_source(self, call: ActiveCall):
        sid = call.station.station_id
        rng = self.streams.blocks(f"traffic/{sid}")
        if call.kind == TrafficKind.VOICE:
            source = OnOffVoiceSource(
                self.sim,
                sid,
                call.station.packet_arrival,
                rng,
                self.config.voice,
                start_talking=True,
            )
            # During a talk spurt the station keeps the AP's token
            # pipeline alive with PGBK=1 even on a momentarily empty
            # buffer; reactivation requests then happen once per spurt
            # (video reactivates per burst — the paper's class-1 label).
            call.station.activity_probe = lambda src=source: src.talking
            return source
        return MaglarisVideoSource(
            self.sim, sid, call.station.packet_arrival, rng, self.config.video
        )

    def _end_call(self, sid: str) -> None:
        call = self.active.get(sid)
        if call is None:
            return
        if call.source is not None:
            call.source.stop()
        call.station.end_call()
        self.completed += 1
        self._teardown(sid)

    def _teardown(self, sid: str) -> None:
        call = self.active.pop(sid, None)
        if call is None:
            return
        self.ap.station_departed(sid)
        call.dcf.shutdown()

    # -- reporting -------------------------------------------------------------------
    @property
    def concurrent_calls(self) -> int:
        """Currently admitted, still-active calls."""
        return sum(1 for c in self.active.values() if c.admitted)
