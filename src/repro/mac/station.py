"""Station state machines.

:class:`RealTimeStation` implements the paper's Fig. 2 three-state
model — **Empty**, **Request**, **Wait-to-Transmit**:

* a station whose buffer fills while Empty enters Request and contends
  (through the priority DCF) with a resource-request frame;
* once the AP has the request it waits to be polled (Wait-to-Transmit);
* a polled station answers with one packet plus the PGBK piggyback bit
  ("my buffer is still non-empty"); a zero piggyback returns it to
  Empty.

Real-time packets whose deadline (jitter budget for voice, delay budget
for video) lapses while queued are discarded and counted as lost —
exactly the paper's loss semantics.

:class:`DataStation` is the plain best-effort DCF station.
"""

from __future__ import annotations

import collections
import enum
import typing

from ..sim.engine import Simulator
from ..traffic.base import Packet, TrafficKind
from .backoff import LEVEL_HANDOFF, LEVEL_NEW_OR_DATA, LEVEL_REACTIVATION
from .dcf import DcfTransmitter
from .frames import Frame, FrameType

__all__ = ["RTState", "RealTimeStation", "DataStation"]


class RTState(enum.Enum):
    """The paper's Fig. 2 station states."""

    EMPTY = "empty"
    REQUEST = "request"
    WAIT = "wait_to_transmit"


class RealTimeStation:
    """A voice or video terminal.

    Parameters
    ----------
    sim:
        Simulator.
    station_id:
        Unique id (doubles as MAC address).
    dcf:
        Contention engine used for request frames.
    ap_id:
        Where requests are addressed.
    kind:
        VOICE or VIDEO.
    qos:
        The traffic declaration carried inside request frames
        (``VoiceParams`` or ``VideoParams``).
    is_handoff:
        Handoff calls send their (re)requests at the highest priority.
    on_packet_outcome:
        ``fn(packet, delivered: bool)`` metric callback.
    """

    def __init__(
        self,
        sim: Simulator,
        station_id: str,
        dcf: DcfTransmitter,
        ap_id: str,
        kind: TrafficKind,
        qos: typing.Any,
        is_handoff: bool = False,
        handoff_time: float = 0.0,
        on_packet_outcome: typing.Callable[[Packet, bool], None] | None = None,
        service_margin: float = 0.0,
    ) -> None:
        self.sim = sim
        self.station_id = station_id
        self.dcf = dcf
        self.ap_id = ap_id
        self.kind = kind
        self.qos = qos
        self.is_handoff = is_handoff
        self.handoff_time = handoff_time
        self.on_packet_outcome = on_packet_outcome
        #: lookahead applied when purging expired packets: a packet
        #: that cannot *finish* (poll + airtime) inside its deadline is
        #: already lost, so "delivered" strictly implies "on time"
        self.service_margin = service_margin

        self.state = RTState.EMPTY
        self.admitted = False
        self.eof = False  # the call has ended upstream
        #: fault injection: radio out (crash or freeze) — the station
        #: can neither hear polls nor transmit until fault_cleared()
        self.radio_down = False
        #: the AP evicted this session (missed-poll escalation); the
        #: station must re-request admission before transmitting again
        self.was_evicted = False
        self._crashed = False
        #: optional "is the stream still active?" probe (e.g. the voice
        #: source's talk-spurt flag).  While it returns True the station
        #: answers empty-buffer polls with a CF-Null carrying PGBK=1,
        #: keeping the AP's token pipeline alive across the small phase
        #: offsets between polls and packet arrivals.
        self.activity_probe: typing.Callable[[], bool] | None = None
        self.buffer: collections.deque[Packet] = collections.deque()
        self._last_arrival: float | None = None
        #: packets dropped because their deadline lapsed in the buffer
        self.deadline_drops = 0
        #: packets lost to channel errors during their polled slot
        self.error_losses = 0

    # -- traffic sink -----------------------------------------------------
    def packet_arrival(self, packet: Packet) -> None:
        """Sink handed to the traffic source."""
        if self.eof:
            return
        if self.radio_down and self._crashed:
            # device is rebooting: arrivals are lost outright
            packet.expired = True
            if self.on_packet_outcome is not None:
                self.on_packet_outcome(packet, False)
            return
        self.buffer.append(packet)
        self._last_arrival = packet.created
        if self.radio_down or self.state != RTState.EMPTY:
            # frozen radios cannot contend; queued packets age in place
            return
        if self.admitted:
            self._send_request(reactivation=True)
        elif self.was_evicted:
            # an evicted session must re-earn admission from scratch
            self._send_request(reactivation=False)

    # -- request path ---------------------------------------------------------
    def request_priority(self, reactivation: bool) -> int:
        """Backoff level for this station's requests (paper Table I)."""
        if self.is_handoff and not self.admitted:
            return LEVEL_HANDOFF
        if reactivation:
            return LEVEL_REACTIVATION
        return LEVEL_NEW_OR_DATA

    def start_admission_request(
        self, on_done: typing.Callable[[bool], None] | None = None
    ) -> None:
        """Contend with the initial connection request (new or handoff)."""
        if self.admitted:
            raise RuntimeError(f"{self.station_id} is already admitted")
        self.state = RTState.REQUEST
        self._send_request(reactivation=False, on_done=on_done)

    def _send_request(
        self,
        reactivation: bool,
        on_done: typing.Callable[[bool], None] | None = None,
    ) -> None:
        self.state = RTState.REQUEST
        frame = Frame(
            FrameType.REQUEST,
            src=self.station_id,
            dest=self.ap_id,
            info={
                "kind": self.kind,
                "qos": self.qos,
                "handoff": self.is_handoff,
                "handoff_time": self.handoff_time,
                "reactivation": reactivation,
            },
        )
        level = self.request_priority(reactivation)

        def done(success: bool) -> None:
            if not success and self.state == RTState.REQUEST:
                self.state = RTState.EMPTY
            if on_done is not None:
                on_done(success)

        self.dcf.enqueue(frame, level, done)

    # -- AP control plane -------------------------------------------------------
    def grant(self) -> None:
        """The AP admitted (or re-activated polling for) this station."""
        self.admitted = True
        self.was_evicted = False
        self.state = RTState.WAIT

    def deny(self) -> None:
        """The AP rejected the connection request."""
        self.state = RTState.EMPTY

    def end_call(self) -> None:
        """Upstream call termination; remaining buffer drains as EOF."""
        self.eof = True

    def evicted(self) -> None:
        """The AP dropped this session after consecutive missed polls.

        The token buffer and admitted bandwidth are gone; the station
        must contend for admission again before it is polled.
        """
        self.admitted = False
        self.was_evicted = True
        if self.state == RTState.WAIT:
            self.state = RTState.EMPTY

    # -- fault injection --------------------------------------------------
    def fault(self, crash: bool = False) -> None:
        """Take the radio down (idempotent while already down).

        ``crash=True`` models a device reboot: everything queued is
        lost and arrivals are discarded until recovery.  ``crash=False``
        is a freeze (radio mute): the codec keeps producing and packets
        queue — and age toward their deadlines — in place.
        """
        if self.radio_down:
            self._crashed = self._crashed or crash
            return
        self.radio_down = True
        self._crashed = crash
        if crash:
            while self.buffer:
                pkt = self.buffer.popleft()
                pkt.expired = True
                if self.on_packet_outcome is not None:
                    self.on_packet_outcome(pkt, False)

    def fault_cleared(self) -> None:
        """Radio back up: rejoin the BSS (no-op if it was never down).

        A station the AP still carries (it recovered before the missed-
        poll eviction) re-arms its token pipeline with a reactivation
        request; an evicted one contends for re-admission from scratch.
        """
        if not self.radio_down:
            return
        self.radio_down = False
        self._crashed = False
        self._purge_expired(self.sim.now)
        if self.eof:
            return
        backlog = bool(self.buffer) or self._still_active()
        if self.admitted:
            if backlog:
                self._send_request(reactivation=True)
        elif self.was_evicted and backlog:
            self._send_request(reactivation=False)

    # -- CFP poll response ---------------------------------------------------------
    def _purge_expired(self, now: float) -> None:
        while self.buffer and self.buffer[0].deadline is not None and (
            self.buffer[0].deadline <= now + self.service_margin
        ):
            pkt = self.buffer.popleft()
            pkt.expired = True
            self.deadline_drops += 1
            if self.on_packet_outcome is not None:
                self.on_packet_outcome(pkt, False)

    def _still_active(self) -> bool:
        return (
            not self.eof
            and self.activity_probe is not None
            and self.activity_probe()
        )

    def cf_response(self, now: float) -> Frame | None:
        """Uplink frame for a CF-Poll (None if nothing sendable)."""
        self._purge_expired(now)
        if not self.buffer:
            if self._still_active():
                # CF-Null with PGBK=1: "nothing right now, keep polling".
                # The station knows its own codec cadence, so it also
                # tells the AP when its next packet is due (TSPEC-style
                # signalling) — the AP re-phases its token to that ETA
                # instead of blindly hunting.
                next_eta = None
                rate = getattr(self.qos, "rate", None)
                if rate and self._last_arrival is not None:
                    next_eta = max(0.0, self._last_arrival + 1.0 / rate - now)
                return Frame(
                    FrameType.CF_DATA,
                    src=self.station_id,
                    dest=self.ap_id,
                    piggyback=True,
                    info={"eof": False, "backlog": False, "next_eta": next_eta},
                )
            if self.state == RTState.WAIT:
                self.state = RTState.EMPTY
            return None
        pkt = self.buffer.popleft()
        backlog = bool(self.buffer)
        piggyback = backlog or self._still_active()
        if not piggyback:
            self.state = RTState.EMPTY
        return Frame(
            FrameType.CF_DATA,
            src=self.station_id,
            dest=self.ap_id,
            payload_bits=pkt.bits,
            packet=pkt,
            piggyback=piggyback,
            info={"eof": self.eof and not self.buffer, "backlog": backlog},
        )

    def delivery_outcome(self, packet: Packet, ok: bool, now: float) -> None:
        """Called by the AP scheduler once the polled frame left the air."""
        if ok:
            packet.completed = now
        else:
            self.error_losses += 1
        if self.on_packet_outcome is not None:
            self.on_packet_outcome(packet, ok)


class DataStation:
    """Best-effort station: every data packet contends through DCF."""

    def __init__(
        self,
        sim: Simulator,
        station_id: str,
        dcf: DcfTransmitter,
        ap_id: str,
        on_packet_outcome: typing.Callable[[Packet, bool], None] | None = None,
    ) -> None:
        self.sim = sim
        self.station_id = station_id
        self.dcf = dcf
        self.ap_id = ap_id
        self.on_packet_outcome = on_packet_outcome
        self.delivered = 0
        self.dropped = 0

    def packet_arrival(self, packet: Packet) -> None:
        """Sink handed to the traffic source."""
        frame = Frame(
            FrameType.DATA,
            src=self.station_id,
            dest=self.ap_id,
            payload_bits=packet.bits,
            packet=packet,
        )

        def done(success: bool) -> None:
            if success:
                packet.completed = self.sim.now
                self.delivered += 1
            else:
                self.dropped += 1
            if self.on_packet_outcome is not None:
                self.on_packet_outcome(packet, success)

        self.dcf.enqueue(frame, LEVEL_NEW_OR_DATA, done)
