"""Integration tests for the QoS access point (request → admit → poll)."""

import pytest

from repro.core import QosAccessPoint, QosApConfig
from repro.core.qos_ap import SUPERFRAME
from repro.mac import DcfTransmitter, Nav, RealTimeStation, RTState, StandardBEB
from repro.phy import BitErrorModel, Channel, PhyTiming
from repro.sim import RandomStreams, Simulator
from repro.traffic import Packet, TrafficKind, VideoParams, VoiceParams


class World:
    def __init__(self, seed=0, **ap_kw):
        self.sim = Simulator()
        self.timing = PhyTiming()
        self.streams = RandomStreams(seed)
        self.channel = Channel(self.sim, BitErrorModel(0.0, self.streams.get("ch")))
        self.nav = Nav()
        self.ap = QosAccessPoint(
            self.sim, self.channel, self.timing, self.nav,
            config=QosApConfig(**ap_kw),
        )

    def make_station(self, sid, kind=TrafficKind.VOICE, qos=None, handoff=False):
        qos = qos or VoiceParams(rate=25, max_jitter=0.03, packet_bits=512 * 8)
        dcf = DcfTransmitter(
            self.sim, self.channel, self.timing, StandardBEB(8),
            self.streams.get(f"dcf/{sid}"), sid, self.nav,
        )
        sta = RealTimeStation(
            self.sim, sid, dcf, "ap", kind, qos, is_handoff=handoff,
        )
        self.ap.register_station(sta)
        return sta

    def pkt(self, sid, deadline_in=0.03):
        return Packet(
            created=self.sim.now, bits=512 * 8, source_id=sid,
            kind=TrafficKind.VOICE, seq=0, deadline=self.sim.now + deadline_in,
        )


def test_request_admission_grant_flow():
    w = World()
    sta = w.make_station("v0")
    sta.start_admission_request()
    w.sim.run(until=0.1)
    assert sta.admitted
    assert sta.state in (RTState.WAIT, RTState.EMPTY)
    assert w.ap.admitted_new.value == 1
    assert w.ap.admission.find("v0") is not None
    assert w.ap.policy.get("v0") is not None


def test_admitted_station_gets_polled_and_delivers():
    w = World()
    sta = w.make_station("v0")
    sta.start_admission_request()
    w.sim.run(until=0.05)
    p = w.pkt("v0")
    sta.buffer.append(p)
    w.ap.policy.grant_token("v0")
    w.sim.run(until=0.2)
    assert p.completed is not None
    assert p.access_delay() < 0.05


def test_overloaded_admission_blocks_and_denies():
    w = World()
    heavy = VoiceParams(rate=2000.0, max_jitter=0.005, packet_bits=512 * 8)
    a = w.make_station("a", qos=heavy)
    b = w.make_station("b", qos=heavy)
    a.start_admission_request()
    b.start_admission_request()
    w.sim.run(until=0.2)
    assert w.ap.blocked_new.value >= 1
    assert not (a.admitted and b.admitted)
    denied = b if a.admitted else a
    assert denied.state == RTState.EMPTY


def test_handoff_rejection_counted_separately():
    w = World()
    heavy = VoiceParams(rate=5000.0, max_jitter=0.004, packet_bits=512 * 8)
    h = w.make_station("h", qos=heavy, handoff=True)
    h.start_admission_request()
    w.sim.run(until=0.2)
    assert w.ap.rejected_handoff.value == 1
    assert w.ap.blocked_new.value == 0


def test_duplicate_request_is_idempotent():
    w = World()
    sta = w.make_station("v0")
    sta.start_admission_request()
    w.sim.run(until=0.05)
    # lost-ACK path: the same station requests again
    sta.admitted = False
    sta.start_admission_request()
    w.sim.run(until=0.1)
    assert sta.admitted
    assert w.ap.admitted_new.value == 1  # no double admission
    assert len(w.ap.admission.voice_sessions) == 1


def test_reactivation_grants_token_without_readmission():
    w = World()
    sta = w.make_station("v0")
    sta.start_admission_request()
    w.sim.run(until=0.05)
    # drain the initial token
    w.ap.policy.get("v0").has_token = False
    # arrival into an EMPTY admitted station fires a reactivation request
    sta.state = RTState.EMPTY
    sta.packet_arrival(w.pkt("v0", deadline_in=1.0))
    w.sim.run(until=0.2)
    assert w.ap.reactivations.value >= 1
    assert w.ap.admitted_new.value == 1


def test_departed_station_fully_cleaned_up():
    w = World()
    sta = w.make_station("v0")
    sta.start_admission_request()
    w.sim.run(until=0.05)
    w.ap.station_departed("v0")
    assert w.ap.admission.find("v0") is None
    assert w.ap.policy.get("v0") is None
    assert "v0" not in w.ap.coordinator.stations
    w.ap.station_departed("v0")  # idempotent


def test_cfp_respects_min_cp_guarantee():
    w = World()
    sta = w.make_station("v0")
    sta.start_admission_request()
    w.sim.run(until=0.05)
    # Two CFPs cannot be back-to-back: the channel III share separates them
    starts = []
    orig = w.ap.coordinator.start_cfp

    def spy(scheduler, max_dur, on_end):
        starts.append(w.sim.now)
        orig(scheduler, max_dur, on_end)

    w.ap.coordinator.start_cfp = spy
    for i in range(5):
        w.sim.call_at(0.06 + i * 0.001, w.ap.policy.grant_token, "v0")
    w.sim.run(until=0.4)
    assert len(starts) >= 2
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    assert all(g > 0 for g in gaps)


def test_feedback_drives_bandwidth_updates():
    calls = []

    def feedback():
        calls.append(True)
        return (0.0, 0.5, 0.3)

    sim = Simulator()
    streams = RandomStreams(0)
    channel = Channel(sim, BitErrorModel(0.0, streams.get("ch")))
    ap = QosAccessPoint(
        sim, channel, PhyTiming(), Nav(),
        config=QosApConfig(adaptation_interval=0.5),
        feedback=feedback,
    )
    before = ap.bandwidth.share_i
    sim.run(until=2.1)
    assert len(calls) == 4
    assert ap.bandwidth.share_i > before  # blocking pushed channel I up


def test_video_admission_creates_token_latency():
    w = World()
    vq = VideoParams(avg_rate=60, burstiness=6, max_delay=0.05,
                     packet_bits=512 * 8)
    sta = w.make_station("d0", kind=TrafficKind.VIDEO, qos=vq)
    sta.start_admission_request()
    w.sim.run(until=0.1)
    session = w.ap.admission.find("d0")
    assert session is not None and not session.is_voice
    assert session.token_latency > 0


def test_budget_prefers_nonhandoff_in_channel_i():
    w = World()
    # a non-handoff session: eligible only while channel-I budget remains
    sta = w.make_station("v0")
    sta.start_admission_request()
    w.sim.run(until=0.05)
    session = w.ap.admission.find("v0")
    # exhaust channel I
    w.ap._used_new = w.ap.bandwidth.share_i * SUPERFRAME
    assert not w.ap._budget_allows(session)
    w.ap._used_new = 0.0
    assert w.ap._budget_allows(session)


def test_handoff_budget_spans_channel_ii_plus_spare_i():
    w = World()
    h = w.make_station("h0", handoff=True)
    h.start_admission_request()
    w.sim.run(until=0.05)
    session = w.ap.admission.find("h0")
    assert session.handoff
    # channel II exhausted but channel I spare: still pollable
    w.ap._used_handoff = w.ap.bandwidth.share_ii * SUPERFRAME
    w.ap._used_new = 0.0
    assert w.ap._budget_allows(session)
    # both exhausted: not pollable
    w.ap._used_new = w.ap.bandwidth.share_i * SUPERFRAME
    assert not w.ap._budget_allows(session)


def test_config_validation():
    with pytest.raises(ValueError):
        QosApConfig(multipoll_size=0)
    with pytest.raises(ValueError):
        QosApConfig(adaptation_interval=-1)
