"""Integration tests for the conventional 802.11 baseline AP."""

import pytest

from repro.baseline import ConventionalAccessPoint
from repro.baseline.conventional import SUPERFRAME
from repro.mac import DcfTransmitter, Nav, RealTimeStation, StandardBEB
from repro.phy import BitErrorModel, Channel, PhyTiming
from repro.sim import RandomStreams, Simulator
from repro.traffic import Packet, TrafficKind, VideoParams, VoiceParams


class World:
    def __init__(self, seed=0):
        self.sim = Simulator()
        self.timing = PhyTiming()
        self.streams = RandomStreams(seed)
        self.channel = Channel(self.sim, BitErrorModel(0.0, self.streams.get("ch")))
        self.nav = Nav()
        self.ap = ConventionalAccessPoint(
            self.sim, self.channel, self.timing, self.nav
        )

    def make_station(self, sid, qos=None, handoff=False):
        qos = qos or VoiceParams(rate=25, max_jitter=0.05, packet_bits=512 * 8)
        dcf = DcfTransmitter(
            self.sim, self.channel, self.timing, StandardBEB(8),
            self.streams.get(f"dcf/{sid}"), sid, self.nav,
        )
        sta = RealTimeStation(
            self.sim, sid, dcf, "ap", TrafficKind.VOICE, qos, is_handoff=handoff,
        )
        self.ap.register_station(sta)
        return sta

    def pkt(self, sid):
        return Packet(
            created=self.sim.now, bits=512 * 8, source_id=sid,
            kind=TrafficKind.VOICE, seq=0, deadline=self.sim.now + 1.0,
        )


def test_simple_admission_accepts_until_utilization_cap():
    w = World()
    sta = w.make_station("v0")
    sta.start_admission_request()
    w.sim.run(until=0.1)
    assert sta.admitted
    assert w.ap.admitted_count == 1


def test_admission_rejects_past_cfp_share():
    w = World()
    # capacity in packets/s is cfp_share / packet_time
    cap = w.ap.cfp_share / w.ap.packet_time
    heavy = VoiceParams(rate=cap * 0.7, max_jitter=0.05, packet_bits=512 * 8)
    a = w.make_station("a", qos=heavy)
    b = w.make_station("b", qos=heavy)
    a.start_admission_request()
    b.start_admission_request()
    w.sim.run(until=0.2)
    assert w.ap.blocked_new == 1
    assert a.admitted != b.admitted


def test_handoff_gets_no_special_treatment():
    """The conventional AP has no reservation: a handoff fails exactly
    where a new call would."""
    w = World()
    cap = w.ap.cfp_share / w.ap.packet_time
    heavy = VoiceParams(rate=cap * 0.7, max_jitter=0.05, packet_bits=512 * 8)
    a = w.make_station("a", qos=heavy)
    h = w.make_station("h", qos=heavy, handoff=True)
    a.start_admission_request()
    w.sim.run(until=0.1)
    h.start_admission_request()
    w.sim.run(until=0.3)
    assert w.ap.rejected_handoff == 1


def test_cfp_starts_only_on_superframe_boundary():
    w = World()
    sta = w.make_station("v0")
    sta.start_admission_request()
    starts = []
    orig = w.ap.coordinator.start_cfp

    def spy(scheduler, max_dur, on_end):
        starts.append(w.sim.now)
        orig(scheduler, max_dur, on_end)

    w.ap.coordinator.start_cfp = spy
    sta.buffer.append(w.pkt("v0"))
    w.sim.run(until=0.40)
    assert starts, "no CFP started"
    for t in starts:
        # boundaries are multiples of the superframe (seize adds < 1 ms)
        phase = t % SUPERFRAME
        assert phase < 0.002 or SUPERFRAME - phase < 0.002


def test_round_robin_serves_and_removes_drained_stations():
    w = World()
    a = w.make_station("a")
    b = w.make_station("b")
    for sta in (a, b):
        sta.start_admission_request()
    w.sim.run(until=0.1)
    pa, pb = w.pkt("a"), w.pkt("b")
    a.buffer.append(pa)
    b.buffer.append(pb)
    # stations signal pending traffic like admitted stations do
    w.ap.request_table.extend(s for s in ("a", "b") if s not in w.ap.request_table)
    w.sim.run(until=0.4)
    assert pa.completed is not None
    assert pb.completed is not None
    assert w.ap.request_table == []


def test_delay_includes_wait_for_superframe_boundary():
    """A packet arriving mid-CP waits for the next fixed CFP — the
    latency the proposed scheme's on-demand CFP removes."""
    w = World()
    sta = w.make_station("v0")
    sta.start_admission_request()
    w.sim.run(until=0.1)
    # place a packet right after a boundary: it waits ~a full superframe
    boundary = (int(w.sim.now / SUPERFRAME) + 1) * SUPERFRAME
    p = []

    def inject():
        pkt = w.pkt("v0")
        p.append(pkt)
        sta.buffer.append(pkt)
        if "v0" not in w.ap.request_table:
            w.ap.request_table.append("v0")

    w.sim.call_at(boundary + 0.002, inject)
    w.sim.run(until=boundary + 3 * SUPERFRAME)
    assert p[0].completed is not None
    assert p[0].access_delay() > 0.5 * SUPERFRAME


def test_departed_station_removed_everywhere():
    w = World()
    sta = w.make_station("v0")
    sta.start_admission_request()
    w.sim.run(until=0.1)
    w.ap.station_departed("v0")
    assert "v0" not in w.ap.admitted
    assert "v0" not in w.ap.request_table
    assert "v0" not in w.ap.coordinator.stations
    w.ap.station_departed("v0")  # idempotent


def test_unknown_qos_type_rejected():
    w = World()
    with pytest.raises(TypeError):
        w.ap._declared_rate("garbage")


def test_video_rate_uses_avg_rate():
    w = World()
    q = VideoParams(avg_rate=60, burstiness=5, max_delay=0.05)
    assert w.ap._declared_rate(q) == 60

