"""Integration tests for the call generator and handoff lifecycle."""

import pytest

from repro.core import QosAccessPoint, QosApConfig
from repro.mac import Nav, StandardBEB
from repro.metrics import MetricsCollector
from repro.network import CallGenerator, CallMixConfig
from repro.phy import BitErrorModel, Channel, PhyTiming
from repro.sim import RandomStreams, Simulator
from repro.traffic import VideoParams, VoiceParams

VOICE = VoiceParams(rate=25, max_jitter=0.03, packet_bits=512 * 8)
VIDEO = VideoParams(avg_rate=60, burstiness=6, max_delay=0.05, packet_bits=512 * 8)


def build(seed=0, **mix_kw):
    sim = Simulator()
    timing = PhyTiming()
    streams = RandomStreams(seed)
    channel = Channel(sim, BitErrorModel(0.0, streams.get("ch")))
    nav = Nav()
    ap = QosAccessPoint(sim, channel, timing, nav, config=QosApConfig())
    collector = MetricsCollector()
    defaults = dict(
        voice=VOICE, video=VIDEO,
        new_voice_rate=1.0, new_video_rate=0.0,
        handoff_voice_rate=0.0, handoff_video_rate=0.0,
        mean_holding=5.0,
    )
    defaults.update(mix_kw)
    mix = CallMixConfig(**defaults)
    gen = CallGenerator(
        sim, ap, channel, timing, nav, lambda: StandardBEB(8),
        streams, mix, collector,
    )
    return sim, ap, gen, collector


def test_new_calls_arrive_and_get_admitted():
    sim, ap, gen, collector = build()
    gen.start()
    sim.run(until=5.0)
    assert gen.attempts["new"] >= 2
    assert gen.admitted["new"] >= 1
    assert gen.concurrent_calls >= 1


def test_admitted_calls_generate_delivered_traffic():
    sim, ap, gen, collector = build()
    gen.start()
    sim.run(until=10.0)
    from repro.traffic import TrafficKind

    assert collector.delivered[TrafficKind.VOICE].value > 50


def test_calls_end_and_release_capacity():
    sim, ap, gen, collector = build(mean_holding=1.0)
    gen.start()
    sim.run(until=30.0)
    assert gen.completed >= 5
    # departures release admission slots: admitted never exceeds attempts
    assert len(ap.admission.voice_sessions) <= gen.concurrent_calls + 1


def test_handoff_admitted_counts_as_not_dropped():
    sim, ap, gen, collector = build(
        new_voice_rate=0.0, handoff_voice_rate=1.0
    )
    gen.start()
    sim.run(until=5.0)
    assert gen.attempts["handoff"] >= 2
    assert gen.admitted["handoff"] >= 1
    assert collector.dropping.total_trials == gen.attempts["handoff"] - (
        0 if all(c.resolved for c in gen.active.values()) else
        sum(1 for c in gen.active.values() if not c.resolved)
    )


def test_blocked_calls_are_torn_down():
    # voice too heavy for the channel: everything after the first blocks
    heavy = VoiceParams(rate=3000.0, max_jitter=0.004, packet_bits=512 * 8)
    sim, ap, gen, collector = build(voice=heavy, new_voice_rate=2.0)
    gen.start()
    sim.run(until=5.0)
    assert gen.blocked >= 1
    # blocked stations are unregistered from the AP
    assert len(ap.stations) == len([c for c in gen.active.values()])


def test_handoff_deadline_drops_unserved_requests():
    # make the admission impossible so the deadline must fire
    heavy = VoiceParams(rate=9000.0, max_jitter=0.004, packet_bits=512 * 8)
    sim, ap, gen, collector = build(
        voice=heavy, new_voice_rate=0.0, handoff_voice_rate=1.0,
        handoff_deadline=0.2,
    )
    gen.start()
    sim.run(until=5.0)
    assert gen.dropped >= 1
    assert collector.dropping.total_ratio() == 1.0


def test_voice_and_video_mixes_coexist():
    sim, ap, gen, collector = build(
        new_voice_rate=0.5, new_video_rate=0.5, mean_holding=10.0
    )
    gen.start()
    sim.run(until=15.0)
    from repro.traffic import TrafficKind

    assert collector.delivered[TrafficKind.VOICE].value > 0
    assert collector.delivered[TrafficKind.VIDEO].value > 0


def test_mix_config_validation():
    with pytest.raises(ValueError):
        CallMixConfig(voice=VOICE, video=VIDEO, new_voice_rate=-1)
    with pytest.raises(ValueError):
        CallMixConfig(voice=VOICE, video=VIDEO, mean_holding=0)
    with pytest.raises(ValueError):
        CallMixConfig(voice=VOICE, video=VIDEO, handoff_deadline=0)
    with pytest.raises(ValueError):
        CallMixConfig(voice=VOICE, video=VIDEO, handoff_time=-0.1)
