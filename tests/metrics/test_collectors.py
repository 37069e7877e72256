"""Unit tests for the scenario metrics collector."""

import pytest

from repro.metrics import MetricsCollector
from repro.traffic import Packet, TrafficKind


def pkt(created=1.0, completed=None, bits=4096, sid="voice/0",
        kind=TrafficKind.VOICE):
    p = Packet(created=created, bits=bits, source_id=sid, kind=kind, seq=0)
    p.completed = completed
    return p


def test_delivered_packet_updates_delay_stats():
    c = MetricsCollector()
    c.packet_outcome(pkt(1.0, 1.01), True)
    assert c.delivered[TrafficKind.VOICE].value == 1
    assert c.access_delay[TrafficKind.VOICE].mean == pytest.approx(0.01)
    assert c.useful_bits == 4096


def test_lost_packet_counts_as_loss():
    c = MetricsCollector()
    c.packet_outcome(pkt(1.0), False)
    assert c.losses[TrafficKind.VOICE].value == 1
    assert c.loss_rate(TrafficKind.VOICE) == 1.0


def test_warmup_filters_early_packets():
    c = MetricsCollector(warmup=5.0)
    c.packet_outcome(pkt(1.0, 1.01), True)
    assert c.delivered[TrafficKind.VOICE].value == 0
    c.packet_outcome(pkt(6.0, 6.01), True)
    assert c.delivered[TrafficKind.VOICE].value == 1


def test_voice_jitter_tracked_per_source():
    c = MetricsCollector()
    c.packet_outcome(pkt(1.00, 1.001, sid="a"), True)
    c.packet_outcome(pkt(1.02, 1.025, sid="a"), True)
    c.packet_outcome(pkt(1.00, 1.001, sid="b"), True)
    assert "a" in c.jitter and "b" in c.jitter
    assert c.worst_jitter() == pytest.approx(0.004)


def test_video_max_delay_tracked():
    c = MetricsCollector()
    c.packet_outcome(pkt(1.0, 1.03, sid="video/1", kind=TrafficKind.VIDEO), True)
    c.packet_outcome(pkt(2.0, 2.01, sid="video/1", kind=TrafficKind.VIDEO), True)
    assert c.worst_delay("video") == pytest.approx(0.03)
    assert c.worst_delay("data") == 0.0


def test_call_outcomes_counted():
    c = MetricsCollector()
    c.handoff_outcome(dropped=True, now=1.0)
    c.handoff_outcome(dropped=False, now=2.0)
    c.newcall_outcome(blocked=False, now=3.0)
    assert c.dropping.total_ratio() == pytest.approx(0.5)
    assert c.blocking.total_ratio() == 0.0


def test_call_outcomes_respect_warmup():
    c = MetricsCollector(warmup=10.0)
    c.handoff_outcome(dropped=True, now=1.0)
    assert c.dropping.total_trials == 0


def test_adaptation_sample_ages_window():
    c = MetricsCollector()
    c.handoff_outcome(dropped=True, now=1.0)
    drop, block, util = c.adaptation_sample(0.4)
    assert drop == 1.0 and util == 0.4
    # aged but remembered
    drop2, _, _ = c.adaptation_sample(0.4)
    assert drop2 == pytest.approx(1.0)


def test_utilization_computation():
    c = MetricsCollector()
    c.packet_outcome(pkt(1.0, 1.01, bits=11_000_000), True)
    assert c.utilization(1.0, 11e6) == pytest.approx(1.0)
    assert c.utilization(0.0, 11e6) == 0.0


def test_summary_contains_everything():
    c = MetricsCollector()
    c.packet_outcome(pkt(1.0, 1.01), True)
    s = c.summary()
    assert s["voice_delivered"] == 1
    assert "dropping_probability" in s
    assert "worst_voice_jitter" in s
    assert s["voice_delay_mean"] == pytest.approx(0.01)
