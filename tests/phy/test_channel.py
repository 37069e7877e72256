"""Unit tests for the broadcast channel: sensing, collisions, delivery."""

import dataclasses

import numpy as np
import pytest

from repro.phy import BitErrorModel, Channel, ChannelListener
from repro.sim import Simulator


@dataclasses.dataclass
class FakeFrame:
    total_bits: int = 1000
    label: str = "f"


class Recorder(ChannelListener):
    def __init__(self, sim):
        self.sim = sim
        self.busy = []
        self.idle = []
        self.frames = []

    def on_medium_busy(self, now):
        self.busy.append(now)

    def on_medium_idle(self, now):
        self.idle.append(now)

    def on_frame(self, frame, ok, now):
        self.frames.append((frame.label, ok, now))


def make_channel(sim, ber=0.0, seed=0):
    return Channel(sim, BitErrorModel(ber, np.random.Generator(np.random.PCG64(seed))))


def test_idle_initially():
    sim = Simulator()
    ch = make_channel(sim)
    assert not ch.is_busy
    assert ch.idle_duration(0.0) == 0.0


def test_single_transmission_delivers_ok():
    sim = Simulator()
    ch = make_channel(sim)
    rx = Recorder(sim)
    tx_side = Recorder(sim)
    ch.attach(rx)
    ch.attach(tx_side)
    outcomes = []
    ch.transmit(FakeFrame(label="hello"), 1e-3, tx_side, outcomes.append)
    sim.run()
    (outcome,) = outcomes
    assert outcome.ok
    assert rx.frames == [("hello", True, pytest.approx(1e-3))]
    # sender does not hear its own frame
    assert tx_side.frames == []


def test_busy_idle_transitions():
    sim = Simulator()
    ch = make_channel(sim)
    rx = Recorder(sim)
    ch.attach(rx)
    ch.transmit(FakeFrame(), 2e-3, sender=None)
    sim.run()
    assert rx.busy == [0.0]
    assert rx.idle == [pytest.approx(2e-3)]
    assert not ch.is_busy
    assert ch.idle_since == pytest.approx(2e-3)


def test_overlapping_transmissions_collide_both():
    sim = Simulator()
    ch = make_channel(sim)
    rx = Recorder(sim)
    ch.attach(rx)
    outcomes = []

    def send(label, start, dur):
        def kickoff():
            ch.transmit(FakeFrame(label=label), dur, None, outcomes.append)

        sim.call_at(start, kickoff)

    send("a", 0.0, 3e-3)
    send("b", 1e-3, 3e-3)
    sim.run()
    assert all(o.collided for o in outcomes)
    assert [ok for (_, ok, _) in rx.frames] == [False, False]


def test_sequential_transmissions_do_not_collide():
    sim = Simulator()
    ch = make_channel(sim)
    outcomes = []

    def send(start, dur):
        def kickoff():
            ch.transmit(FakeFrame(), dur, None, outcomes.append)

        sim.call_at(start, kickoff)

    send(0.0, 1e-3)
    send(2e-3, 1e-3)
    sim.run()
    assert [o.collided for o in outcomes] == [False, False]


def test_three_way_collision_all_corrupted():
    sim = Simulator()
    ch = make_channel(sim)
    outcomes = []
    for _ in range(3):
        ch.transmit(FakeFrame(), 1e-3, None, outcomes.append)
    sim.run()
    assert len(outcomes) == 3
    assert all(o.collided for o in outcomes)


def test_busy_notification_only_on_first_and_idle_on_last():
    sim = Simulator()
    ch = make_channel(sim)
    rx = Recorder(sim)
    ch.attach(rx)
    ch.transmit(FakeFrame(), 2e-3, sender=None)
    sim.call_at(1e-3, lambda: ch.transmit(FakeFrame(), 2e-3, sender=None))
    sim.run()
    assert rx.busy == [0.0]
    assert rx.idle == [pytest.approx(3e-3)]


def test_idle_duration_tracks_time_since_last_end():
    sim = Simulator()
    ch = make_channel(sim)
    ch.transmit(FakeFrame(), 1e-3, sender=None)
    sim.run()
    assert ch.idle_duration(5e-3) == pytest.approx(4e-3)


def test_ber_corrupts_frames_without_collision():
    sim = Simulator()
    # BER high enough that a 1000-bit frame virtually never survives.
    ch = make_channel(sim, ber=0.01, seed=1)
    rx = Recorder(sim)
    ch.attach(rx)
    outcomes = []
    ch.transmit(FakeFrame(total_bits=1000), 1e-3, None, outcomes.append)
    sim.run()
    (outcome,) = outcomes
    assert not outcome.collided
    assert outcome.bit_errors
    assert not outcome.ok


def test_utilization_accounting():
    sim = Simulator()
    ch = make_channel(sim)
    ch.transmit(FakeFrame(), 2e-3, sender=None)
    sim.run()
    sim.call_at(10e-3, lambda: None)
    sim.run()
    assert ch.utilization(10e-3) == pytest.approx(0.2)


def test_zero_duration_rejected():
    sim = Simulator()
    ch = make_channel(sim)
    with pytest.raises(ValueError):
        ch.transmit(FakeFrame(), 0.0, sender=None)


def test_nan_duration_rejected():
    sim = Simulator()
    ch = make_channel(sim)
    with pytest.raises(ValueError, match="nan"):
        ch.transmit(FakeFrame(), float("nan"), sender=None)
    assert not ch.is_busy


def test_attach_twice_rejected():
    sim = Simulator()
    ch = make_channel(sim)
    rx = Recorder(sim)
    ch.attach(rx)
    with pytest.raises(ValueError):
        ch.attach(rx)


def test_detach_stops_callbacks():
    sim = Simulator()
    ch = make_channel(sim)
    rx = Recorder(sim)
    ch.attach(rx)
    ch.detach(rx)
    ch.transmit(FakeFrame(), 1e-3, sender=None)
    sim.run()
    assert rx.frames == []
    assert rx.busy == []


def test_inherited_noop_callbacks_are_left_out_of_the_fanout(monkeypatch):
    calls = []
    # counted stand-ins for the no-ops, patched on the base class the
    # way a profiling wrapper would be
    monkeypatch.setattr(ChannelListener, "on_medium_busy",
                        lambda self, now: calls.append(("noop busy", self)))
    monkeypatch.setattr(ChannelListener, "on_medium_idle",
                        lambda self, now: calls.append(("noop idle", self)))
    monkeypatch.setattr(ChannelListener, "on_frame",
                        lambda self, frame, ok, now: calls.append(("noop frame", self)))

    class FramesOnly(ChannelListener):
        def on_frame(self, frame, ok, now):
            calls.append(("frame", self))

    class CarrierOnly(ChannelListener):
        def on_medium_busy(self, now):
            calls.append(("busy", self))

        def on_medium_idle(self, now):
            calls.append(("idle", self))

    sim = Simulator()
    ch = make_channel(sim)
    quiet, carrier, rec = FramesOnly(), CarrierOnly(), Recorder(sim)
    ch.attach(quiet)
    ch.attach(carrier)
    ch.attach(rec)
    ch.transmit(FakeFrame(), 1e-3, sender=None)
    sim.run()
    assert calls == [("busy", carrier), ("frame", quiet), ("idle", carrier)]
    assert rec.busy == [0.0] and rec.idle == [pytest.approx(1e-3)]
    assert rec.frames == [("f", True, pytest.approx(1e-3))]
