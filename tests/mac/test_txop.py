"""Tests for HCF-style TXOP bursts in the PCF coordinator."""

import pytest

from repro.mac import Frame, FrameType, PcfCoordinator, PollAction


class BurstStation:
    """Holds a queue of packets; responds like a real-time station."""

    def __init__(self, sid, packets):
        self.sid = sid
        self.packets = packets
        self.responses = 0

    def cf_response(self, now):
        if not self.packets:
            return None
        self.packets -= 1
        self.responses += 1
        return Frame(
            FrameType.CF_DATA, src=self.sid, dest="ap", payload_bits=4096,
            piggyback=self.packets > 0,
            info={"backlog": self.packets > 0, "eof": False},
        )


class OnePollScheduler:
    def __init__(self, sid):
        self.sid = sid
        self.polled = False
        self.responses = []

    def next_action(self, now, elapsed):
        if self.polled:
            return None
        self.polled = True
        return PollAction((self.sid,))

    def on_response(self, sid, frame, ok, now):
        self.responses.append((sid, frame, now))


def make_coord(world, txop):
    return PcfCoordinator(
        world.sim, world.channel, world.timing, world.nav, "ap",
        txop_packets=txop,
    )


def test_txop_one_is_classic_pcf(world):
    coord = make_coord(world, txop=1)
    sta = BurstStation("s1", packets=5)
    coord.register("s1", sta)
    sched = OnePollScheduler("s1")
    coord.start_cfp(sched, 0.05, lambda: None)
    world.sim.run()
    assert sta.responses == 1  # one frame per poll
    assert coord.stats.polls_sent.value == 1


def test_txop_burst_drains_backlog_on_single_poll(world):
    coord = make_coord(world, txop=4)
    sta = BurstStation("s1", packets=5)
    coord.register("s1", sta)
    sched = OnePollScheduler("s1")
    coord.start_cfp(sched, 0.05, lambda: None)
    world.sim.run()
    assert sta.responses == 4  # capped by the TXOP
    assert coord.stats.polls_sent.value == 1
    assert len(sched.responses) == 4


def test_txop_stops_early_when_backlog_empties(world):
    coord = make_coord(world, txop=8)
    sta = BurstStation("s1", packets=3)
    coord.register("s1", sta)
    sched = OnePollScheduler("s1")
    coord.start_cfp(sched, 0.05, lambda: None)
    world.sim.run()
    assert sta.responses == 3


def test_txop_responses_sifs_separated(world):
    coord = make_coord(world, txop=3)
    sta = BurstStation("s1", packets=3)
    coord.register("s1", sta)
    sched = OnePollScheduler("s1")
    coord.start_cfp(sched, 0.05, lambda: None)
    world.sim.run()
    times = [t for (_, _, t) in sched.responses]
    t = world.timing
    frame_time = t.frame_airtime(4096)
    for a, b in zip(times, times[1:]):
        assert b - a == pytest.approx(t.sifs + frame_time, rel=1e-6)


def test_txop_cheaper_than_repolling(world):
    """Draining k packets via TXOP must beat k single polls."""

    def run(txop):
        from .conftest import MacWorld

        w = MacWorld()
        coord = PcfCoordinator(
            w.sim, w.channel, w.timing, w.nav, "ap", txop_packets=txop
        )
        sta = BurstStation("s1", packets=4)
        coord.register("s1", sta)

        class Repoll:
            def next_action(self, now, elapsed):
                return PollAction(("s1",)) if sta.packets else None

            def on_response(self, sid, frame, ok, now):
                pass

        coord.start_cfp(Repoll(), 0.05, lambda: None)
        w.sim.run()
        return coord.stats.cfp_time.value

    assert run(txop=4) < run(txop=1)


def test_invalid_txop_rejected(world):
    with pytest.raises(ValueError):
        make_coord(world, txop=0)
