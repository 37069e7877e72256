"""PCF hardening: poll delivery, bounded re-poll, CF-End-loss fallback.

These drive the coordinator with a *scripted* error model (one verdict
per transmitted frame, in air order) so every corruption is placed
deterministically: beacon first, then the poll(s), responses, CF-End.
"""

import pytest

from repro.mac import Frame, FrameType, Nav, PcfCoordinator, PollAction
from repro.phy import Channel, PhyTiming
from repro.sim import Simulator


class ScriptedErrors:
    """Pops one scripted survival verdict per frame; defaults to True."""

    def __init__(self, script=()):
        self.script = list(script)

    def success_probability(self, frame_bits):
        return 1.0

    def frame_survives(self, frame_bits):
        return self.script.pop(0) if self.script else True


class Recorder:
    """Scheduler that polls a fixed action list and records outcomes."""

    def __init__(self, actions):
        self.actions = list(actions)
        self.responses = []

    def next_action(self, now, elapsed):
        return self.actions.pop(0) if self.actions else None

    def on_response(self, sid, frame, ok, now):
        self.responses.append((sid, frame, ok, now))


class Station:
    def __init__(self, sid, radio_down=False):
        self.sid = sid
        self.radio_down = radio_down
        self.polled_at = []

    def cf_response(self, now):
        self.polled_at.append(now)
        return Frame(FrameType.CF_DATA, src=self.sid, dest="ap",
                     payload_bits=4096, piggyback=False)


class World:
    def __init__(self, script=()):
        self.sim = Simulator()
        self.timing = PhyTiming()
        self.channel = Channel(self.sim, ScriptedErrors(script))
        self.nav = Nav()
        self.coord = PcfCoordinator(
            self.sim, self.channel, self.timing, self.nav, "ap"
        )

    def run_cfp(self, sched, stations=(), duration=0.05):
        for st in stations:
            self.coord.register(st.sid, st)
        ended = []
        self.coord.start_cfp(sched, duration, lambda: ended.append(self.sim.now))
        self.sim.run()
        return ended


class TestPollDelivery:
    def test_corrupted_poll_is_retransmitted_and_recovers(self):
        # air order: beacon ok, poll corrupted, retry ok, response ok...
        world = World(script=[True, False, True])
        sta = Station("s1")
        sched = Recorder([PollAction(("s1",))])
        world.run_cfp(sched, [sta])
        assert world.coord.stats.poll_retries.value == 1
        assert world.coord.stats.polls_lost.value == 0
        assert len(sta.polled_at) == 1  # only the delivered copy was heard
        (sid, frame, ok, _), = sched.responses
        assert sid == "s1" and ok and frame is not None

    def test_retry_budget_exhaustion_reports_abnormal_null(self):
        # beacon ok, then the poll and both retries corrupted
        world = World(script=[True, False, False, False])
        sta = Station("s1")
        sched = Recorder([PollAction(("s1",))])
        ended = world.run_cfp(sched, [sta])
        assert world.coord.stats.poll_retries.value == world.coord.max_poll_retries
        assert world.coord.stats.polls_lost.value == 1
        assert sta.polled_at == []  # the station never heard a thing
        (sid, frame, ok, _), = sched.responses
        assert (sid, frame, ok) == ("s1", None, False)
        assert ended  # the CFP still wound down cleanly

    def test_lost_multipoll_nulls_every_polled_station(self):
        world = World(script=[True, False, False, False])
        stations = [Station("s1"), Station("s2")]
        sched = Recorder([PollAction(("s1", "s2"))])
        world.run_cfp(sched, stations)
        assert world.coord.stats.polls_lost.value == 1
        assert [(r[0], r[2]) for r in sched.responses] == [
            ("s1", False), ("s2", False),
        ]
        assert all(st.polled_at == [] for st in stations)

    def test_retried_multipoll_recovers_all_responses(self):
        world = World(script=[True, False, True])
        stations = [Station("s1"), Station("s2")]
        sched = Recorder([PollAction(("s1", "s2"))])
        world.run_cfp(sched, stations)
        assert world.coord.stats.multipolls_sent.value == 1  # counted once
        assert world.coord.stats.poll_retries.value == 1
        assert [(r[0], r[2]) for r in sched.responses] == [
            ("s1", True), ("s2", True),
        ]

    def test_retransmission_waits_pifs(self):
        world = World(script=[True, False, True])
        sta = Station("s1")
        sched = Recorder([PollAction(("s1",))])
        world.run_cfp(sched, [sta])
        t = world.timing
        # heard poll = beacon + SIFS + poll (lost) + PIFS + poll (ok)
        beacon_done = t.pifs + t.beacon_time()
        expected = beacon_done + t.sifs + t.poll_time() + t.pifs + t.poll_time()
        assert sta.polled_at[0] == pytest.approx(expected + t.sifs, rel=1e-6)


class TestUnreachableStation:
    def test_radio_down_station_yields_abnormal_null(self):
        world = World()
        sta = Station("s1", radio_down=True)
        sched = Recorder([PollAction(("s1",))])
        world.run_cfp(sched, [sta])
        assert world.coord.stats.unreachable_nulls.value == 1
        assert world.coord.stats.null_responses.value == 0  # not a legit null
        assert sta.polled_at == []
        (sid, frame, ok, _), = sched.responses
        assert (sid, frame, ok) == ("s1", None, False)

    def test_cfp_continues_past_the_silent_station(self):
        world = World()
        down, up = Station("s1", radio_down=True), Station("s2")
        sched = Recorder([PollAction(("s1",)), PollAction(("s2",))])
        world.run_cfp(sched, [down, up])
        assert len(up.polled_at) == 1
        by_sid = {r[0]: r[2] for r in sched.responses}
        assert by_sid == {"s1": False, "s2": True}


class TestCfEndLoss:
    def script_cf_end_loss(self):
        # beacon ok, (no polls), CF-End corrupted
        return World(script=[True, False])

    def test_default_mode_idealizes_cf_end_delivery(self):
        world = self.script_cf_end_loss()
        ended = world.run_cfp(Recorder([]))
        assert world.coord.stats.cf_ends_lost.value == 0
        assert not world.nav.blocked(world.sim.now)
        assert ended

    def test_strict_mode_falls_back_to_nav_expiry(self):
        world = self.script_cf_end_loss()
        world.coord.strict_cf_end = True
        duration = 0.05
        ended = world.run_cfp(Recorder([]), duration=duration)
        assert world.coord.stats.cf_ends_lost.value == 1
        # the stations never heard the CF-End: their NAV holds until
        # the beacon's announced deadline, then contention resumes
        assert world.nav.blocked(world.sim.now)
        cfp_start = world.timing.pifs
        assert world.nav.until == pytest.approx(cfp_start + duration, rel=1e-6)
        assert ended and not world.coord.active

    def test_strict_mode_clears_nav_when_cf_end_arrives(self):
        world = World()  # nothing corrupted
        world.coord.strict_cf_end = True
        world.run_cfp(Recorder([]))
        assert world.coord.stats.cf_ends_lost.value == 0
        assert not world.nav.blocked(world.sim.now)
