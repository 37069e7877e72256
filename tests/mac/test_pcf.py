"""Unit tests for the PCF coordinator."""

import pytest

from repro.mac import Frame, FrameType, PcfCoordinator, PollAction


class ScriptedScheduler:
    """Polls a fixed sequence of actions, then ends the CFP."""

    def __init__(self, actions):
        self.actions = list(actions)
        self.responses = []

    def next_action(self, now, elapsed):
        if not self.actions:
            return None
        return self.actions.pop(0)

    def on_response(self, station_id, frame, ok, now):
        self.responses.append((station_id, frame, ok, now))


class EchoStation:
    """Responds to every poll with a fixed-size CF-Data frame."""

    def __init__(self, sid, bits=4096, responses=None):
        self.sid = sid
        self.bits = bits
        self.remaining = responses  # None = unlimited
        self.polled_at = []

    def cf_response(self, now):
        self.polled_at.append(now)
        if self.remaining is not None:
            if self.remaining == 0:
                return None
            self.remaining -= 1
        return Frame(FrameType.CF_DATA, src=self.sid, dest="ap",
                     payload_bits=self.bits, piggyback=False)


def make_coord(world):
    return PcfCoordinator(world.sim, world.channel, world.timing, world.nav, "ap")


def test_cfp_beacon_poll_response_cfend(world):
    coord = make_coord(world)
    sta = EchoStation("s1")
    coord.register("s1", sta)
    sched = ScriptedScheduler([PollAction(("s1",))])
    ended = []
    coord.start_cfp(sched, 0.05, lambda: ended.append(world.sim.now))
    world.sim.run()
    assert len(sta.polled_at) == 1
    assert len(sched.responses) == 1
    sid, frame, ok, _ = sched.responses[0]
    assert sid == "s1" and ok and frame.payload_bits == 4096
    assert ended and ended[0] > 0
    assert coord.stats.polls_sent.value == 1
    assert coord.stats.cfps_started.value == 1
    assert not coord.active


def test_cfp_seizes_at_pifs(world):
    coord = make_coord(world)
    sched = ScriptedScheduler([])
    coord.start_cfp(sched, 0.05, lambda: None)
    world.sim.run()
    # beacon started exactly PIFS after the idle medium start (t=0)
    # CF-End follows beacon + SIFS; total time sanity:
    t = world.timing
    assert coord.stats.cfp_time.value == pytest.approx(
        t.beacon_time() + t.sifs + t.poll_time(), rel=1e-6
    )


def test_nav_set_during_cfp_and_cleared_after(world):
    coord = make_coord(world)
    sta = EchoStation("s1")
    coord.register("s1", sta)
    sched = ScriptedScheduler([PollAction(("s1",))])
    nav_during = []

    def probe():
        nav_during.append(world.nav.blocked(world.sim.now))

    world.sim.call_at(0.001, probe)
    coord.start_cfp(sched, 0.05, lambda: None)
    world.sim.run()
    assert nav_during == [True]
    assert not world.nav.blocked(world.sim.now)


def test_multipoll_single_frame_multiple_responses(world):
    coord = make_coord(world)
    stations = [EchoStation(f"s{i}") for i in range(3)]
    for s in stations:
        coord.register(s.sid, s)
    sched = ScriptedScheduler([PollAction(("s0", "s1", "s2"))])
    coord.start_cfp(sched, 0.05, lambda: None)
    world.sim.run()
    assert coord.stats.multipolls_sent.value == 1
    assert coord.stats.polls_sent.value == 0
    assert [r[0] for r in sched.responses] == ["s0", "s1", "s2"]
    # responses are ordered in time
    times = [r[3] for r in sched.responses]
    assert times == sorted(times)


def test_multipoll_cheaper_than_single_polls(world):
    # time for 3 single polls vs one multipoll of 3
    t = world.timing
    single = 3 * (t.poll_time() + 2 * t.sifs + t.frame_airtime(4096))
    multi = t.poll_time(extra_payload_bits=48) + 3 * (
        t.sifs + t.frame_airtime(4096) + t.sifs
    )
    assert multi < single


def test_null_response_advances_after_pifs(world):
    coord = make_coord(world)
    sta = EchoStation("s1", responses=0)
    coord.register("s1", sta)
    sched = ScriptedScheduler([PollAction(("s1",))])
    coord.start_cfp(sched, 0.05, lambda: None)
    world.sim.run()
    assert coord.stats.null_responses.value == 1
    assert sched.responses[0][1] is None


def test_budget_ends_cfp_early(world):
    coord = make_coord(world)
    sta = EchoStation("s1", bits=1500 * 8)
    coord.register("s1", sta)
    # endless polling of the same station; tight budget cuts it off
    class Endless:
        def __init__(self):
            self.responses = 0

        def next_action(self, now, elapsed):
            return PollAction(("s1",))

        def on_response(self, sid, frame, ok, now):
            self.responses += 1

    sched = Endless()
    budget = 0.01
    coord.start_cfp(sched, budget, lambda: None)
    world.sim.run()
    assert coord.stats.cfp_time.value <= budget + 1e-9
    assert sched.responses >= 1


def test_poll_unregistered_station_degrades_to_abnormal_null(world):
    # a scheduler naming a departed station must not crash the sim:
    # the coordinator reports an abnormal null (ok=False) and moves on
    coord = make_coord(world)
    sched = ScriptedScheduler([PollAction(("ghost",))])
    coord.start_cfp(sched, 0.05, lambda: None)
    world.sim.run()
    assert coord.stats.ghost_polls.value == 1
    assert coord.stats.polls_sent.value == 0
    assert sched.responses == [("ghost", None, False, sched.responses[0][3])]


def test_ghost_station_filtered_out_of_multipoll(world):
    coord = make_coord(world)
    sta = EchoStation("s1")
    coord.register("s1", sta)
    sched = ScriptedScheduler([PollAction(("ghost", "s1"))])
    coord.start_cfp(sched, 0.05, lambda: None)
    world.sim.run()
    assert coord.stats.ghost_polls.value == 1
    # the survivor was still polled (as a single poll, not a multipoll)
    assert coord.stats.polls_sent.value == 1
    assert coord.stats.multipolls_sent.value == 0
    by_sid = {r[0]: r for r in sched.responses}
    assert by_sid["ghost"][1] is None and by_sid["ghost"][2] is False
    assert by_sid["s1"][1] is not None


def test_overlapping_cfp_rejected(world):
    coord = make_coord(world)
    coord.start_cfp(ScriptedScheduler([]), 0.05, lambda: None)
    with pytest.raises(RuntimeError):
        coord.start_cfp(ScriptedScheduler([]), 0.05, lambda: None)


def test_invalid_duration_rejected(world):
    coord = make_coord(world)
    with pytest.raises(ValueError):
        coord.start_cfp(ScriptedScheduler([]), 0.0, lambda: None)


def test_cfp_defers_to_busy_medium(world):
    coord = make_coord(world)
    # occupy the medium first
    frame = Frame(FrameType.DATA, src="x", dest="y", payload_bits=80_000)
    world.channel.transmit(frame, 0.01, sender=None)
    sched = ScriptedScheduler([])
    started = []
    coord.start_cfp(sched, 0.05, lambda: started.append(world.sim.now))
    world.sim.run()
    # the CFP could only begin PIFS after the busy period ended
    assert started[0] >= 0.01 + world.timing.pifs


def test_unregister_is_idempotent(world):
    coord = make_coord(world)
    coord.register("s1", EchoStation("s1"))
    coord.unregister("s1")
    coord.unregister("s1")
    assert "s1" not in coord.stations


def test_poll_action_requires_stations():
    with pytest.raises(ValueError):
        PollAction(())
