"""PCF behaviour under channel errors and multipoll edge cases."""

import pytest

from repro.mac import Frame, FrameType, PcfCoordinator, PollAction

from .conftest import MacWorld


class Responder:
    def __init__(self, sid, bits=4096):
        self.sid = sid
        self.bits = bits

    def cf_response(self, now):
        return Frame(FrameType.CF_DATA, src=self.sid, dest="ap",
                     payload_bits=self.bits, piggyback=False)


class Recorder:
    def __init__(self, actions):
        self.actions = list(actions)
        self.outcomes = []

    def next_action(self, now, elapsed):
        return self.actions.pop(0) if self.actions else None

    def on_response(self, sid, frame, ok, now):
        self.outcomes.append((sid, ok))


def test_corrupted_response_reported_not_ok():
    world = MacWorld(ber=5e-3, seed=2)  # ~every data frame dies
    coord = PcfCoordinator(world.sim, world.channel, world.timing,
                           world.nav, "ap")
    coord.register("s1", Responder("s1"))
    sched = Recorder([PollAction(("s1",))])
    coord.start_cfp(sched, 0.05, lambda: None)
    world.sim.run()
    assert sched.outcomes == [("s1", False)]


def test_multipoll_continues_past_corrupted_member():
    world = MacWorld(ber=5e-3, seed=2)
    coord = PcfCoordinator(world.sim, world.channel, world.timing,
                           world.nav, "ap")
    for sid in ("a", "b", "c"):
        coord.register(sid, Responder(sid))
    sched = Recorder([PollAction(("a", "b", "c"))])
    coord.start_cfp(sched, 0.05, lambda: None)
    world.sim.run()
    assert [sid for sid, _ in sched.outcomes] == ["a", "b", "c"]


def test_station_departing_during_poll_airtime_yields_null():
    """A call can tear down while its CF-Poll is already on the air;
    the coordinator treats the vanished station as a null response and
    the CFP proceeds."""
    world = MacWorld()
    coord = PcfCoordinator(world.sim, world.channel, world.timing,
                           world.nav, "ap")
    coord.register("a", Responder("a"))
    coord.register("b", Responder("b"))

    class DepartingScheduler(Recorder):
        def next_action(self, now, elapsed):
            action = super().next_action(now, elapsed)
            if action and action.station_ids == ("b",):
                # b's teardown timer fires while its poll is in flight
                world.sim.call_in(1e-5, coord.unregister, "b")
            return action

    sched = DepartingScheduler([PollAction(("a",)), PollAction(("b",))])
    coord.start_cfp(sched, 0.05, lambda: None)
    world.sim.run()
    assert sched.outcomes == [("a", True), ("b", True)]
    assert coord.stats.null_responses.value == 1
