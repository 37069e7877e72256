"""Unit tests for the DCF CSMA/CA engine."""

import dataclasses
import hashlib

import pytest

from repro.core.adaptive_cw import AdaptiveCW
from repro.core.edcf import AifsDifferentiation
from repro.mac import DcfTransmitter, Frame, FrameType, Nav, StandardBEB
from repro.mac.backoff import LEVEL_NEW_OR_DATA
from repro.phy import ChannelListener, PhyTiming

from .conftest import DrawOnlyBackoff, FixedBackoff, MacWorld


@pytest.fixture
def backoff():
    """The scripted policy of the contention tests below.

    :class:`FixedBackoff` observes slots, so every busy transition
    reports to it; :class:`TestOnTheSlotClock` reruns the tests with a
    policy that observes nothing.
    """
    return FixedBackoff


def make_tx(world, sid="sta", slots=(0,), retry_limit=7, policy_cls=FixedBackoff):
    policy = policy_cls(list(slots))
    tx = DcfTransmitter(
        world.sim,
        world.channel,
        world.timing,
        policy,
        world.rng(sid),
        sid,
        world.nav,
        retry_limit=retry_limit,
    )
    return tx, policy


def data_frame(sid, bits=8000, dest="ap"):
    return Frame(FrameType.DATA, src=sid, dest=dest, payload_bits=bits)


class Air(ChannelListener):
    """Logs every finished frame as ``(start ms, type, src, ok)``."""

    def __init__(self, world):
        self.frames = []
        self._timing = world.timing
        world.channel.attach(self)

    def on_frame(self, frame, ok, now):
        start = now - frame.airtime(self._timing)
        self.frames.append((round(start * 1e3, 3), frame.ftype.name, frame.src, ok))


def contend(world, policies):
    """One DCF per ``sid -> policy``, each enqueueing one DATA frame at 0.

    Returns the transmitters and the ``(sid, ok, done at ms)`` log.
    """
    txs, done = {}, []
    for sid, policy in policies.items():
        txs[sid] = DcfTransmitter(world.sim, world.channel, world.timing, policy,
                                  world.rng(sid), sid, world.nav)
    for sid, tx in txs.items():
        tx.enqueue(data_frame(sid), LEVEL_NEW_OR_DATA,
                   lambda ok, sid=sid: done.append((sid, ok, round(world.sim.now * 1e3, 6))))
    return txs, done


def test_single_station_immediate_access_succeeds(world):
    tx, _ = make_tx(world)
    results = []
    # make the medium idle for longer than DIFS before the frame arrives
    world.sim.call_at(1.0, lambda: tx.enqueue(data_frame("sta"), LEVEL_NEW_OR_DATA,
                                              results.append))
    world.sim.run()
    assert results == [True]
    assert tx.stats.attempts == 1
    assert tx.stats.successes == 1


def test_exchange_duration_matches_data_plus_sifs_plus_ack(world):
    tx, _ = make_tx(world)
    t = world.timing
    done_at = []
    world.sim.call_at(1.0, lambda: tx.enqueue(data_frame("sta", bits=8000),
                                              LEVEL_NEW_OR_DATA,
                                              lambda ok: done_at.append(world.sim.now)))
    world.sim.run()
    expected = 1.0 + t.frame_airtime(8000) + t.sifs + t.ack_time()
    assert done_at[0] == pytest.approx(expected, rel=1e-9)


def test_backoff_slots_delay_transmission(world):
    # Station starts at t=0 when the medium has been idle since t=0:
    # idle_duration < DIFS so no immediate access; 5 slots of backoff.
    tx, _ = make_tx(world, slots=(5,))
    done_at = []
    tx.enqueue(data_frame("sta"), LEVEL_NEW_OR_DATA,
               lambda ok: done_at.append(world.sim.now))
    world.sim.run()
    t = world.timing
    start = t.difs + 5 * t.slot
    expected = start + t.frame_airtime(8000) + t.sifs + t.ack_time()
    assert done_at[0] == pytest.approx(expected, rel=1e-9)


def test_two_stations_same_slot_collide_then_retry(world, backoff):
    # Both pick slot 2 initially -> collision; retries pick 1 and 4.
    tx_a, pol_a = make_tx(world, "a", slots=[2, 1], policy_cls=backoff)
    tx_b, pol_b = make_tx(world, "b", slots=[2, 4], policy_cls=backoff)
    results = {}
    tx_a.enqueue(data_frame("a"), LEVEL_NEW_OR_DATA, lambda ok: results.setdefault("a", ok))
    tx_b.enqueue(data_frame("b"), LEVEL_NEW_OR_DATA, lambda ok: results.setdefault("b", ok))
    world.sim.run()
    assert results == {"a": True, "b": True}
    assert tx_a.stats.failures == 1
    assert tx_b.stats.failures == 1
    assert tx_a.stats.successes == 1
    assert tx_b.stats.successes == 1
    # retry draws used stage 1
    assert pol_a.draws[1][1] == 1
    assert pol_b.draws[1][1] == 1


def test_loser_freezes_and_resumes_backoff(world, backoff):
    # a picks 1 slot, b picks 4; a transmits first, b freezes with 3 left
    # and resumes after a's exchange, transmitting without a new draw.
    tx_a, _ = make_tx(world, "a", slots=[1], policy_cls=backoff)
    tx_b, pol_b = make_tx(world, "b", slots=[4], policy_cls=backoff)
    order = []
    tx_a.enqueue(data_frame("a"), LEVEL_NEW_OR_DATA, lambda ok: order.append(("a", ok)))
    tx_b.enqueue(data_frame("b"), LEVEL_NEW_OR_DATA, lambda ok: order.append(("b", ok)))
    world.sim.run()
    assert order == [("a", True), ("b", True)]
    # b drew exactly once (no re-draw after freeze)
    assert len(pol_b.draws) == 1
    # frozen by a's DATA (1 slot counted) and by its ACK (none)
    assert tx_b.stats.busy_freezes == 2
    assert tx_b.stats.idle_slots_observed == 4
    assert world.sim.events_processed == 12


def test_retry_limit_drops_frame(world, backoff):
    # Station b transmits a long frame whenever a does, forever: rig by
    # making both always draw slot 0 -> permanent collision.
    tx_a, _ = make_tx(world, "a", slots=[0], retry_limit=3, policy_cls=backoff)
    tx_b, _ = make_tx(world, "b", slots=[0], retry_limit=3, policy_cls=backoff)
    results = []
    tx_a.enqueue(data_frame("a"), LEVEL_NEW_OR_DATA, results.append)
    tx_b.enqueue(data_frame("b"), LEVEL_NEW_OR_DATA, results.append)
    world.sim.run()
    assert results == [False, False]
    assert tx_a.stats.drops == 1
    assert tx_a.stats.attempts == 3


def test_queue_drains_in_fifo_order(world):
    tx, _ = make_tx(world, slots=(0,))
    done = []
    for i in range(3):
        frame = data_frame("sta", bits=1000 * (i + 1))
        tx.enqueue(frame, LEVEL_NEW_OR_DATA,
                   lambda ok, i=i: done.append((i, world.sim.now)))
    world.sim.run()
    assert [i for i, _ in done] == [0, 1, 2]
    assert done[0][1] < done[1][1] < done[2][1]
    assert tx.pending == 0


def test_nav_blocks_contention_until_expiry(world):
    tx, _ = make_tx(world, slots=(0,))
    world.nav.set(2.0)
    done_at = []
    world.sim.call_at(1.0, lambda: tx.enqueue(data_frame("sta"), LEVEL_NEW_OR_DATA,
                                              lambda ok: done_at.append(world.sim.now)))
    world.sim.run()
    assert done_at[0] >= 2.0


def test_beacon_frame_sets_nav(world, backoff):
    # the beacon's busy start freezes the countdown with 9 of its 10
    # slots left; the rest runs once the NAV the beacon set expires
    air = Air(world)
    tx, _ = make_tx(world, slots=(10,), policy_cls=backoff)
    tx.enqueue(data_frame("sta"), LEVEL_NEW_OR_DATA, None)
    beacon = Frame(FrameType.BEACON, src="ap", dest="*", nav_duration=0.5)

    def send_beacon():
        world.channel.transmit(beacon, beacon.airtime(world.timing), sender=None)

    world.sim.call_at(world.timing.difs + world.timing.slot, send_beacon)
    world.sim.run()
    # NAV must have been set by the beacon payload
    assert world.nav.until >= world.timing.difs + 0.5
    resumed = world.nav.until + 9 * world.timing.slot
    assert air.frames == [
        (0.07, "BEACON", "ap", True),
        (round(resumed * 1e3, 3), "DATA", "sta", True),
        (501.432, "ACK", "ap", True),
    ]
    assert air.frames[1][0] == 500.478
    assert tx.stats.busy_freezes == 1
    assert tx.stats.idle_slots_observed == 10
    assert world.sim.events_processed == 10


@pytest.mark.parametrize(
    "policy_cls", [FixedBackoff, DrawOnlyBackoff], ids=["observing", "draw-only"]
)
def test_countdowns_the_nav_stopped_resume_in_fan_out_order(world, policy_cls):
    # a beacon freezes a and b with 9 slots left and c with 11.  Their
    # NAV timers are set in fan-out order, so a resumes first and wins
    # the tie with b: the collided frames end in the order a, b
    air = Air(world)
    txs, done = contend(world, {
        "a": policy_cls([10, 2]), "b": policy_cls([10, 5]), "c": policy_cls([12]),
    })
    beacon = Frame(FrameType.BEACON, src="ap", dest="*", nav_duration=0.002)
    world.sim.call_at(world.timing.difs + world.timing.slot,
                      lambda: world.channel.transmit(beacon, beacon.airtime(world.timing),
                                                     sender=None))
    world.sim.run()
    assert air.frames[:4] == [
        (0.07, "BEACON", "ap", True),
        (2.478, "DATA", "a", False), (2.478, "DATA", "b", False),
        (3.512, "DATA", "c", True),
    ]
    assert done == [("c", True, 4.668545), ("a", True, 5.914727), ("b", True, 7.180909)]
    counted = {sid: (tx.stats.idle_slots_observed, tx.stats.busy_freezes)
               for sid, tx in txs.items()}
    assert counted == {"a": (12, 2), "b": (15, 4), "c": (12, 2)}
    assert world.sim.events_processed == 32


def test_cf_end_clears_nav(world):
    tx, _ = make_tx(world, slots=(0,))
    world.nav.set(10.0)
    cf_end = Frame(FrameType.CF_END, src="ap", dest="*")
    world.sim.call_at(1.0,
                      lambda: world.channel.transmit(cf_end,
                                                     cf_end.airtime(world.timing),
                                                     sender=None))
    done_at = []
    tx.enqueue(data_frame("sta"), LEVEL_NEW_OR_DATA,
               lambda ok: done_at.append(world.sim.now))
    world.sim.run()
    assert done_at and done_at[0] < 2.0  # well before the stale NAV


def test_ber_corruption_causes_retry():
    world = MacWorld(ber=5e-3, seed=1)  # virtually every frame corrupted
    tx, _ = make_tx(world, slots=(1,), retry_limit=2)
    results = []
    tx.enqueue(data_frame("sta"), LEVEL_NEW_OR_DATA, results.append)
    world.sim.run()
    assert results == [False]
    assert tx.stats.failures == 2


def test_policy_sees_outcomes(world):
    tx_a, pol_a = make_tx(world, "a", slots=[0, 1])
    tx_b, _ = make_tx(world, "b", slots=[0, 3])
    tx_a.enqueue(data_frame("a"), LEVEL_NEW_OR_DATA, None)
    tx_b.enqueue(data_frame("b"), LEVEL_NEW_OR_DATA, None)
    world.sim.run()
    assert pol_a.outcomes == [False, True]


def test_shutdown_detaches(world):
    tx, _ = make_tx(world)
    tx.shutdown()
    # transmissions no longer reach the detached engine
    world.channel.transmit(data_frame("x"), 1e-3, sender=None)
    world.sim.run()
    assert tx.stats.attempts == 0


def test_departed_engine_starts_no_new_attempt(world, backoff):
    # a and b collide at DIFS + 2 slots; b departs just after the
    # collided frames end, with its ACK timeout still pending
    air = Air(world)
    txs, done = contend(world, {"a": backoff([2, 1]), "b": backoff([2, 3])})
    t = world.timing
    collided_end = t.difs + 2 * t.slot + data_frame("b").airtime(t)
    world.sim.call_at(collided_end + 1e-6, txs["b"].shutdown)
    world.sim.run()
    assert [f for f in air.frames if f[2] == "b"] == [(0.09, "DATA", "b", False)]
    # a's retry no longer collides with a departed b
    assert air.frames[2:] == [(1.286, "DATA", "a", True), (2.24, "ACK", "ap", True)]
    assert done == [("a", True, 2.442364)]
    assert txs["b"].stats.attempts == 1 and txs["b"].busy
    assert world.sim.events_processed == 15


def test_policies_receive_the_freeze_and_resume_observations(world):
    # every freeze arrives as (slots, 1), including the zero-slot
    # freezes in the DATA->ACK gap, and the expiry as (slots left, 0)
    b, c = FixedBackoff([4]), FixedBackoff([6])
    _, done = contend(world, {"a": FixedBackoff([1]), "b": b, "c": c})
    world.sim.run()
    assert b.observed == [(1, 1), (0, 1), (3, 0)]
    assert c.observed == [(1, 1), (0, 1), (3, 1), (0, 1), (2, 0)]
    assert [sid for sid, ok, _ in done if ok] == ["a", "b", "c"]
    assert world.sim.events_processed == 18


def test_shutdown_of_the_earliest_expiry_hands_the_agenda_entry_on(world, backoff):
    txs, done = contend(world, {"a": backoff([2]), "b": backoff([5])})
    t = world.timing
    world.sim.call_at(t.difs + 1.5 * t.slot, txs["a"].shutdown)
    world.sim.run()
    expected = t.difs + 5 * t.slot + data_frame("b").airtime(t) + t.sifs + t.ack_time()
    assert done == [("b", True, pytest.approx(expected * 1e3, abs=1e-6))]
    assert done[0][2] == 1.306182
    assert txs["a"].stats.attempts == 0
    assert world.sim.events_processed == 7


@pytest.mark.parametrize("b_departs", [False, True], ids=["b-stays", "b-departs"])
def test_a_later_arm_with_an_earlier_expiry_takes_the_entry_over(world, backoff, b_departs):
    # a arms first and holds the entry; b's earlier expiry takes it
    # over.  If b departs, a is scheduled again at its own reserved
    # number.
    txs, done = contend(world, {"a": backoff([5]), "b": backoff([2])})
    t = world.timing
    if b_departs:
        world.sim.call_at(t.difs + 1.5 * t.slot, txs["b"].shutdown)
    world.sim.run()
    if b_departs:
        assert done == [("a", True, 1.306182)]
        assert txs["b"].stats.attempts == 0
        assert world.sim.events_processed == 7
    else:
        assert done == [("b", True, 1.246182), ("a", True, 2.512364)]
        assert world.sim.events_processed == 12


def test_three_way_same_slot_tie_collides_then_each_retry_completes(world, backoff):
    txs, done = contend(world, {
        "a": backoff([3, 1]), "b": backoff([3, 4]), "c": backoff([3, 7]),
    })
    world.sim.run()
    assert done == [("a", True, 2.462364), ("b", True, 3.728545), ("c", True, 4.994727)]
    assert all(tx.stats.failures == 1 for tx in txs.values())
    assert world.sim.events_processed == 30


class TestOnTheSlotClock:
    """The scripted contention tests again, with a policy that observes
    nothing, so no busy transition reports to it: the same times,
    orders and event counts on the channel's slot clocks."""

    @pytest.fixture
    def backoff(self):
        return DrawOnlyBackoff

    test_two_stations_same_slot_collide_then_retry = staticmethod(
        test_two_stations_same_slot_collide_then_retry
    )
    test_loser_freezes_and_resumes_backoff = staticmethod(
        test_loser_freezes_and_resumes_backoff
    )
    test_retry_limit_drops_frame = staticmethod(test_retry_limit_drops_frame)
    test_beacon_frame_sets_nav = staticmethod(test_beacon_frame_sets_nav)
    test_departed_engine_starts_no_new_attempt = staticmethod(
        test_departed_engine_starts_no_new_attempt
    )
    test_shutdown_of_the_earliest_expiry_hands_the_agenda_entry_on = staticmethod(
        test_shutdown_of_the_earliest_expiry_hands_the_agenda_entry_on
    )
    test_a_later_arm_with_an_earlier_expiry_takes_the_entry_over = staticmethod(
        test_a_later_arm_with_an_earlier_expiry_takes_the_entry_over
    )
    test_three_way_same_slot_tie_collides_then_each_retry_completes = staticmethod(
        test_three_way_same_slot_tie_collides_then_each_retry_completes
    )


@pytest.mark.parametrize(
    "policy_cls", [FixedBackoff, DrawOnlyBackoff], ids=["observing", "draw-only"]
)
def test_a_departing_head_mid_count_hands_the_entry_to_the_next_countdown(world, policy_cls):
    # after a's exchange b (4 slots left) and c (6 left) count down
    # together; b departs mid-count and c transmits on time
    air = Air(world)
    txs, done = contend(world, {"a": policy_cls([1]), "b": policy_cls([5]), "c": policy_cls([7])})
    t = world.timing
    ack_end = t.difs + t.slot + data_frame("a").airtime(t) + t.sifs + t.ack_time()
    world.sim.call_at(ack_end + t.difs + 2.5 * t.slot, txs["b"].shutdown)
    world.sim.run()
    assert air.frames[2:] == [(1.396, "DATA", "c", True), (2.35, "ACK", "ap", True)]
    assert air.frames[2][0] == round((ack_end + t.difs + 6 * t.slot) * 1e3, 3)
    assert done == [("a", True, 1.226182), ("c", True, 2.552364)]
    counted = {sid: (tx.stats.idle_slots_observed, tx.stats.busy_freezes)
               for sid, tx in txs.items()}
    assert counted == {"a": (1, 0), "b": (1, 2), "c": (7, 2)}
    assert world.sim.events_processed == 13


def test_an_observing_policy_arriving_mid_count_gets_every_span(world):
    # a and b observe nothing; after a's exchange b counts its 4 slots
    # on a slot clock.  c's policy observes slots: c arrives while that
    # clock counts, b keeps its expiry, and c sees its freezes by b's
    # DATA and ACK
    air = Air(world)
    txs, done = contend(world, {"a": DrawOnlyBackoff([1]), "b": DrawOnlyBackoff([5])})
    t = world.timing
    ack_end = t.difs + t.slot + data_frame("a").airtime(t) + t.sifs + t.ack_time()
    observer = FixedBackoff([6])

    def arrive():
        txs["c"] = DcfTransmitter(world.sim, world.channel, t, observer, world.rng("c"),
                                  "c", world.nav)
        txs["c"].enqueue(data_frame("c"), LEVEL_NEW_OR_DATA,
                         lambda ok: done.append(("c", ok, round(world.sim.now * 1e3, 6))))

    world.sim.call_at(ack_end + 0.5 * t.slot, arrive)
    world.sim.run()
    assert [f[:3] for f in air.frames[2:]] == [
        (1.356, "DATA", "b"), (2.31, "ACK", "ap"), (2.602, "DATA", "c"), (3.556, "ACK", "ap"),
    ]
    assert done == [("a", True, 1.226182), ("b", True, 2.512364), ("c", True, 3.758545)]
    assert observer.observed == [(4, 1), (0, 1), (2, 0)]
    counted = {sid: (tx.stats.idle_slots_observed, tx.stats.busy_freezes)
               for sid, tx in txs.items()}
    assert counted == {"a": (1, 0), "b": (5, 2), "c": (6, 2)}
    assert world.sim.events_processed == 19


@pytest.mark.parametrize("own", ["nav", "slot"])
def test_a_channel_refuses_a_second_nav_or_slot_time(world, own):
    # the DCFs on one channel count on one NAV and one slot grid
    make_tx(world, "a")
    nav, timing = world.nav, world.timing
    if own == "nav":
        nav, match = Nav(), "has its own NAV"
    else:
        timing, match = PhyTiming(slot=9e-6), "counts 9e-06 s slots"
    with pytest.raises(ValueError, match=match):
        DcfTransmitter(world.sim, world.channel, timing, DrawOnlyBackoff([1]),
                       world.rng("b"), "b", nav)
    # the refused DCF never joined the channel or its agenda
    attached = [listener.station_id for listener in world.channel._listeners
                if isinstance(listener, DcfTransmitter)]
    assert attached == ["a"]
    assert world.channel.backoff_agenda._attached == 1


@pytest.mark.parametrize("order", ["adaptive-first", "adaptive-last"])
def test_a_channel_refuses_adaptive_cw_beside_other_policies(world, order):
    # AdaptiveCW reads every busy slot it observes as a contender of its
    # own window, so the DCFs on its channel must share the one instance
    beb = [(f"beb/{i}", StandardBEB(32, 1024)) for i in range(4)]
    adaptive = [("acw", AdaptiveCW(world.timing))]
    stations = adaptive + beb if order == "adaptive-first" else beb + adaptive
    refusal = "AdaptiveCW infers the contender count from the whole channel"
    refused = []
    for sid, policy in stations:
        try:
            DcfTransmitter(world.sim, world.channel, world.timing, policy,
                           world.rng(sid), sid, world.nav)
        except ValueError as exc:
            assert refusal in str(exc)
            refused.append(sid)
    assert refused == (
        [sid for sid, _ in beb] if order == "adaptive-first" else ["acw"]
    )
    # the refused DCFs never joined the agenda
    assert world.channel.backoff_agenda._attached == len(stations) - len(refused)


def test_a_channel_refuses_a_second_adaptive_cw(world):
    shared, other = AdaptiveCW(world.timing), AdaptiveCW(world.timing)
    for sid in ("a", "b"):
        DcfTransmitter(world.sim, world.channel, world.timing, shared,
                       world.rng(sid), sid, world.nav)
    with pytest.raises(ValueError, match="AdaptiveCW infers the contender count"):
        DcfTransmitter(world.sim, world.channel, world.timing, other,
                       world.rng("c"), "c", world.nav)
    assert world.channel.backoff_agenda._attached == 2


class ScriptedAifs(AifsDifferentiation):
    """Extra AIFS of 0, 2 and 4 slots by level, with scripted draws."""

    def __init__(self, timing, slots):
        super().__init__(timing, aifs_slots=(0, 2, 4))
        self.slots = list(slots)

    def draw_slots(self, level, stage, rng):
        return self.slots.pop(0) if len(self.slots) > 1 else self.slots[0]


class ObservingScriptedAifs(ScriptedAifs):
    def observe_slots(self, idle_slots, busy_events):
        """Observes slots, so each busy transition reports to it."""


@pytest.mark.parametrize(
    "policy_cls", [ObservingScriptedAifs, ScriptedAifs], ids=["observing", "draw-only"]
)
def test_aifs_levels_count_on_their_own_slot_grids(world, policy_cls):
    # b (AIFS +2) wins at DIFS + 4 slots.  a (AIFS 0) freezes with 5 of
    # its 9 slots left, c (AIFS +4) with its 1 slot, each on its own
    # IFS class's grid: both run out DIFS + 5 slots after the ACK, at
    # the very same float, so the lower fan-out index, a, transmits
    # first and they collide.  The retries draw 3 and 5 slots.
    air = Air(world)
    done, txs = [], {}
    for sid, level, slots in (("a", 0, [9, 3]), ("b", 1, [2]), ("c", 2, [1, 5])):
        tx = DcfTransmitter(world.sim, world.channel, world.timing,
                            policy_cls(world.timing, slots), world.rng(sid), sid, world.nav)
        txs[sid] = tx
        tx.enqueue(data_frame(sid, bits=2000 if sid == "b" else 8000), level,
                   lambda ok, sid=sid: done.append((sid, ok, round(world.sim.now * 1e3, 6))))
    world.sim.run()
    assert air.frames == [
        (0.13, "DATA", "b", True), (0.539, "ACK", "ap", True),
        (0.891, "DATA", "a", False), (0.891, "DATA", "c", False),
        (2.127, "DATA", "a", True), (3.081, "ACK", "ap", True),
        (3.453, "DATA", "c", True), (4.407, "ACK", "ap", True),
    ]
    assert done == [("b", True, 0.740727), ("a", True, 3.283091), ("c", True, 4.609273)]
    counted = {sid: (tx.stats.idle_slots_observed, tx.stats.busy_freezes)
               for sid, tx in txs.items()}
    assert counted == {"a": (12, 2), "b": (2, 0), "c": (6, 4)}
    assert world.sim.events_processed == 26


class RecordingAifs(AifsDifferentiation):
    """AIFS of 0, 2 and 4 slots on a 16-slot window; records every
    ``(slots, busy)`` observation."""

    def __init__(self, timing):
        super().__init__(timing, aifs_slots=(0, 2, 4), cw_min=16)
        self.observed = []

    def observe_slots(self, idle_slots, busy_events):
        self.observed.append((idle_slots, busy_events))


class PifsBeacon(ChannelListener):
    """One beacon carrying a ``nav``-second NAV, sent PIFS into the
    first idle medium from ``at`` on, the way a point coordinator
    seizes the medium."""

    def __init__(self, world, at, nav):
        self.world = world
        self.frame = Frame(FrameType.BEACON, src="ap", dest="*", nav_duration=nav)
        self.waiting = False
        self.timer = None
        world.channel.attach(self)
        world.sim.call_at(at, self.seize)

    def seize(self):
        self.waiting = True
        self.on_medium_idle(self.world.sim.now)

    def on_medium_idle(self, now):
        channel = self.world.channel
        if self.waiting and not channel.is_busy:
            at = max(channel.idle_since + self.world.timing.pifs, now)
            self.timer = self.world.sim.call_at(at, self.send)

    def on_medium_busy(self, now):
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def send(self):
        self.waiting = False
        self.timer = None
        self.world.channel.transmit(self.frame, self.frame.airtime(self.world.timing),
                                    sender=None)


#: per seed: the shared policy's observation count and sha256, every
#: DCF's DcfStats fields (enqueued, attempts, successes, failures,
#: drops, idle_slots_observed, busy_freezes) and the events processed
CROSS_STATION_PINS = {
    1: (5626, "198b2577b4b81f5dbed87058f0e74f69792f3d76eb99e22e3c7c2af113971d30", {
        "beb/0": (369, 473, 368, 105, 0, 5281, 2297),
        "beb/1": (397, 508, 396, 112, 0, 5117, 2195),
        "beb/2": (310, 416, 309, 107, 0, 5072, 2363),
        "obs/0": (337, 442, 336, 106, 0, 5105, 2287),
        "obs/1": (35, 49, 34, 15, 0, 603, 679),
        "obs/2": (24, 38, 23, 15, 0, 788, 2168),
    }, 10651),
    2: (5536, "907e3255a0bd10eb2b2771361ef214448ac870aad174149eb381c2d2b3c7b18c", {
        "beb/0": (386, 496, 385, 111, 0, 5408, 2263),
        "beb/1": (225, 310, 224, 86, 0, 5396, 2603),
        "beb/2": (375, 504, 374, 129, 0, 5192, 2206),
        "obs/0": (412, 528, 411, 117, 0, 5368, 2123),
        "obs/1": (23, 39, 22, 17, 0, 689, 658),
        "obs/2": (51, 74, 50, 24, 0, 988, 2140),
    }, 10749),
    3: (5539, "c158a08ab0297c3e44f42fc27b9619752989667b118efa718b64d325bd97c168", {
        "beb/0": (338, 463, 337, 126, 0, 5387, 2362),
        "beb/1": (336, 445, 335, 109, 0, 5298, 2351),
        "beb/2": (300, 419, 299, 120, 0, 5214, 2388),
        "obs/0": (415, 519, 414, 105, 0, 5351, 2155),
        "obs/1": (43, 52, 42, 10, 0, 614, 624),
        "obs/2": (46, 68, 45, 23, 0, 886, 2160),
    }, 10818),
}


@pytest.mark.parametrize("seed", sorted(CROSS_STATION_PINS))
def test_observations_of_every_clock_reach_a_shared_policy_in_fan_out_order(seed):
    # three DCFs share one observing policy, one per AIFS class, so
    # three slot clocks count; three saturated BEB DCFs with other
    # frame sizes share the DIFS clock.  A beacon's 10 ms NAV stops
    # every clock, and the level-1 observer departs mid-run.  The
    # shared list holds each busy transition's observations in fan-out
    # order.
    world = MacWorld(ber=1e-5, seed=seed)
    t = world.timing
    PifsBeacon(world, at=0.4, nav=0.01)
    policy = RecordingAifs(t)
    txs = {}

    def saturate(sid, policy, bits, level):
        tx = txs[sid] = DcfTransmitter(world.sim, world.channel, t, policy,
                                       world.rng(sid), sid, world.nav)

        def again(ok=None):
            tx.enqueue(data_frame(sid, bits=bits), level, again)

        again()

    for sid, bits in (("beb/0", 3000), ("beb/1", 4500), ("beb/2", 6000)):
        saturate(sid, StandardBEB(16), bits, LEVEL_NEW_OR_DATA)
    for level, at in enumerate((0.05, 0.25, 0.45)):
        world.sim.call_at(at, saturate, f"obs/{level}", policy, 2000, level)
    world.sim.call_at(0.6, lambda: txs["obs/1"].shutdown())
    world.sim.run(until=1.5)
    assert world.nav.until > 0.41  # the beacon went out intact
    digest = hashlib.sha256(repr(policy.observed).encode()).hexdigest()
    stats = {sid: dataclasses.astuple(tx.stats) for sid, tx in txs.items()}
    assert (len(policy.observed), digest, stats, world.sim.events_processed) == (
        CROSS_STATION_PINS[seed]
    )


def test_standard_beb_window_growth():
    beb = StandardBEB(cw_min=8, cw_max=64)
    assert beb.window(0) == 8
    assert beb.window(1) == 16
    assert beb.window(3) == 64
    assert beb.window(10) == 64  # capped
    assert beb.max_stage() == 3


def test_standard_beb_draws_within_window():
    import numpy as np

    beb = StandardBEB(cw_min=8, cw_max=256)
    rng = np.random.Generator(np.random.PCG64(0))
    draws = [beb.draw_slots(0, 2, rng) for _ in range(500)]
    assert min(draws) >= 0
    assert max(draws) <= 31
    assert len(set(draws)) > 10


def test_standard_beb_invalid_bounds():
    with pytest.raises(ValueError):
        StandardBEB(cw_min=0)
    with pytest.raises(ValueError):
        StandardBEB(cw_min=32, cw_max=16)
    with pytest.raises(ValueError):
        StandardBEB().window(-1)
