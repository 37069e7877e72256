"""Unit tests for the DCF CSMA/CA engine."""

import pytest

from repro.mac import BackoffPolicy, DcfTransmitter, Frame, FrameType, StandardBEB
from repro.mac.backoff import LEVEL_NEW_OR_DATA
from repro.phy import ChannelListener

from .conftest import FixedBackoff, MacWorld


def make_tx(world, sid="sta", slots=(0,), retry_limit=7):
    policy = FixedBackoff(list(slots))
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


class SpanBackoff(BackoffPolicy):
    """Fixed draws; overrides only the positional observation hook."""

    def __init__(self, slots):
        self.slots = slots
        self.spans = []

    def draw_slots(self, level, stage, rng):
        return self.slots

    def observe_span(self, start, end, interrupted):
        self.spans.append((start, end, interrupted))


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


def test_two_stations_same_slot_collide_then_retry(world):
    # Both pick slot 2 initially -> collision; retries pick 1 and 4.
    tx_a, pol_a = make_tx(world, "a", slots=[2, 1])
    tx_b, pol_b = make_tx(world, "b", slots=[2, 4])
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


def test_loser_freezes_and_resumes_backoff(world):
    # a picks 1 slot, b picks 4; a transmits first, b freezes with 3 left
    # and resumes after a's exchange, transmitting without a new draw.
    tx_a, _ = make_tx(world, "a", slots=[1])
    tx_b, pol_b = make_tx(world, "b", slots=[4])
    order = []
    tx_a.enqueue(data_frame("a"), LEVEL_NEW_OR_DATA, lambda ok: order.append(("a", ok)))
    tx_b.enqueue(data_frame("b"), LEVEL_NEW_OR_DATA, lambda ok: order.append(("b", ok)))
    world.sim.run()
    assert order == [("a", True), ("b", True)]
    # b drew exactly once (no re-draw after freeze)
    assert len(pol_b.draws) == 1
    assert tx_b.stats.busy_freezes >= 1


def test_retry_limit_drops_frame(world):
    # Station b transmits a long frame whenever a does, forever: rig by
    # making both always draw slot 0 -> permanent collision.
    tx_a, _ = make_tx(world, "a", slots=[0], retry_limit=3)
    tx_b, _ = make_tx(world, "b", slots=[0], retry_limit=3)
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


def test_beacon_frame_sets_nav(world):
    tx, _ = make_tx(world, slots=(10,))
    tx.enqueue(data_frame("sta"), LEVEL_NEW_OR_DATA, None)
    beacon = Frame(FrameType.BEACON, src="ap", dest="*", nav_duration=0.5)

    def send_beacon():
        world.channel.transmit(beacon, beacon.airtime(world.timing), sender=None)

    world.sim.call_at(world.timing.difs + world.timing.slot, send_beacon)
    world.sim.run()
    # NAV must have been set by the beacon payload
    assert world.nav.until >= world.timing.difs + 0.5


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


def test_departed_engine_starts_no_new_attempt(world):
    # a and b collide at DIFS + 2 slots; b departs just after the
    # collided frames end, with its ACK timeout still pending
    air = Air(world)
    txs, done = contend(world, {"a": FixedBackoff([2, 1]), "b": FixedBackoff([2, 3])})
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
    # b overrides only observe_slots, c only observe_span: both hooks
    # must keep arriving, including the zero-width spans of the
    # freezes in the DATA->ACK gap
    slots_only, span_only = FixedBackoff([4]), SpanBackoff(6)
    _, done = contend(world, {"a": FixedBackoff([1]), "b": slots_only, "c": span_only})
    world.sim.run()
    assert slots_only.observed == [(1, 1), (0, 1), (3, 0)]
    assert span_only.spans == [
        (0, 1, True), (1, 1, True), (1, 4, True), (4, 4, True), (4, 6, False),
    ]
    assert [sid for sid, ok, _ in done if ok] == ["a", "b", "c"]
    assert world.sim.events_processed == 18


def test_shutdown_of_the_earliest_expiry_hands_the_agenda_entry_on(world):
    txs, done = contend(world, {"a": FixedBackoff([2]), "b": FixedBackoff([5])})
    t = world.timing
    world.sim.call_at(t.difs + 1.5 * t.slot, txs["a"].shutdown)
    world.sim.run()
    expected = t.difs + 5 * t.slot + data_frame("b").airtime(t) + t.sifs + t.ack_time()
    assert done == [("b", True, pytest.approx(expected * 1e3, abs=1e-6))]
    assert done[0][2] == 1.306182
    assert txs["a"].stats.attempts == 0
    assert world.sim.events_processed == 7


@pytest.mark.parametrize("b_departs", [False, True], ids=["b-stays", "b-departs"])
def test_a_later_arm_with_an_earlier_expiry_takes_the_entry_over(world, b_departs):
    # a arms first and holds the entry; b's earlier expiry takes it
    # over.  If b departs, a is scheduled again at its own reserved
    # number.
    txs, done = contend(world, {"a": FixedBackoff([5]), "b": FixedBackoff([2])})
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


def test_three_way_same_slot_tie_collides_then_each_retry_completes(world):
    txs, done = contend(world, {
        "a": FixedBackoff([3, 1]), "b": FixedBackoff([3, 4]), "c": FixedBackoff([3, 7]),
    })
    world.sim.run()
    assert done == [("a", True, 2.462364), ("b", True, 3.728545), ("c", True, 4.994727)]
    assert all(tx.stats.failures == 1 for tx in txs.values())
    assert world.sim.events_processed == 30


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
