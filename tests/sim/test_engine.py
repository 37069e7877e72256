"""Unit tests for the DES kernel: clock, agenda, timers, run modes."""

import numpy as np
import pytest

from repro.phy import BitErrorModel, Channel, ChannelListener
from repro.sim import Interrupt, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_starts_at_custom_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_call_in_runs_callback_at_right_time():
    sim = Simulator()
    seen = []
    sim.call_in(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]


def test_call_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.call_at(4.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.0]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.call_in(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(0.5, lambda: None)


def test_fifo_order_for_simultaneous_events():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.call_at(1.0, seen.append, i)
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def test_priority_breaks_ties_before_insertion_order():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, seen.append, "late", priority=1)
    sim.call_at(1.0, seen.append, "early", priority=0)
    sim.run()
    assert seen == ["early", "late"]


def test_reserved_number_orders_as_if_scheduled_at_reservation():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, seen.append, "first")
    seq = sim.reserve()
    sim.call_at(1.0, seen.append, "third")
    sim.call_at(1.0, seen.append, "second", seq=seq)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_reserved_number_can_be_scheduled_again_after_a_cancel():
    sim = Simulator()
    seen = []
    seq = sim.reserve()
    for i in range(20):
        sim.call_at(1.0, seen.append, f"other{i}")
    sim.call_at(1.0, seen.append, "stale", seq=seq).cancel()
    sim.call_at(1.0, seen.append, "reserved", seq=seq)
    sim.run()
    assert seen == ["reserved"] + [f"other{i}" for i in range(20)]


def test_unreserved_number_rejected():
    sim = Simulator()
    seq = sim.reserve()
    with pytest.raises(ValueError, match="never reserved"):
        sim.call_at(1.0, lambda: None, seq=seq + 1)
    sim.call_at(1.0, lambda: None, seq=seq)


def test_timer_cancel_prevents_firing():
    sim = Simulator()
    seen = []
    handle = sim.call_in(1.0, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []


def test_timer_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.call_in(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_run_until_deadline_stops_clock_at_deadline():
    sim = Simulator()
    seen = []
    sim.call_in(1.0, seen.append, "a")
    sim.call_in(10.0, seen.append, "b")
    sim.run(until=5.0)
    assert seen == ["a"]
    assert sim.now == 5.0


def test_run_until_deadline_event_exactly_at_deadline_fires():
    sim = Simulator()
    seen = []
    sim.call_in(5.0, seen.append, "edge")
    sim.run(until=5.0)
    assert seen == ["edge"]


def test_run_resumes_after_deadline():
    sim = Simulator()
    seen = []
    sim.call_in(10.0, seen.append, "b")
    sim.run(until=5.0)
    sim.run()
    assert seen == ["b"]
    assert sim.now == 10.0


def test_run_until_past_deadline_raises():
    sim = Simulator(start_time=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


# NaN compares false with everything, so a check written as "time < now"
# lets it through and its heap key breaks the agenda order


def test_call_at_nan_raises():
    sim = Simulator()
    sim.call_at(1.0, lambda: None)
    with pytest.raises(ValueError, match="nan"):
        sim.call_at(float("nan"), lambda: None)
    assert len(sim._heap) == 1


def test_call_in_nan_raises():
    sim = Simulator()
    with pytest.raises(ValueError, match="nan"):
        sim.call_in(float("nan"), lambda: None)
    assert sim._heap == []


def test_run_until_nan_raises():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda: seen.append(sim.now))
    with pytest.raises(ValueError, match="nan"):
        sim.run(until=float("nan"))
    assert seen == [] and sim.now == 0.0


def test_peek_skips_cancelled_timers():
    sim = Simulator()
    h = sim.call_in(1.0, lambda: None)
    sim.call_in(2.0, lambda: None)
    h.cancel()
    assert sim.peek() == 2.0


def test_peek_empty_agenda_is_inf():
    assert Simulator().peek() == float("inf")


def test_nested_scheduling_from_callback():
    sim = Simulator()
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.call_in(1.0, inner)

    def inner():
        seen.append(("inner", sim.now))

    sim.call_in(1.0, outer)
    sim.run()
    assert seen == [("outer", 1.0), ("inner", 2.0)]


def test_reentrant_run_rejected():
    sim = Simulator()

    def body():
        with pytest.raises(RuntimeError):
            sim.run()
        yield 0.0

    sim.process(body())
    sim.run()


def test_each_start_wakeup_exit_and_completion_is_one_agenda_fire():
    # events_processed is pinned in every row, golden fixture and bench
    # count: a process start, each numeric wake-up, a wake-up made stale
    # by interrupt(), a generator exit and a transmission completion
    # must each stay exactly one agenda fire
    sim = Simulator()
    log = []
    channel = Channel(
        sim, BitErrorModel(0.0, np.random.Generator(np.random.PCG64(0)))
    )

    class Listener(ChannelListener):
        def on_frame(self, frame, ok, now):
            log.append((now, "rx"))

        def on_medium_idle(self, now):
            log.append((now, "idle"))

    channel.attach(Listener())

    def a():
        for _ in range(3):
            yield 1.0
            log.append((sim.now, "a"))

    def b():
        try:
            yield 10.0
        except Interrupt:
            log.append((sim.now, "interrupted"))

    def send():
        channel.transmit(
            object(), 0.5, None,
            lambda outcome: log.append((sim.now, "done", outcome.ok)),
        )

    sim.process(a())
    sleeper = sim.process(b())
    sim.call_at(2.5, sleeper.interrupt)
    sim.call_at(1.0, send)
    sim.run()
    assert log == [
        (1.0, "a"), (1.5, "rx"), (1.5, "idle"), (1.5, "done", True),
        (2.0, "a"), (2.5, "interrupted"), (3.0, "a"),
    ]
    assert sim.events_processed == 12
