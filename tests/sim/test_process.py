"""Unit tests for generator processes: waits, interrupts, failures."""

import pytest

from repro.sim import Interrupt, Simulator


def test_process_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def body():
        yield 2.0
        seen.append(sim.now)
        yield 3.0
        seen.append(sim.now)

    sim.process(body())
    sim.run()
    assert seen == [2.0, 5.0]


def test_exception_escaping_process_propagates_out_of_run():
    sim = Simulator()
    later = []

    def body():
        yield 1.0
        raise KeyError("inner")

    proc = sim.process(body())
    sim.call_at(2.0, later.append, "ran on")
    with pytest.raises(KeyError):
        sim.run()
    assert sim.now == 1.0
    assert not proc.is_alive
    assert later == []


def test_exception_raised_on_interrupt_propagates_out_of_interrupt():
    sim = Simulator()

    def body():
        try:
            yield 5.0
        except Interrupt:
            raise KeyError("cleanup failed")

    proc = sim.process(body())
    sim.run(until=1.0)
    with pytest.raises(KeyError):
        proc.interrupt()
    assert not proc.is_alive


def test_uncaught_interrupt_ends_the_process_like_a_return():
    sim = Simulator()
    steps = []

    def body():
        steps.append("started")
        yield 5.0
        steps.append("woke")

    proc = sim.process(body())
    sim.call_at(1.0, proc.interrupt)
    sim.run()
    assert steps == ["started"]
    assert not proc.is_alive
    # start, the interrupting timer, the exit and the stale wake-up at 5
    assert sim.events_processed == 4
    assert sim.now == 5.0


def test_interrupt_before_the_first_step_ends_the_process():
    sim = Simulator()
    steps = []

    def body():
        steps.append("started")
        yield 1.0

    proc = sim.process(body())
    proc.interrupt("never ran")
    assert not proc.is_alive
    sim.run()
    assert steps == []
    # the exit and the stale start
    assert sim.events_processed == 2


def test_negative_delay_raises_valueerror():
    sim = Simulator()

    def body():
        yield -1.0

    sim.process(body())
    with pytest.raises(ValueError, match="negative delay"):
        sim.run()


def test_nan_delay_raises_valueerror():
    sim = Simulator()
    woke = []

    def body():
        yield float("nan")
        woke.append(sim.now)

    sim.process(body())
    with pytest.raises(ValueError, match="not a number"):
        sim.run()
    sim.run()
    assert woke == []


def test_interrupt_delivers_cause():
    sim = Simulator()
    caught = []

    def body():
        try:
            yield 100.0
        except Interrupt as exc:
            caught.append((sim.now, exc.cause))

    proc = sim.process(body())
    sim.call_in(2.0, proc.interrupt, "preempted")
    sim.run()
    assert caught == [(2.0, "preempted")]


def test_interrupted_wait_does_not_resume_twice():
    sim = Simulator()
    resumptions = []

    def body():
        try:
            yield 5.0
        except Interrupt:
            pass
        resumptions.append(sim.now)
        yield 10.0
        resumptions.append(sim.now)

    proc = sim.process(body())
    sim.call_in(1.0, proc.interrupt)
    sim.run()
    # After the interrupt at t=1 the original t=5 timeout must be ignored;
    # the follow-up 10s wait completes at t=11.
    assert resumptions == [1.0, 11.0]


def test_interrupt_dead_process_raises():
    sim = Simulator()

    def body():
        yield 1.0

    proc = sim.process(body())
    sim.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def test_yielding_garbage_raises_typeerror_in_process():
    sim = Simulator()
    caught = []

    def body():
        try:
            yield "nonsense"
        except TypeError as exc:
            caught.append("typed")

    sim.process(body())
    sim.run()
    assert caught == ["typed"]


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_start_is_deterministic_in_creation_order():
    sim = Simulator()
    seen = []

    def body(tag):
        seen.append(tag)
        yield 0.0

    sim.process(body("a"))
    sim.process(body("b"))
    sim.run()
    assert seen[:2] == ["a", "b"]


def test_two_processes_interleave():
    sim = Simulator()
    seen = []

    def ping():
        for _ in range(3):
            yield 2.0
            seen.append(("ping", sim.now))

    def pong():
        yield 1.0
        for _ in range(3):
            yield 2.0
            seen.append(("pong", sim.now))

    sim.process(ping())
    sim.process(pong())
    sim.run()
    assert seen == [
        ("ping", 2.0), ("pong", 3.0),
        ("ping", 4.0), ("pong", 5.0),
        ("ping", 6.0), ("pong", 7.0),
    ]
