"""Unit tests for generator processes: waits, joins, interrupts, failures."""

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


def test_process_waits_on_event_and_receives_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def body():
        value = yield ev
        got.append(value)

    sim.process(body())
    sim.call_in(1.0, ev.succeed, "payload")
    sim.run()
    assert got == ["payload"]


def test_process_return_value_via_join():
    sim = Simulator()
    got = []

    def child():
        yield 1.0
        return 99

    def parent():
        result = yield sim.process(child())
        got.append((sim.now, result))

    sim.process(parent())
    sim.run()
    assert got == [(1.0, 99)]


def test_failed_event_raises_inside_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def body():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(body())
    sim.call_in(1.0, ev.fail, ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_exception_escaping_process_marks_it_failed():
    sim = Simulator()

    def body():
        yield 1.0
        raise KeyError("inner")

    proc = sim.process(body())
    sim.run()
    assert proc.triggered and not proc.ok
    with pytest.raises(KeyError):
        _ = proc.value


def test_unhandled_failure_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield 1.0
        raise RuntimeError("child died")

    caught = []

    def parent():
        try:
            yield sim.process(child())
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(parent())
    sim.run()
    assert caught == ["child died"]


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
