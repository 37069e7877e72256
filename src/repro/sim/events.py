"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot synchronization point.  It starts
*pending*, is *triggered* exactly once (either :meth:`Event.succeed` or
:meth:`Event.fail`), and then delivers its value (or raises its
exception) to every registered callback when the simulator processes it.

Processes (see :mod:`repro.sim.process`) wait on events by yielding
them; plain callbacks may also be attached for callback-style models.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import Simulator

__all__ = ["Event", "Timeout", "EventAlreadyTriggered"]


class EventAlreadyTriggered(RuntimeError):
    """Raised when succeed/fail is called on a non-pending event."""


PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"


class Event:
    """A one-shot occurrence inside a :class:`~repro.sim.engine.Simulator`.

    Parameters
    ----------
    sim:
        Owning simulator.  The event schedules itself on the simulator's
        agenda when triggered.

    Notes
    -----
    Events follow the SimPy state machine: ``pending`` → ``triggered``
    (value is known, sits on the agenda) → ``processed`` (callbacks have
    run).  Triggering is immediate from the caller's point of view but
    callbacks run at the *current simulation time* through the agenda,
    which keeps event ordering deterministic.
    """

    __slots__ = ("sim", "callbacks", "_state", "_value", "_ok")

    #: events are never cancellable — the class-level flag lets the
    #: engine's agenda loop test ``item.cancelled`` uniformly on timers
    #: and events without an ``isinstance`` dispatch
    cancelled = False
    #: True only on engine-recycled Timeouts (see Process._wait_on)
    _pooled = False

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        pool = sim._cb_pool
        self.callbacks: list[typing.Callable[["Event"], None]] | None = (
            pool.pop() if pool else []
        )
        self._state = PENDING
        self._value: typing.Any = None
        self._ok = True

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (may not yet be processed)."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> typing.Any:
        """The event's value; raises if the event failed or is pending."""
        if self._state == PENDING:
            raise RuntimeError("value of a pending event is not available")
        if not self._ok:
            raise self._value
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: typing.Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        self.sim._enqueue_triggered(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if self._state != PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = TRIGGERED
        self.sim._enqueue_triggered(self)
        return self

    # -- callbacks ---------------------------------------------------------
    def add_callback(self, fn: typing.Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event is processed.

        If the event was already processed, the callback runs
        immediately (still at the current simulation time).
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def _process(self) -> None:
        """Run callbacks.  Called by the simulator core only."""
        callbacks, self.callbacks = self.callbacks, None
        self._state = PROCESSED
        if callbacks is None:
            return
        if callbacks:
            for fn in callbacks:
                fn(self)
            callbacks.clear()
        # the detached list is dead — recycle it for the next event
        pool = self.sim._cb_pool
        if len(pool) < 256:
            pool.append(callbacks)

    #: the engine's uniform dispatch slot: firing an event means running
    #: its callbacks (timers alias ``_fire`` to their callback instead)
    _fire = _process

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} state={self._state} ok={self._ok}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units from *now*.

    Parameters
    ----------
    sim:
        Owning simulator.
    delay:
        Non-negative delay in simulation time units.
    value:
        Value delivered to waiters (defaults to ``None``).
    priority:
        Tie-break priority among events scheduled for the same instant;
        lower fires first.
    """

    __slots__ = ("delay", "_pooled")

    def __init__(
        self,
        sim: "Simulator",
        delay: float,
        value: typing.Any = None,
        priority: int = 0,
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._pooled = False
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        sim._enqueue_at(sim.now + delay, priority, self)

    def _reinit(self, delay: float) -> None:
        """Re-arm a recycled engine-private timeout (free-list path).

        Only :class:`~repro.sim.process.Process` numeric yields recycle
        Timeouts, and only after the waiting process consumed the fire —
        nothing else can hold a reference, so resetting in place is
        unobservable.  User-created timeouts are never recycled.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        sim = self.sim
        pool = sim._cb_pool
        self.callbacks = pool.pop() if pool else []
        self._state = TRIGGERED
        self._ok = True
        self._value = None
        self.delay = delay
        sim._enqueue_at(sim._now + delay, 0, self)
