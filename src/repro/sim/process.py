"""Generator-coroutine processes on top of the timer agenda.

A *process* wraps a Python generator that models activity by yielding
numeric delays: ``yield 0.25`` sleeps that many time units.  It can be
interrupted asynchronously with :meth:`Process.interrupt`, which raises
:class:`Interrupt` at the current yield point.

A process's start, each wake-up and its exit are each one agenda fire
(:meth:`~repro.sim.engine.Simulator._schedule`).  A wake-up that an
interrupt made stale stays on the agenda and fires as a no-op.

A generator ends by returning or by not catching an :class:`Interrupt`.
Any other exception it raises propagates out of
:meth:`~repro.sim.engine.Simulator.run` (or out of the
:meth:`Process.interrupt` call that delivered it): a failed process
stops the run rather than vanishing from it.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator, TimerHandle

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Raised inside a process generator by :meth:`Process.interrupt`.

    Attributes
    ----------
    cause:
        Arbitrary object passed by the interrupter.
    """

    def __init__(self, cause: typing.Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


def _noop() -> None:
    """A stale wake-up's or an exit's agenda fire."""


class Process:
    """A running generator coroutine."""

    __slots__ = ("sim", "_generator", "_wake", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: typing.Generator,
        name: str | None = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self.sim = sim
        #: the generator while it runs; None once it has exited
        self._generator: typing.Generator | None = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: the agenda entry of the pending wake-up; the first one starts
        #: the generator at the current instant (through the agenda, so
        #: creation order, not call stack depth, decides ordering)
        self._wake: TimerHandle = sim._schedule(sim._now, self._resume)

    # -- public API --------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not exited."""
        return self._generator is not None

    def interrupt(self, cause: typing.Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its yield point.

        Interrupting a dead process raises ``RuntimeError``.  The
        interrupt is delivered immediately (synchronously): by the time
        this returns the generator has run to its next yield.
        """
        generator = self._generator
        if generator is None:
            raise RuntimeError(f"cannot interrupt dead process {self.name!r}")
        # the interrupted wait still fires when due, as a no-op
        self._wake._fn = _noop
        self._advance(generator.throw, Interrupt(cause))

    # -- driving the generator -----------------------------------------------
    def _resume(self) -> None:
        self._advance(self._generator.send, None)

    def _advance(self, resume: typing.Callable, value: typing.Any) -> None:
        """Run the generator to its next yield and schedule the wake-up."""
        sim = self.sim
        while True:
            try:
                delay = resume(value)
            except (StopIteration, Interrupt):
                self._generator = None
                sim._schedule(sim._now, _noop)
                return
            except BaseException:
                self._generator = None
                raise
            if isinstance(delay, (int, float)):
                if not delay >= 0:  # NaN fails this too
                    raise ValueError(
                        f"negative delay {delay!r}" if delay < 0
                        else f"delay {delay!r} is not a number"
                    )
                self._wake = sim._schedule(sim._now + delay, self._resume)
                return
            resume = self._generator.throw
            value = TypeError(
                f"process {self.name!r} yielded unwaitable {delay!r}; "
                "yield a numeric delay"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.is_alive else "dead"
        return f"<Process {self.name!r} {state}>"
