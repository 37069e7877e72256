"""The discrete-event simulation core.

:class:`Simulator` owns the clock and the agenda (a binary heap of
triggered events keyed by ``(time, priority, sequence)``).  It offers
three styles of modelling, all interoperable:

* **timer callbacks** — ``sim.call_at(t, fn)`` / ``sim.call_in(dt, fn)``;
* **events** — create an :class:`~repro.sim.events.Event` and trigger it;
* **processes** — generator coroutines spawned via :meth:`Simulator.process`.

Determinism: two events scheduled for the same instant fire in
``(priority, insertion order)`` — there is no reliance on hash order or
wall-clock anywhere, so a run is exactly reproducible from its seed.

Insertion numbers can be taken ahead of the entry that uses them:
:meth:`Simulator.reserve` hands out the next number and
``call_at(t, fn, seq=n)`` later schedules with it.  A component that
keeps many candidate deadlines but puts only the earliest on the agenda
(the DCF backoff agenda, :mod:`repro.mac.dcf`) reserves a number per
candidate, so whichever one ends up scheduled fires exactly where its
own ``call_at`` would have.

Hot-path layout (see DESIGN.md "Performance"):

* :meth:`Simulator.run` inlines the agenda loop — ``heappop`` is bound
  to a local, dispatch goes through the uniform ``_fire`` slot every
  agenda item carries (no ``isinstance``), and consecutive entries at
  the same timestamp are batched past the deadline/clock bookkeeping.
* Cancelled :class:`TimerHandle` *tombstones* are counted as they are
  created; once they outnumber the live half of the heap the agenda is
  compacted in place.  Tombstones are never dispatched and never count
  toward :attr:`Simulator.events_processed` — only live fires do.
* When ``step_observer`` is attached (the validation monitors'
  hook) the loop drops to an instrumented path with identical
  semantics; a detached simulator pays nothing for it.
"""

from __future__ import annotations

import heapq
import typing

from .events import Event, Timeout
from .process import Process

__all__ = ["Simulator", "StopSimulation", "TimerHandle"]

#: a heap must hold at least this many cancelled entries before a
#: tombstone compaction can trigger (tiny heaps are cheaper to drain)
_COMPACT_MIN_TOMBSTONES = 16

#: upper bound on the pooled callback lists / recycled Timeouts kept
#: per simulator (see DESIGN.md "Performance" for reuse rules)
_FREELIST_CAP = 256


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` early."""


class TimerHandle:
    """Cancellable handle returned by :meth:`Simulator.call_at`."""

    __slots__ = ("time", "_fn", "_args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        fn: typing.Callable,
        args: tuple,
        sim: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self._fn = fn
        self._args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent).

        The heap entry stays behind as a *tombstone*; the owning
        simulator counts it and compacts the agenda once tombstones
        outnumber live entries.
        """
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_tombstone()

    def _fire(self) -> None:
        if not self.cancelled:
            self._fn(*self._args)

    def __lt__(self, other: "TimerHandle") -> bool:
        # Agenda keys tie only when a reserved insertion number is
        # scheduled again after its entry was cancelled: the tombstone
        # and the live entry may pop in either order, so they compare
        # as equal.
        return False


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (default ``0.0``).

    Examples
    --------
    >>> sim = Simulator()
    >>> out = []
    >>> def proc(sim):
    ...     yield sim.timeout(1.5)
    ...     out.append(sim.now)
    >>> _ = sim.process(proc(sim))
    >>> sim.run()
    >>> out
    [1.5]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, typing.Any]] = []
        self._seq = 0
        self._running = False
        #: live agenda fires so far (telemetry for sweep runs);
        #: cancelled-timer tombstones are *not* counted
        self.events_processed = 0
        #: cancelled TimerHandle entries believed to still sit in the
        #: heap (advisory — compaction recomputes the exact set)
        self._tombstones = 0
        #: recycled empty callback lists shared by this sim's events
        self._cb_pool: list[list] = []
        #: recycled process-private Timeouts (see Process._wait_on)
        self._timeout_pool: list[Timeout] = []
        #: optional ``fn(time)`` called before each agenda entry fires
        #: (the validation monitors' clock-monotonicity hook)
        self.step_observer: typing.Callable[[float], None] | None = None

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def peek(self) -> float:
        """Time of the next live scheduled occurrence, or ``inf`` if none."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heapq.heappop(heap)
                if self._tombstones:
                    self._tombstones -= 1
                continue
            return entry[0]
        return float("inf")

    # -- tombstone accounting ---------------------------------------------
    def _note_tombstone(self) -> None:
        """A timer on the agenda was cancelled; maybe compact."""
        self._tombstones = tombstones = self._tombstones + 1
        if (
            tombstones > _COMPACT_MIN_TOMBSTONES
            and tombstones * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify, in place.

        In place matters: :meth:`run` holds a local alias of the heap
        list, so the list object's identity must survive compaction.
        Entry keys are untouched, so heap order (time, priority,
        insertion sequence) is exactly preserved.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)
        self._tombstones = 0

    # -- scheduling primitives --------------------------------------------
    def _push(self, time: float, priority: int, item: typing.Any) -> None:
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past ({time} < now={self._now})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, self._seq, item))

    def _enqueue_triggered(self, event: Event) -> None:
        """Place an already-triggered event on the agenda for *now*."""
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (self._now, 0, seq, event))

    def _enqueue_at(self, time: float, priority: int, event: Event) -> None:
        self._push(time, priority, event)

    def reserve(self) -> int:
        """Take the next insertion number without scheduling anything.

        Pass it later as ``call_at(..., seq=n)``: the entry then orders
        among same-time, same-priority entries as if it had been
        scheduled at the moment of the reservation.
        """
        self._seq = seq = self._seq + 1
        return seq

    def call_at(
        self,
        time: float,
        fn: typing.Callable,
        *args: typing.Any,
        priority: int = 0,
        seq: int | None = None,
    ) -> TimerHandle:
        """Run ``fn(*args)`` at absolute simulation ``time``; cancellable.

        ``seq`` is an insertion number from :meth:`reserve` (default: a
        fresh one).  Each reserved number must key at most one live
        entry; once that entry is cancelled the number may be scheduled
        again.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past ({time} < now={self._now})"
            )
        handle = TimerHandle(time, fn, args, self)
        if seq is None:
            self._seq = seq = self._seq + 1
        elif seq > self._seq:
            raise ValueError(f"insertion number {seq} was never reserved")
        heapq.heappush(self._heap, (time, priority, seq, handle))
        return handle

    def call_in(
        self, delay: float, fn: typing.Callable, *args: typing.Any, priority: int = 0
    ) -> TimerHandle:
        """Run ``fn(*args)`` after ``delay`` time units; cancellable."""
        # call_at's body, duplicated: this is the single most common
        # scheduling entrypoint and the extra frame is measurable
        time = self._now + delay
        if delay < 0:
            raise ValueError(
                f"cannot schedule in the past ({time} < now={self._now})"
            )
        handle = TimerHandle(time, fn, args, self)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (time, priority, seq, handle))
        return handle

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event` owned by this simulator."""
        return Event(self)

    def timeout(
        self, delay: float, value: typing.Any = None, priority: int = 0
    ) -> Timeout:
        """Create an event that fires ``delay`` from now."""
        return Timeout(self, delay, value=value, priority=priority)

    def process(self, generator: typing.Generator) -> Process:
        """Spawn a generator coroutine as a simulation process."""
        return Process(self, generator)

    # -- engine-private timeout recycling -----------------------------------
    def _acquire_timeout(self, delay: float) -> Timeout:
        """A Timeout for a process numeric yield, recycled when possible.

        Only :class:`~repro.sim.process.Process` may call this: the
        returned event is marked ``_pooled`` and goes back on the
        free-list by ``Process._resume`` once its fire was consumed.
        """
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout._reinit(delay)
            return timeout
        timeout = Timeout(self, delay)
        timeout._pooled = True
        return timeout

    def _release_timeout(self, timeout: Timeout) -> None:
        if len(self._timeout_pool) < _FREELIST_CAP:
            self._timeout_pool.append(timeout)

    # -- execution ----------------------------------------------------------
    def step(self) -> None:
        """Process the single next *live* agenda entry.

        Cancelled-timer tombstones encountered on the way are discarded
        without firing or counting.

        Raises
        ------
        IndexError
            If the agenda holds no live entry.
        """
        heap = self._heap
        while True:
            time, _prio, _seq, item = heapq.heappop(heap)
            if item.cancelled:
                if self._tombstones:
                    self._tombstones -= 1
                continue
            break
        self._now = time
        self.events_processed += 1
        if self.step_observer is not None:
            self.step_observer(time)
        item._fire()

    def _loop(self, deadline: float) -> None:
        """Drain the agenda up to ``deadline`` (inclusive).

        The deadline comparison is always made against the next *live*
        entry — leading tombstones are popped first, so the loop and
        :meth:`peek` agree on what the head of the agenda is.
        """
        if self.step_observer is not None:
            self._loop_instrumented(deadline)
            return
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            while heap:
                entry = heap[0]
                item = entry[3]
                if item.cancelled:
                    pop(heap)
                    if self._tombstones:
                        self._tombstones -= 1
                    continue
                time = entry[0]
                if time > deadline:
                    break
                pop(heap)
                self._now = time
                processed += 1
                item._fire()
                # batch: everything else scheduled for this same instant
                # skips the deadline check and the clock write
                while heap:
                    entry = heap[0]
                    if entry[0] != time:
                        break
                    item = entry[3]
                    pop(heap)
                    if item.cancelled:
                        if self._tombstones:
                            self._tombstones -= 1
                        continue
                    processed += 1
                    item._fire()
        finally:
            self.events_processed += processed

    def _loop_instrumented(self, deadline: float) -> None:
        """Same semantics as the fast loop, one entry per :meth:`step`."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heapq.heappop(heap)
                if self._tombstones:
                    self._tombstones -= 1
                continue
            if entry[0] > deadline:
                break
            self.step()

    def run(self, until: float | Event | None = None) -> typing.Any:
        """Run until the agenda drains, a deadline, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run to agenda exhaustion.  A number — run until the
            clock would pass it (the clock is then set to it).  An
            :class:`Event` — run until that event is processed, returning
            its value (at once, if it already was).
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        self._running = True
        try:
            if isinstance(until, Event):
                sentinel = until
                if sentinel.processed:
                    return sentinel.value
                result: list[typing.Any] = []

                def _stop(ev: Event) -> None:
                    result.append(ev.value)
                    raise StopSimulation

                sentinel.add_callback(_stop)
                try:
                    self._loop(float("inf"))
                except StopSimulation:
                    return result[0]
                if not sentinel.processed:
                    raise RuntimeError(
                        "run(until=event): agenda drained before event fired"
                    )
                return result[0]

            deadline = float("inf") if until is None else float(until)
            if deadline < self._now:
                raise ValueError(f"deadline {deadline} is in the past")
            self._loop(deadline)
            if deadline != float("inf"):
                self._now = deadline
            return None
        finally:
            self._running = False
