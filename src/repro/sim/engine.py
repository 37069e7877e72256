"""The discrete-event simulation core.

:class:`Simulator` owns the clock and the agenda: a binary heap of
:class:`TimerHandle` entries keyed by ``(time, priority, sequence)``.
Models schedule on it in two interoperable styles:

* **timer callbacks** — ``sim.call_at(t, fn)`` / ``sim.call_in(dt, fn)``;
* **processes** — generator coroutines spawned via
  :meth:`Simulator.process` that ``yield`` numeric delays.

A process's start, wake-ups and exit, and a channel transmission's
completion, go on the same agenda through the kernel-private
:meth:`Simulator._schedule`: each is one agenda fire, without counting
as a model timer.

Determinism: two entries scheduled for the same instant fire in
``(priority, insertion order)`` — there is no reliance on hash order or
wall-clock anywhere, so a run is exactly reproducible from its seed.

Insertion numbers can be taken ahead of the entry that uses them:
:meth:`Simulator.reserve` hands out the next number and
``call_at(t, fn, seq=n)`` later schedules with it.  A component that
keeps many candidate deadlines but puts only the earliest on the agenda
(the DCF backoff agenda, :mod:`repro.mac.dcf`) reserves a number when it
sets a deadline, so whichever one ends up scheduled fires exactly where
its own ``call_at`` would have.  Deadlines set together may share one
number if the component orders their ties itself: the DCF agenda
reserves one per armed idle transition, not one per station, and breaks
ties by fan-out index.

Hot-path layout (see DESIGN.md "Performance"):

* :meth:`Simulator.run` inlines the agenda loop — ``heappop`` is bound
  to a local, dispatch calls the handle's callback directly, and
  consecutive entries at the same timestamp are batched past the
  deadline/clock bookkeeping.
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

from .process import Process

__all__ = ["Simulator", "TimerHandle"]

#: a heap must hold at least this many cancelled entries before a
#: tombstone compaction can trigger (tiny heaps are cheaper to drain)
_COMPACT_MIN_TOMBSTONES = 16


class TimerHandle:
    """One agenda entry: ``fn(*args)`` at ``time``, cancellable.

    :meth:`Simulator.call_at` and :meth:`Simulator.call_in` return one;
    the kernel's own process and transmission fires are handles too.
    """

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
    ...     yield 1.5
    ...     out.append(sim.now)
    >>> _ = sim.process(proc(sim))
    >>> sim.run()
    >>> out
    [1.5]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, TimerHandle]] = []
        self._seq = 0
        self._running = False
        #: live agenda fires so far (telemetry for sweep runs);
        #: cancelled-timer tombstones are *not* counted
        self.events_processed = 0
        #: cancelled TimerHandle entries believed to still sit in the
        #: heap (advisory — compaction recomputes the exact set)
        self._tombstones = 0
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
    def _schedule(
        self, time: float, fn: typing.Callable, *args: typing.Any
    ) -> TimerHandle:
        """Run ``fn(*args)`` at ``time`` (priority 0): kernel-internal.

        Process starts, wake-ups and exits and channel transmission
        completions come through here rather than :meth:`call_at`, so
        they are agenda fires but not model timers.  ``time`` is never
        in the past: callers pass *now* or *now* plus a checked delay.
        """
        handle = TimerHandle(time, fn, args)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (time, 0, seq, handle))
        return handle

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
        again.  A ``time`` before *now*, or NaN, raises ``ValueError``.
        """
        # written so that NaN fails it too: every comparison with NaN is
        # false, and a NaN key would break the heap order
        if not time >= self._now:
            raise ValueError(
                f"cannot schedule at {time} (now={self._now})"
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
        """Run ``fn(*args)`` after ``delay`` time units; cancellable.

        A negative or NaN ``delay`` raises ``ValueError``.
        """
        # call_at's body, duplicated: this is the single most common
        # scheduling entrypoint and the extra frame is measurable
        time = self._now + delay
        if not delay >= 0:
            raise ValueError(
                f"cannot schedule after a delay of {delay} (now={self._now})"
            )
        handle = TimerHandle(time, fn, args, self)
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (time, priority, seq, handle))
        return handle

    def process(self, generator: typing.Generator) -> Process:
        """Spawn a generator coroutine as a simulation process."""
        return Process(self, generator)

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
        item._fn(*item._args)

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
                item._fn(*item._args)
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
                    item._fn(*item._args)
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

    def run(self, until: float | None = None) -> None:
        """Run until the agenda drains or the clock would pass ``until``.

        Parameters
        ----------
        until:
            ``None`` — run to agenda exhaustion.  A number — run until the
            clock would pass it (the clock is then set to it).  A number
            before *now*, or NaN, raises ``ValueError``.

        An exception raised by a timer callback or a process body
        propagates out of this call.
        """
        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        deadline = float("inf") if until is None else float(until)
        if not deadline >= self._now:
            raise ValueError(f"deadline {deadline} is not at or after now={self._now}")
        self._running = True
        try:
            self._loop(deadline)
        finally:
            self._running = False
        if deadline != float("inf"):
            self._now = deadline
