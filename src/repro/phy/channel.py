"""Broadcast radio channel with collision detection.

Single-BSS assumptions straight from the paper's simulation model:
every station hears every other (no hidden/exposed terminals, no
capture effect, no interference from neighbouring BSSs).  The channel
is therefore one shared medium:

* it is **busy** whenever at least one transmission is in flight;
* two transmissions overlapping in time **collide** and both are lost;
* a non-collided frame is additionally subjected to the BER frame-error
  model (``(1-BER)^L``).

Stations interact through :class:`ChannelListener` callbacks (carrier
sense transitions and frame delivery) plus :meth:`Channel.transmit`.
"""

from __future__ import annotations

import dataclasses
import typing

from ..sim.engine import Simulator
from .error_model import BitErrorModel

__all__ = ["Channel", "ChannelListener", "TxOutcome", "Transmission"]


class ChannelListener:
    """Callbacks a station registers with the channel (all optional).

    A listener whose class inherits one of these no-ops is not called
    for that callback at all; the channel decides this per class when
    the listener attaches.
    """

    def on_medium_busy(self, now: float) -> None:
        """Medium transitioned idle → busy."""

    def on_medium_idle(self, now: float) -> None:
        """Medium transitioned busy → idle."""

    def on_frame(self, frame: typing.Any, ok: bool, now: float) -> None:
        """A frame finished on the air.

        Called for every attached listener except the sender; ``ok`` is
        False for collided or bit-error-corrupted frames.  Addressing is
        the listener's job (frames carry ``dest``).
        """


@dataclasses.dataclass(slots=True)
class Transmission:
    """One in-flight frame."""

    frame: typing.Any
    sender: typing.Any
    start: float
    end: float
    collided: bool = False
    #: ``fn(outcome)`` the sender wants called once the frame is done
    on_done: typing.Callable[["TxOutcome"], None] | None = None


class TxOutcome:
    """Result of a completed transmission, delivered to the sender.

    ``ok`` is precomputed at construction (it is read once per attached
    listener on the hot path); treat instances as immutable.
    """

    __slots__ = ("frame", "collided", "bit_errors", "ok")

    def __init__(
        self, frame: typing.Any, collided: bool, bit_errors: bool
    ) -> None:
        self.frame = frame
        self.collided = collided
        self.bit_errors = bit_errors
        self.ok = not (collided or bit_errors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TxOutcome(frame={self.frame!r}, collided={self.collided}, "
            f"bit_errors={self.bit_errors})"
        )


def _ignore(outcome: TxOutcome) -> None:
    """The completion fire of a transmission nobody waits on."""


class Channel:
    """The shared medium.

    Parameters
    ----------
    sim:
        Owning simulator.
    error_model:
        BER frame-corruption model applied to non-collided frames.
    """

    def __init__(self, sim: Simulator, error_model: BitErrorModel) -> None:
        self.sim = sim
        self.error_model = error_model
        self._listeners: list[ChannelListener] = []
        #: immutable snapshots of ``_listeners``, rebuilt on attach/detach —
        #: the hot path iterates these instead of copying the list per
        #: frame; each carries only the listeners whose class overrides
        #: that callback (an inherited no-op is left out): busy/idle as
        #: pre-bound methods, the frame fan-out as (listener, bound
        #: on_frame) pairs so the sender can be skipped by identity
        self._fanout_busy: tuple = ()
        self._fanout_idle: tuple = ()
        self._fanout_frame: tuple = ()
        #: pre-bound BER sampler (the model is fixed at construction)
        self._survives = error_model.frame_survives
        self._active: list[Transmission] = []
        #: time the medium last became idle (for DIFS/PIFS deference)
        self.idle_since: float = sim.now
        #: cumulative busy airtime (for utilization accounting)
        self.busy_time: float = 0.0
        self._busy_started: float | None = None
        #: optional :class:`repro.faults.injector.FrameLossInjector`
        #: consulted (``corrupts(frame, now)``) for every frame that
        #: survived collisions and the BER model — targeted fault
        #: injection rides on top of the physical error processes
        self.fault_injector = None
        #: optional :class:`repro.obs.trace.TraceRecorder` (``frame``
        #: category); None keeps the hot path to a single guard
        self.trace = None
        #: the backoff agenda the DCFs on this channel share, created
        #: (and attached) by the first one (see :mod:`repro.mac.dcf`)
        self.backoff_agenda = None

    # -- attachment ----------------------------------------------------------
    def attach(self, listener: ChannelListener) -> None:
        """Register a listener for carrier-sense and frame callbacks."""
        if listener in self._listeners:
            raise ValueError("listener already attached")
        self._listeners.append(listener)
        self._rebuild_fanout()

    def detach(self, listener: ChannelListener) -> None:
        """Remove a listener (e.g. a departing station)."""
        self._listeners.remove(listener)
        self._rebuild_fanout()

    def _rebuild_fanout(self) -> None:
        listeners = self._listeners
        # looked up at rebuild time, not import time, so a wrapper
        # patched over a ChannelListener no-op still counts as the no-op
        noop_busy = ChannelListener.on_medium_busy
        noop_idle = ChannelListener.on_medium_idle
        noop_frame = ChannelListener.on_frame
        self._fanout_busy = tuple(
            l.on_medium_busy for l in listeners
            if type(l).on_medium_busy is not noop_busy
        )
        self._fanout_idle = tuple(
            l.on_medium_idle for l in listeners
            if type(l).on_medium_idle is not noop_idle
        )
        self._fanout_frame = tuple(
            (l, l.on_frame) for l in listeners
            if type(l).on_frame is not noop_frame
        )

    # -- sensing ---------------------------------------------------------------
    @property
    def is_busy(self) -> bool:
        """True while at least one transmission is in flight."""
        return bool(self._active)

    def idle_duration(self, now: float) -> float:
        """How long the medium has been continuously idle (0 if busy)."""
        if self._active:
            return 0.0
        return now - self.idle_since

    def utilization(self, now: float) -> float:
        """Fraction of elapsed time the medium has been busy."""
        busy = self.busy_time
        if self._busy_started is not None:
            busy += now - self._busy_started
        return busy / now if now > 0 else 0.0

    # -- transmission -----------------------------------------------------------
    def transmit(
        self,
        frame: typing.Any,
        duration: float,
        sender: typing.Any,
        on_done: typing.Callable[[TxOutcome], None] | None = None,
    ) -> None:
        """Put ``frame`` on the air for ``duration`` seconds.

        When the transmission ends, ``on_done`` is called with its
        :class:`TxOutcome` — after the receivers' ``on_frame`` and the
        idle announcement, as its own agenda fire (which happens even
        when ``on_done`` is None).  Overlap with any other transmission
        collides **both**.  A duration that is not positive, NaN
        included, raises ``ValueError``.
        """
        if not duration > 0:
            raise ValueError(f"transmission duration must be > 0, got {duration}")
        sim = self.sim
        now = sim._now
        tx = Transmission(frame, sender, now, now + duration, False, on_done)
        active = self._active
        if active:
            # Overlap: everything currently in flight (and this frame)
            # is corrupted.
            tx.collided = True
            for other in active:
                other.collided = True
        active.append(tx)
        if len(active) == 1:
            self._busy_started = now
            for on_busy in self._fanout_busy:
                on_busy(now)
        sim.call_at(tx.end, self._finish, tx, priority=-1)

    def _finish(self, tx: Transmission) -> None:
        now = self.sim._now
        active = self._active
        active.remove(tx)
        frame = tx.frame
        collided = tx.collided
        bit_errors = False
        if not collided:
            frame_bits = getattr(frame, "total_bits", 0)
            bit_errors = not self._survives(frame_bits)
            if not bit_errors and self.fault_injector is not None:
                bit_errors = self.fault_injector.corrupts(frame, now)
        outcome = TxOutcome(frame, collided, bit_errors)
        ok = outcome.ok
        if self.trace is not None:
            ftype = getattr(frame, "ftype", None)
            self.trace.emit(
                now, "frame", "tx",
                ftype=getattr(ftype, "value", ftype),
                src=getattr(frame, "src", None),
                dest=getattr(frame, "dest", None),
                start=tx.start,
                ok=ok,
                collided=collided,
                bit_errors=bit_errors,
            )
        if not active:
            self.idle_since = now
            if self._busy_started is not None:
                self.busy_time += now - self._busy_started
                self._busy_started = None
        # Deliver to receivers first, then schedule the sender's
        # completion, then announce idle — so receivers see the frame
        # before anyone reacts to the idle medium.
        sender = tx.sender
        for listener, on_frame in self._fanout_frame:
            if listener is not sender:
                on_frame(frame, ok, now)
        on_done = tx.on_done
        self.sim._schedule(now, _ignore if on_done is None else on_done, outcome)
        if not active:
            for on_idle in self._fanout_idle:
                on_idle(now)
