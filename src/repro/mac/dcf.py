"""The DCF engine: CSMA/CA with a pluggable backoff policy.

One :class:`DcfTransmitter` serves one station's contention-period
traffic.  It is event-driven (no per-slot events): when the medium goes
idle the remaining backoff becomes one expiry time; when the medium
goes busy the elapsed whole slots are subtracted and the countdown
waits for the next idle period — the standard freeze-and-resume
semantics, which the paper points out also auto-promotes stations that
have waited long.

The expiries of all DCFs on one channel live in a shared
:class:`_BackoffAgenda`.  Only the earliest holds a simulator agenda
entry, so a busy period cancels at most one entry however many
stations were counting down.  Each DCF reserves its insertion number
(:meth:`Simulator.reserve`) when it arms, and the entry is scheduled
with that number, so same-instant ties fire in the order per-station
timers would.  That a busy period may simply drop every frozen expiry
relies on every armed DCF being attached: :meth:`DcfTransmitter.
shutdown` withdraws the expiry and hands the entry on, and a departed
engine never arms again.

Faithful-to-the-paper simplifications (single BSS, all stations in
range):

* the ACK a receiver would send is put on the air by the engine itself
  SIFS after a correctly received frame — behaviourally identical on a
  broadcast medium and it spares every station a full receive path;
* EIFS is not modelled (the paper never mentions it); a failed exchange
  defers for the ACK-timeout and re-contends with a doubled window.
"""

from __future__ import annotations

import collections
import dataclasses
import operator
import typing

import numpy as np

from ..phy.channel import Channel, ChannelListener, TxOutcome
from ..phy.timing import PhyTiming
from ..sim.engine import Simulator, TimerHandle
from .backoff import BackoffPolicy
from .frames import Frame, FrameType
from .nav import Nav

__all__ = ["DcfTransmitter", "DcfStats"]

#: slack added when converting elapsed time to whole slots, to absorb
#: float rounding (fraction of one slot)
_SLOT_EPSILON = 1e-6

#: the order armed expiries fire in: time, then reserved insertion number
_DUE_ORDER = operator.attrgetter("_due", "_due_seq")


@dataclasses.dataclass
class DcfStats:
    """Counters exposed for tests and metrics."""

    enqueued: int = 0
    attempts: int = 0
    successes: int = 0
    failures: int = 0  # collided or corrupted attempts
    drops: int = 0  # frames abandoned after retry_limit
    idle_slots_observed: int = 0
    busy_freezes: int = 0  # countdowns frozen by a busy medium or a beacon
    rts_handshakes: int = 0


@dataclasses.dataclass
class _Entry:
    frame: Frame
    level: int
    on_done: typing.Callable[[bool], None] | None


class _BackoffAgenda:
    """The armed backoff expiries of every DCF on one channel.

    ``armed`` holds the DCFs counting down; only ``head``, the earliest
    by ``(_due, _due_seq)``, has a simulator entry (``handle``), keyed
    by the insertion number the head reserved when it armed.  A
    displaced head that becomes the earliest again is scheduled at that
    same number.  The DCFs edit ``armed``/``head`` inline on their hot
    callbacks (``_arm``, ``_freeze``); the methods here are the rare
    paths.  ``head`` is None while expiries remain only inside
    :meth:`fire`, until it promotes, and inside a busy fan-out, which
    freezes every armed DCF except same-instant ties.
    """

    __slots__ = ("sim", "armed", "head", "handle")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.armed: list[DcfTransmitter] = []
        self.head: DcfTransmitter | None = None
        self.handle: TimerHandle | None = None

    def promote(self) -> None:
        """Give the earliest armed expiry the agenda entry."""
        head = self.head = min(self.armed, key=_DUE_ORDER)
        self.handle = self.sim.call_at(head._due, self.fire, seq=head._due_seq)

    def fire(self) -> None:
        head = self.head
        assert head is not None
        self.armed.remove(head)
        self.head = self.handle = None
        head._backoff_complete()
        # ties at this instant kept their expiry through the busy fan-out
        if self.armed and self.head is None:
            self.promote()

    def withdraw(self, dcf: "DcfTransmitter") -> None:
        """Drop ``dcf``'s expiry outside a busy fan-out; hand the entry on."""
        self.armed.remove(dcf)
        if self.head is dcf:
            self.handle.cancel()
            self.head = self.handle = None
            if self.armed:
                self.promote()


class DcfTransmitter(ChannelListener):
    """CSMA/CA contention engine for a single station.

    Parameters
    ----------
    sim, channel, timing:
        Simulation substrate.
    policy:
        Backoff policy (standard BEB or the paper's priority scheme).
    rng:
        This station's random stream.
    station_id:
        Identifier stamped on outgoing frames.
    nav:
        The BSS-wide NAV (shared with all other stations).
    retry_limit:
        Attempts before a frame is dropped (802.11 long-retry default 7).
    rts_threshold:
        DATA frames whose payload exceeds this many bits are protected
        by an RTS/CTS handshake, so a collision costs only the short
        RTS instead of the whole frame.  (In this single-BSS model —
        no hidden terminals, per the paper — that collision-cost
        reduction is RTS/CTS's only effect.)  Default: disabled.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        timing: PhyTiming,
        policy: BackoffPolicy,
        rng: np.random.Generator,
        station_id: str,
        nav: Nav,
        retry_limit: int = 7,
        rts_threshold: float = float("inf"),
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.timing = timing
        self.policy = policy
        self.rng = rng
        self.station_id = station_id
        self.nav = nav
        self.retry_limit = retry_limit
        self.rts_threshold = rts_threshold
        self.stats = DcfStats()

        # hot-path constants: every derived duration below is a pure
        # function of the (immutable) timing bundle, and the per-level
        # IFS memo assumes the policy's AIFS surcharge is a static QoS
        # parameter (it is, for every policy in this repo — see
        # DESIGN.md "Performance")
        self._slot = timing.slot
        self._ack_timeout = timing.sifs + timing.ack_time() + timing.slot
        self._cts_timeout = (
            timing.sifs
            + timing.frame_duration(FrameType.CTS)
            + timing.slot
        )
        self._ifs_memo: dict[int, float] = {}
        # a policy that keeps both observation hooks as the inherited
        # no-ops is not called with idle-slot spans at all
        cls = type(policy)
        self._policy_observes = not (
            cls.observe_span is BackoffPolicy.observe_span
            and cls.observe_slots is BackoffPolicy.observe_slots
        )

        self._queue: collections.deque[_Entry] = collections.deque()
        self._head: _Entry | None = None
        self._stage = 0
        self._slots_left: int | None = None
        self._draw_value = 0
        self._count_begin: float | None = None
        #: counting down: ``_due`` is in the channel's backoff agenda
        self._armed = False
        self._due = 0.0
        self._due_seq = 0
        self._nav_timer: TimerHandle | None = None
        self._in_exchange = False
        #: set by :meth:`shutdown`; a departed engine starts no attempt
        self._departed = False
        #: optional :class:`repro.obs.trace.TraceRecorder` (``backoff``)
        self.trace = None

        agenda = channel.backoff_agenda
        if agenda is None:
            agenda = channel.backoff_agenda = _BackoffAgenda(sim)
        self._agenda = agenda
        channel.attach(self)

    # -- public API ----------------------------------------------------------
    def enqueue(
        self,
        frame: Frame,
        level: int,
        on_done: typing.Callable[[bool], None] | None = None,
    ) -> None:
        """Queue ``frame`` for contention at priority ``level``.

        ``on_done(success)`` fires when the frame is either acknowledged
        or dropped after the retry limit.
        """
        self.stats.enqueued += 1
        self._queue.append(_Entry(frame, level, on_done))
        if self._head is None and not self._in_exchange:
            self._start_next(fresh_arrival=True)

    @property
    def pending(self) -> int:
        """Frames waiting (including the one in contention)."""
        return len(self._queue) + (1 if self._head is not None else 0)

    @property
    def busy(self) -> bool:
        """True while a frame is queued, contending or mid-exchange."""
        return self._head is not None or bool(self._queue) or self._in_exchange

    def shutdown(self) -> None:
        """Detach from the channel (departing station).

        An exchange already on the air runs to its end, but the engine
        starts no new attempt: it arms no backoff and takes no next
        frame.
        """
        self._departed = True
        if self._armed:
            self._armed = False
            self._agenda.withdraw(self)
        self._count_begin = None
        if self._nav_timer is not None:
            self._nav_timer.cancel()
            self._nav_timer = None
        self.channel.detach(self)

    # -- contention machinery --------------------------------------------------
    def _ifs(self, level: int) -> float:
        """DIFS plus the policy's (static) AIFS surcharge for ``level``."""
        ifs = self._ifs_memo.get(level)
        if ifs is None:
            ifs = self._ifs_memo[level] = (
                self.timing.difs + self.policy.extra_ifs(level)
            )
        return ifs

    def _start_next(self, fresh_arrival: bool) -> None:
        if self._head is not None or not self._queue or self._departed:
            return
        self._head = self._queue.popleft()
        self._stage = 0
        now = self.sim.now
        ifs = self._ifs(self._head.level)
        if (
            fresh_arrival
            and not self.channel.is_busy
            and not self.nav.blocked(now)
            and self.channel.idle_duration(now) >= ifs - 1e-12
        ):
            # 802.11 immediate access: medium already idle for >= DIFS.
            self._slots_left = 0
            self._transmit()
            return
        self._draw_backoff()
        self._arm(now)

    def _draw_backoff(self) -> None:
        assert self._head is not None
        stage = min(self._stage, self.policy.max_stage())
        self._slots_left = self.policy.draw_slots(
            self._head.level, stage, self.rng
        )
        # the draw's absolute position inside the (possibly partitioned)
        # window, for positional channel observations
        self._draw_value = self._slots_left
        if self.trace is not None:
            offset, width = self.policy.draw_window(self._head.level, stage)
            self.trace.emit(
                self.sim.now, "backoff", "draw",
                station=self.station_id,
                level=self._head.level,
                stage=self._stage,
                slots=self._slots_left,
                window_offset=offset,
                window_width=width,
            )

    def _arm(self, now: float) -> None:
        """Start the backoff countdown if conditions allow.

        Also the medium-idle callback (``on_medium_idle`` below): every
        idle transition reaches every attached station, so the whole
        arm happens in this one body.
        """
        head = self._head
        if head is None or self._slots_left is None or self._armed:
            return
        channel = self.channel
        if channel._active:
            return  # on_medium_idle will re-arm
        until = self.nav.until
        if now < until:  # NAV set: virtual carrier sense says busy
            if self._nav_timer is None:
                self._nav_timer = self.sim.call_at(until, self._nav_expired)
            return
        # Slot counting begins DIFS (plus the level's AIFS surcharge,
        # if the policy differentiates IFS) after the medium went idle —
        # or now, whichever is later: a frame that arrived mid-idle
        # cannot claim credit for slots it never observed.
        ifs = self._ifs_memo.get(head.level)
        if ifs is None:
            ifs = self._ifs(head.level)
        begin = channel.idle_since + ifs
        if begin < now:
            begin = now
        self._count_begin = begin
        self._due = due = begin + self._slots_left * self._slot
        self._due_seq = seq = self.sim.reserve()
        self._armed = True
        agenda = self._agenda
        agenda.armed.append(self)
        # a later reservation never wins a tie, so only an earlier time
        # takes the agenda entry over
        first = agenda.head
        if first is None or due < first._due:
            if first is not None:
                agenda.handle.cancel()
            agenda.head = self
            agenda.handle = self.sim.call_at(due, agenda.fire, seq=seq)

    def _nav_expired(self) -> None:
        self._nav_timer = None
        self._arm(self.sim._now)

    def _freeze(self, now: float) -> None:
        """Subtract the whole slots counted before ``now``; stop counting.

        Also the medium-busy callback (``on_medium_busy`` below).  The
        frozen expiry leaves the agenda without handing the entry on:
        the same fan-out freezes every other armed DCF.
        """
        if not self._armed:
            return
        slots_left = self._slots_left
        begin = self._count_begin
        if begin is not None:
            elapsed = now - begin
            consumed = int(elapsed / self._slot + _SLOT_EPSILON) if elapsed > 0 else 0
            if consumed > slots_left:
                consumed = slots_left
            start = self._draw_value - slots_left
            self._slots_left = slots_left = slots_left - consumed
            self.stats.idle_slots_observed += consumed
            if self._policy_observes:
                self.policy.observe_span(start, start + consumed, interrupted=True)
        # If our own expiry is due exactly now (counter hit zero at this
        # very slot boundary) we are *also* transmitting in this slot:
        # keep the expiry so the collision actually happens.
        if slots_left == 0 and self._due <= now + 1e-15:
            self._count_begin = None
            return
        self.stats.busy_freezes += 1
        self._armed = False
        self._count_begin = None
        agenda = self._agenda
        agenda.armed.remove(self)
        if agenda.head is self:
            agenda.handle.cancel()
            agenda.head = agenda.handle = None

    # -- channel listener callbacks ----------------------------------------------
    # aliases, not wrappers: the engine's own arm/freeze calls go
    # through the underscored names and stay off the listener path
    on_medium_busy = _freeze
    on_medium_idle = _arm

    def on_frame(self, frame: Frame, ok: bool, now: float) -> None:
        if not ok:
            return
        ftype = frame.ftype
        if ftype is FrameType.BEACON:
            self.nav.set(now + frame.nav_duration)
            if self._armed:
                self._freeze(now)
                agenda = self._agenda
                if agenda.head is None and agenda.armed:
                    agenda.promote()
        elif ftype is FrameType.CF_END:
            self.nav.clear(now)
            # medium idle callback follows the CF-End and re-arms us

    # -- transmission ------------------------------------------------------------
    def _backoff_complete(self) -> None:
        """The agenda fired our expiry (already out of ``armed``)."""
        self._armed = False
        self._count_begin = None
        slots_left = self._slots_left
        if slots_left:
            self.stats.idle_slots_observed += slots_left
            if self._policy_observes:
                start = self._draw_value - slots_left
                self.policy.observe_span(start, self._draw_value, interrupted=False)
        self._slots_left = 0
        self._transmit()

    def _transmit(self) -> None:
        assert self._head is not None
        entry = self._head
        self._in_exchange = True
        self._slots_left = None
        self.stats.attempts += 1
        if (
            entry.frame.ftype is FrameType.DATA
            and entry.frame.payload_bits > self.rts_threshold
        ):
            self._send_rts(entry)
        else:
            self._send_data(entry)

    def _send_data(self, entry: _Entry) -> None:
        duration = entry.frame.airtime(self.timing)
        done = self.channel.transmit(entry.frame, duration, sender=self)
        done.add_callback(lambda ev: self._data_done(ev.value))

    # -- RTS/CTS handshake -------------------------------------------------
    def _send_rts(self, entry: _Entry) -> None:
        self.stats.rts_handshakes += 1
        rts = Frame(FrameType.RTS, src=entry.frame.src, dest=entry.frame.dest)
        done = self.channel.transmit(rts, rts.airtime(self.timing), sender=self)
        done.add_callback(lambda ev: self._rts_done(entry, ev.value))

    def _rts_done(self, entry: _Entry, outcome: TxOutcome) -> None:
        if outcome.ok:
            self.sim.call_in(self.timing.sifs, self._send_cts, entry)
        else:
            # no CTS will arrive; pay only the short CTS timeout
            self.sim.call_in(self._cts_timeout, self._resolve, False)

    def _send_cts(self, entry: _Entry) -> None:
        cts = Frame(FrameType.CTS, src=entry.frame.dest, dest=entry.frame.src)
        done = self.channel.transmit(cts, cts.airtime(self.timing), sender=self)

        def after(ev):
            if ev.value.ok:
                self.sim.call_in(self.timing.sifs, self._send_data, entry)
            else:
                self._resolve(False)

        done.add_callback(after)

    def _data_done(self, outcome: TxOutcome) -> None:
        entry = self._head
        assert entry is not None
        ftype = entry.frame.ftype
        needs_ack = ftype is FrameType.DATA or ftype is FrameType.REQUEST
        if not needs_ack:
            self._resolve(outcome.ok)
            return
        if outcome.ok:
            # Receiver ACKs after SIFS.  The engine puts the ACK on the
            # air itself (see module docstring).
            self.sim.call_in(self.timing.sifs, self._send_ack, entry)
        else:
            # No ACK will come; wait the ACK timeout, then recontend.
            self.sim.call_in(self._ack_timeout, self._resolve, False)

    def _send_ack(self, entry: _Entry) -> None:
        ack = Frame(FrameType.ACK, src=entry.frame.dest, dest=entry.frame.src)
        done = self.channel.transmit(ack, ack.airtime(self.timing), sender=self)
        done.add_callback(lambda ev: self._resolve(ev.value.ok))

    def _resolve(self, success: bool) -> None:
        entry = self._head
        assert entry is not None
        self._in_exchange = False
        self.policy.observe_outcome(success)
        if success:
            self.stats.successes += 1
            self._finish(entry, True)
            return
        self.stats.failures += 1
        self._stage += 1
        if self._stage >= self.retry_limit:
            self.stats.drops += 1
            self._finish(entry, False)
            return
        if self._departed:
            return  # the retry would be a new attempt
        self._draw_backoff()
        self._arm(self.sim._now)

    def _finish(self, entry: _Entry, success: bool) -> None:
        self._head = None
        self._stage = 0
        self._slots_left = None
        if entry.on_done is not None:
            entry.on_done(success)
        # Post-backoff: the next queued frame always contends afresh.
        if self._queue and self._head is None and not self._in_exchange:
            self._start_next(fresh_arrival=False)
