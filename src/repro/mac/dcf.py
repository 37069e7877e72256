"""The DCF engine: CSMA/CA with a pluggable backoff policy.

One :class:`DcfTransmitter` serves one station's contention-period
traffic.  It is event-driven (no per-slot events): when the medium goes
idle the remaining backoff becomes one expiry time; when the medium
goes busy the elapsed whole slots are subtracted and the countdown
waits for the next idle period — the standard freeze-and-resume
semantics, which the paper points out also auto-promotes stations that
have waited long.

The DCFs on one channel share a :class:`_BackoffAgenda`, the channel's
only busy/idle listener for them.  It counts their backoff on one idle-
slot clock per IFS class (:class:`_SlotClock`), the way slot-level
802.11 models do: a busy or idle transition costs one step per class,
not one freeze or re-arm per station.  A DCF that arms outside an idle
transition (a fresh arrival, a retry, a NAV-timer expiry) keeps its
own expiry until the next busy transition, then joins its class.  Of
all those expiries only the earliest holds a simulator agenda entry.
Each idle transition reserves one insertion number
(:meth:`Simulator.reserve`) for every clock, and a per-station arm
reserves its own; entries are scheduled with that number and ties go
to the lower fan-out index, so same-instant ties fire in the order
per-station timers would.  If a DCF's policy observes idle slots, each
busy transition reports the slots every countdown it stopped counted,
in fan-out order, whether the countdown was on a clock or armed alone.

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
import heapq
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

#: the order armed expiries fire in: time, reserved insertion number,
#: then fan-out index (members of the clocks started by one idle
#: transition share its number)
_DUE_ORDER = operator.attrgetter("_due", "_due_seq", "_index")
_FANOUT_ORDER = operator.attrgetter("_index")


@dataclasses.dataclass
class DcfStats:
    """Counters exposed for tests and metrics."""

    enqueued: int = 0
    attempts: int = 0
    successes: int = 0
    failures: int = 0  # collided or corrupted attempts
    drops: int = 0  # frames abandoned after retry_limit
    idle_slots_observed: int = 0
    busy_freezes: int = 0  # countdowns frozen by a busy medium


@dataclasses.dataclass
class _Entry:
    frame: Frame
    level: int
    on_done: typing.Callable[[bool], None] | None


class _SlotClock:
    """One idle-slot clock: the DCFs whose current frame waits one IFS.

    ``members`` is a heap of ``(target, fan-out index, dcf)``; a member
    has ``target - consumed`` slots left.  ``consumed`` counts the idle
    slots the clock counted while armed and ``freezes`` the busy
    transitions that stopped it; a member settles both into its
    :class:`DcfStats` when it leaves.  The clock is ``counting`` from a
    NAV-clear idle transition to the next busy one, on a slot grid
    starting at ``begin``.
    """

    __slots__ = ("ifs", "begin", "counting", "consumed", "freezes", "members")

    def __init__(self, ifs: float) -> None:
        self.ifs = ifs
        self.begin = 0.0
        self.counting = False
        self.consumed = 0
        self.freezes = 0
        self.members: list[tuple[int, int, DcfTransmitter]] = []


class _BackoffAgenda(ChannelListener):
    """The backoff countdowns of every DCF on one channel.

    The channel's only busy/idle listener for its DCFs.  A countdown
    is either on its IFS class's clock in ``clocks`` or a per-station
    expiry in ``armed``.  Only ``head``, the earliest by ``(due,
    insertion number, fan-out index)``, has a simulator entry
    (``handle``).  A displaced head that becomes the earliest again is
    scheduled at its same number; ``seq`` is the one the last armed
    idle transition reserved for the clocks.

    Every DCF on the channel shares the first one's NAV and slot time;
    :meth:`attach` refuses any other.  It also refuses a second policy
    object when either policy infers the contender count from the whole
    channel (``BackoffPolicy.infers_contenders``, the paper's
    ``AdaptiveCW``).  ``observing`` is set once a DCF
    attaches whose policy observes idle slots: from then on a busy
    transition reports each stopped countdown's slots to its policy.

    ``loose`` holds DCFs that went NAV-waiting mid-idle; the next busy
    transition puts them on their clocks.  ``head`` is None while
    expiries remain only inside :meth:`fire`, until it promotes, and
    inside a busy transition, which freezes every armed DCF except
    same-instant ties.
    """

    __slots__ = (
        "sim", "nav", "slot", "policy", "armed", "head", "handle", "clocks",
        "seq", "loose", "observing", "_attached",
    )

    def __init__(
        self, sim: Simulator, channel: Channel, nav: Nav, slot: float,
        policy: BackoffPolicy,
    ) -> None:
        self.sim = sim
        self.nav = nav
        self.slot = slot
        self.policy = policy
        self.armed: list[DcfTransmitter] = []
        self.head: DcfTransmitter | None = None
        self.handle: TimerHandle | None = None
        self.clocks: dict[float, _SlotClock] = {}
        self.seq = 0
        self.loose: list[DcfTransmitter] = []
        self.observing = False
        self._attached = 0
        channel.attach(self)

    # -- membership ------------------------------------------------------------
    def attach(self, dcf: "DcfTransmitter") -> None:
        """Give ``dcf`` its fan-out index; note whether its policy observes."""
        if dcf.nav is not self.nav:
            raise ValueError(
                f"DCF {dcf.station_id!r} has its own NAV; "
                "the DCFs on one channel share one"
            )
        if dcf._slot != self.slot:
            raise ValueError(
                f"DCF {dcf.station_id!r} counts {dcf._slot} s slots; "
                f"this channel's DCFs count {self.slot} s slots"
            )
        policy = dcf.policy
        if policy is not self.policy and (
            policy.infers_contenders or self.policy.infers_contenders
        ):
            inferring = policy if policy.infers_contenders else self.policy
            raise ValueError(
                f"DCF {dcf.station_id!r} brings a second backoff policy: "
                f"{type(inferring).__name__} infers the contender count "
                "from the whole channel, so the DCFs on its channel share one"
            )
        dcf._index = self._attached
        self._attached += 1
        if dcf._policy_observes:
            self.observing = True

    def detach(self, dcf: "DcfTransmitter") -> None:
        """Drop ``dcf``'s countdown outside a transition; hand the entry on."""
        if dcf._clock is not None:
            self.leave(dcf)
        if dcf._armed:
            dcf._armed = False
            self.armed.remove(dcf)
            if self.head is dcf:
                self.handle.cancel()
                self.head = self.handle = None
                self.promote()
        if dcf in self.loose:
            self.loose = [other for other in self.loose if other is not dcf]

    def join(self, dcf: "DcfTransmitter") -> None:
        """Put a frozen countdown on its IFS class's (stopped) clock."""
        ifs = dcf._ifs(dcf._head.level)
        clock = self.clocks.get(ifs)
        if clock is None:
            clock = self.clocks[ifs] = _SlotClock(ifs)
        consumed = clock.consumed
        dcf._clock = clock
        dcf._clock_entry = entry = (consumed + dcf._slots_left, dcf._index, dcf)
        dcf._clock_slots = consumed
        dcf._clock_freezes = clock.freezes
        heapq.heappush(clock.members, entry)

    def leave(self, dcf: "DcfTransmitter") -> None:
        """Take ``dcf`` off its clock's heap and back to per-station fields."""
        members = dcf._clock.members
        members.remove(dcf._clock_entry)
        heapq.heapify(members)
        self.unclock(dcf)

    def unclock(self, dcf: "DcfTransmitter") -> None:
        """Move a member, already off its clock's heap, to per-station fields.

        A member of a counting clock comes back armed, at the due time
        and insertion number its clock gave it.
        """
        clock = dcf._clock
        dcf._settle(clock)
        dcf._slots_left = left = dcf._clock_entry[0] - clock.consumed
        dcf._clock = dcf._clock_entry = None
        if clock.counting:
            dcf._count_begin = begin = clock.begin
            dcf._due = begin + left * self.slot
            dcf._due_seq = self.seq
            dcf._armed = True
            self.armed.append(dcf)

    # -- the agenda entry --------------------------------------------------------
    def promote(self) -> None:
        """Give the earliest countdown, if any, the agenda entry."""
        head = min(self.armed, key=_DUE_ORDER) if self.armed else None
        if head is not None:
            key = (head._due, head._due_seq, head._index)
        for clock in self.clocks.values():
            if clock.counting and clock.members:
                target, index, dcf = clock.members[0]
                due = clock.begin + (target - clock.consumed) * self.slot
                if head is None or (due, self.seq, index) < key:
                    head, key = dcf, (due, self.seq, index)
        if head is not None:
            self.head = head
            self.handle = self.sim.call_at(key[0], self.fire, seq=key[1])

    def fire(self) -> None:
        head = self.head
        assert head is not None
        self.head = self.handle = None
        clock = head._clock
        if clock is not None:
            heapq.heappop(clock.members)  # a clock's head is its earliest member
            self.unclock(head)
        self.armed.remove(head)
        head._backoff_complete()
        # ties at this instant kept their expiry through the busy transition
        if self.armed and self.head is None:
            self.promote()

    # -- channel listener callbacks ----------------------------------------------
    def on_medium_busy(self, now: float) -> None:
        # (fan-out index, slots counted, dcf) of every stopped countdown
        observed = [] if self.observing else None
        slot = self.slot
        for clock in self.clocks.values():
            if not clock.counting:
                continue
            elapsed = now - clock.begin
            limit = clock.consumed + (
                int(elapsed / slot + _SLOT_EPSILON) if elapsed > 0 else 0
            )
            members = clock.members
            # members whose count runs out at this boundary (ties with
            # the sender, float-capped counts) take the per-station path
            while members and members[0][0] <= limit:
                self.unclock(heapq.heappop(members)[2])
            if observed is not None:
                slots = limit - clock.consumed
                observed += [(index, slots, dcf) for _, index, dcf in members]
            clock.consumed = limit
            clock.freezes += 1
            clock.counting = False
        head = self.head
        if head is not None and head._clock is not None:
            self.handle.cancel()
            self.head = self.handle = None
        armed = self.armed
        if armed:
            for dcf in armed[:]:
                slots = dcf._freeze(now)
                if observed is not None:
                    observed.append((dcf._index, slots, dcf))
                if not dcf._armed:
                    self.join(dcf)
        if self.loose:
            for dcf in self.loose:
                dcf._arm(now)
            self.loose.clear()
        if observed:
            observed.sort()  # fan-out indices are unique
            for _, slots, dcf in observed:
                dcf.policy.observe_slots(slots, 1)
        if armed and self.head is None:
            self.promote()

    def on_medium_idle(self, now: float) -> None:
        if now < self.nav.until:
            # NAV set: each member without a NAV timer takes its own, in
            # fan-out order
            waiting = [
                entry[2] for clock in self.clocks.values() for entry in clock.members
                if entry[2]._nav_timer is None
            ]
            if waiting:
                waiting.sort(key=_FANOUT_ORDER)
                for dcf in waiting:
                    dcf._arm(now)
            return
        slot = self.slot
        seq = 0
        head = None
        for clock in self.clocks.values():
            members = clock.members
            if not members:
                continue
            if not seq:
                self.seq = seq = self.sim.reserve()
            clock.counting = True
            clock.begin = begin = now + clock.ifs
            target, index, dcf = members[0]
            due = begin + (target - clock.consumed) * slot
            if head is None or due < head_due or (due == head_due and index < head_index):
                head, head_due, head_index = dcf, due, index
        if head is None:
            return
        # an expiry armed before this transition holds an earlier
        # reservation, so only an earlier time takes the entry over
        first = self.head
        if first is None or head_due < self.handle.time:
            if first is not None:
                self.handle.cancel()
            self.head = head
            self.handle = self.sim.call_at(head_due, self.fire, seq=seq)


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
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.timing = timing
        self.policy = policy
        self.rng = rng
        self.station_id = station_id
        self.nav = nav
        self.retry_limit = retry_limit
        self._stats = DcfStats()

        # hot-path constants: every derived duration below is a pure
        # function of the (immutable) timing bundle, and the per-level
        # IFS memo assumes the policy's AIFS surcharge is a static QoS
        # parameter (it is, for every policy in this repo — see
        # DESIGN.md "Performance")
        self._slot = timing.slot
        self._ack_airtime = timing.ack_time()
        self._ack_timeout = timing.sifs + self._ack_airtime + timing.slot
        self._ifs_memo: dict[int, float] = {}
        # a policy that keeps an inherited no-op observation hook is not
        # called with idle-slot counts or outcomes at all
        self._policy_observes = (
            type(policy).observe_slots is not BackoffPolicy.observe_slots
        )
        self._policy_observes_outcome = (
            type(policy).observe_outcome is not BackoffPolicy.observe_outcome
        )

        self._queue: collections.deque[_Entry] = collections.deque()
        self._head: _Entry | None = None
        self._stage = 0
        self._slots_left: int | None = None
        self._count_begin: float | None = None
        #: counting down on its own: ``_due`` is in the backoff agenda
        self._armed = False
        self._due = 0.0
        self._due_seq = 0
        #: counting on a slot clock: the clock, this DCF's heap entry
        #: and the clock's counters when it joined (or last settled)
        self._clock: _SlotClock | None = None
        self._clock_entry: tuple | None = None
        self._clock_slots = 0
        self._clock_freezes = 0
        self._nav_timer: TimerHandle | None = None
        self._in_exchange = False
        #: set by :meth:`shutdown`; a departed engine starts no attempt
        self._departed = False
        #: optional :class:`repro.obs.trace.TraceRecorder` (``backoff``)
        self.trace = None

        agenda = channel.backoff_agenda
        if agenda is None:
            agenda = channel.backoff_agenda = _BackoffAgenda(
                sim, channel, nav, self._slot, policy
            )
        self._agenda = agenda
        agenda.attach(self)
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
        self._stats.enqueued += 1
        self._queue.append(_Entry(frame, level, on_done))
        if self._head is None and not self._in_exchange:
            self._start_next(fresh_arrival=True)

    @property
    def stats(self) -> DcfStats:
        """Counters exposed for tests and metrics, slot-clock counts settled."""
        if self._clock is not None:
            self._settle(self._clock)
        return self._stats

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
        self._agenda.detach(self)
        self._count_begin = None
        if self._nav_timer is not None:
            self._nav_timer.cancel()
            self._nav_timer = None
        self.channel.detach(self)

    # -- contention machinery --------------------------------------------------
    def _settle(self, clock: _SlotClock) -> None:
        """Credit the slots and freezes ``clock`` counted since the last settle."""
        stats = self._stats
        stats.idle_slots_observed += clock.consumed - self._clock_slots
        stats.busy_freezes += clock.freezes - self._clock_freezes
        self._clock_slots = clock.consumed
        self._clock_freezes = clock.freezes

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

        A countdown that has to wait for the next idle transition waits
        on its class's slot clock.
        """
        head = self._head
        if head is None or self._slots_left is None or self._armed:
            return
        clock = self._clock
        if clock is not None and clock.counting:
            return
        channel = self.channel
        agenda = self._agenda
        if channel._active:
            if clock is None:
                agenda.join(self)
            return  # the next idle transition re-arms
        until = self.nav.until
        if now < until:  # NAV set: virtual carrier sense says busy
            if self._nav_timer is None:
                self._nav_timer = self.sim.call_at(until, self._nav_expired)
            if clock is None:
                agenda.loose.append(self)
            return
        if clock is not None:
            # the NAV expired on its own: count alone from here
            agenda.leave(self)
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
        agenda.armed.append(self)
        # a later reservation never wins a tie, so only an earlier time
        # takes the agenda entry over
        first = agenda.head
        if first is None or due < agenda.handle.time:
            if first is not None:
                agenda.handle.cancel()
            agenda.head = self
            agenda.handle = self.sim.call_at(due, agenda.fire, seq=seq)

    def _nav_expired(self) -> None:
        self._nav_timer = None
        self._arm(self.sim._now)

    def _freeze(self, now: float) -> int:
        """Subtract the whole slots counted before ``now``; stop counting.

        The busy step of an armed countdown; returns the slots it
        counted, for the agenda to report.  The frozen expiry leaves
        the agenda without handing the entry on: the same busy
        transition freezes every other armed DCF.
        """
        slots_left = self._slots_left
        elapsed = now - self._count_begin
        consumed = int(elapsed / self._slot + _SLOT_EPSILON) if elapsed > 0 else 0
        if consumed > slots_left:
            consumed = slots_left
        self._slots_left = slots_left = slots_left - consumed
        self._stats.idle_slots_observed += consumed
        # If our own expiry is due exactly now (counter hit zero at this
        # very slot boundary) we are *also* transmitting in this slot:
        # keep the expiry so the collision actually happens.
        if slots_left == 0 and self._due <= now + 1e-15:
            self._count_begin = None
            return consumed
        self._stats.busy_freezes += 1
        self._armed = False
        self._count_begin = None
        agenda = self._agenda
        agenda.armed.remove(self)
        if agenda.head is self:
            agenda.handle.cancel()
            agenda.head = agenda.handle = None
        return consumed

    # -- channel listener callback ------------------------------------------------
    def on_frame(self, frame: Frame, ok: bool, now: float) -> None:
        if not ok:
            return
        ftype = frame.ftype
        if ftype is FrameType.BEACON:
            # the beacon's own busy start froze every countdown
            self.nav.set(now + frame.nav_duration)
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
            self._stats.idle_slots_observed += slots_left
            if self._policy_observes:
                self.policy.observe_slots(slots_left, 0)
        self._slots_left = 0
        self._transmit()

    def _transmit(self) -> None:
        assert self._head is not None
        entry = self._head
        self._in_exchange = True
        self._slots_left = None
        self._stats.attempts += 1
        frame = entry.frame
        self.channel.transmit(frame, frame.airtime(self.timing), self, self._data_done)

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
        self.channel.transmit(
            ack, self._ack_airtime, self,
            lambda outcome: self._resolve(outcome.ok),
        )

    def _resolve(self, success: bool) -> None:
        entry = self._head
        assert entry is not None
        self._in_exchange = False
        if self._policy_observes_outcome:
            self.policy.observe_outcome(success)
        if success:
            self._stats.successes += 1
            self._finish(entry, True)
            return
        self._stats.failures += 1
        self._stage += 1
        if self._stage >= self.retry_limit:
            self._stats.drops += 1
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
