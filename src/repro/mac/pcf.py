"""PCF: the contention-free period (CFP) machinery of the access point.

The coordinator seizes the medium PIFS after it goes idle (beating any
DCF station, whose DIFS is longer), transmits a beacon whose duration
field sets every station's NAV, then runs a poll/response loop:

    CF-Poll --SIFS--> station response --SIFS--> next poll ... CF-End

The scheduling *policy* (which station to poll next — the heart of the
paper's transmit-permission scheme, and the baseline's round-robin) is
supplied by a :class:`CfpScheduler`; the polled stations supply their
uplink frames through :class:`CfPollable`.  The 802.11e CF-MultiPoll
variant (one poll frame, several responses SIFS apart) is supported by
returning several station ids from one scheduling step.
"""

from __future__ import annotations

import dataclasses
import typing

from ..obs.registry import MetricsRegistry
from ..phy.channel import Channel, ChannelListener
from ..phy.timing import PhyTiming
from ..sim.engine import Simulator, TimerHandle
from .frames import BROADCAST, Frame, FrameType
from .nav import Nav

__all__ = ["CfPollable", "CfpScheduler", "PollAction", "PcfCoordinator", "CfpStats"]


class CfPollable(typing.Protocol):
    """A station the AP can poll during the CFP."""

    def cf_response(self, now: float) -> Frame | None:
        """Uplink frame to send in response to a poll (None = nothing)."""


class CfpScheduler(typing.Protocol):
    """Decides the polling sequence of one CFP."""

    def next_action(self, now: float, elapsed: float) -> "PollAction | None":
        """Next station(s) to poll, or ``None`` to end the CFP."""

    def on_response(
        self, station_id: str, frame: Frame | None, ok: bool, now: float
    ) -> None:
        """A polled station answered (or stayed silent / was corrupted)."""


@dataclasses.dataclass(frozen=True)
class PollAction:
    """One scheduling step: poll these stations (>1 => CF-MultiPoll)."""

    station_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.station_ids:
            raise ValueError("PollAction needs at least one station")


#: every CfpStats field, in declaration order (all start at zero)
_CFP_STAT_FIELDS = (
    "cfps_started",
    "polls_sent",
    "multipolls_sent",
    "responses",
    "null_responses",
    "cfp_time",
    "poll_retries",      # poll frames retransmitted after a corrupted copy
    "polls_lost",        # polls abandoned after exhausting the retry budget
    "ghost_polls",       # scheduling steps naming an already-departed station
    "unreachable_nulls", # polled stations whose radio was down (faults)
    "cf_ends_lost",      # CF-End frames corrupted on the air (strict mode)
)


class CfpStats:
    """Aggregate CFP accounting, one registry counter per field.

    Every field is the ``cfp_<name>`` :class:`~repro.obs.registry.Counter`
    of the supplied :class:`~repro.obs.registry.MetricsRegistry` — one
    standalone registry per instance when none is shared in.  Write
    with ``stats.polls_sent.inc()``, read with ``stats.polls_sent.value``.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics or MetricsRegistry()
        for name in _CFP_STAT_FIELDS:
            setattr(self, name, self.metrics.counter(f"cfp_{name}"))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={getattr(self, name).value}" for name in _CFP_STAT_FIELDS
        )
        return f"CfpStats({inner})"


class PcfCoordinator(ChannelListener):
    """Runs contention-free periods on behalf of the AP.

    Only one CFP can be active at a time; :meth:`start_cfp` arranges
    the PIFS seize and calls ``on_end`` when the CF-End has left the
    air.
    """

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        timing: PhyTiming,
        nav: Nav,
        ap_id: str,
        txop_packets: int = 1,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if txop_packets < 1:
            raise ValueError(f"txop_packets must be >= 1, got {txop_packets}")
        self.sim = sim
        self.channel = channel
        self.timing = timing
        self.nav = nav
        self.ap_id = ap_id
        #: HCF-style transmission opportunity: a polled station with a
        #: backlog (piggyback set) may send up to this many frames,
        #: SIFS-separated, on a single poll — the 802.11e HCCA TXOP the
        #: paper's conclusion points at.  1 = classic PCF.
        self.txop_packets = txop_packets
        #: how many times a corrupted CF-Poll/multipoll is retransmitted
        #: (PIFS-separated) before the coordinator gives up on the step
        #: and reports the polled stations unreachable
        self.max_poll_retries = 2
        # hot-path constants: the CFP budget check runs once per
        # scheduling step and both bounds are pure functions of the
        # immutable timing bundle
        self._worst_exchange_time = self._worst_exchange()
        self._end_cost = timing.poll_time() + timing.sifs
        #: honor CF-End delivery: when True a corrupted CF-End leaves
        #: the NAV armed and the BSS falls back to NAV expiry (the
        #: 802.11 duration-field contract).  Off by default — the seed's
        #: fault-free scenarios idealize CF-End delivery, and the golden
        #: regression rows depend on that; attaching a FaultPlan to a
        #: scenario switches this on (see network/bss.py).
        self.strict_cf_end = False
        self.stats = CfpStats(metrics)
        self.stations: dict[str, CfPollable] = {}
        #: optional :class:`repro.obs.trace.TraceRecorder` (``cfp``)
        self.trace = None

        self._active = False
        self._seizing = False
        self._seize_timer: TimerHandle | None = None
        self._scheduler: CfpScheduler | None = None
        self._on_end: typing.Callable[[], None] | None = None
        self._cfp_start = 0.0
        self._deadline = 0.0
        self._deadline_duration = 0.0

        channel.attach(self)

    # -- registration ------------------------------------------------------
    def register(self, station_id: str, station: CfPollable) -> None:
        """Make a station pollable."""
        self.stations[station_id] = station

    def unregister(self, station_id: str) -> None:
        """Remove a departing station (idempotent)."""
        self.stations.pop(station_id, None)

    # -- CFP lifecycle --------------------------------------------------------
    @property
    def active(self) -> bool:
        """True from seize request until CF-End completion."""
        return self._active or self._seizing

    def start_cfp(
        self,
        scheduler: CfpScheduler,
        max_duration: float,
        on_end: typing.Callable[[], None],
    ) -> None:
        """Seize the medium and run one CFP under ``scheduler``."""
        if self.active:
            raise RuntimeError("a CFP is already active")
        if max_duration <= 0:
            raise ValueError(f"max_duration must be > 0, got {max_duration}")
        self._scheduler = scheduler
        self._on_end = on_end
        self._seizing = True
        self._deadline_duration = max_duration
        self._arm_seize()

    def _arm_seize(self) -> None:
        if not self._seizing or self._seize_timer is not None:
            return
        now = self.sim.now
        if self.channel.is_busy:
            return  # on_medium_idle re-arms
        target = max(self.channel.idle_since + self.timing.pifs, now)
        self._seize_timer = self.sim.call_at(target, self._seized)

    def on_medium_idle(self, now: float) -> None:
        self._arm_seize()

    def on_medium_busy(self, now: float) -> None:
        if self._seize_timer is not None:
            self._seize_timer.cancel()
            self._seize_timer = None

    def _seized(self) -> None:
        self._seize_timer = None
        self._seizing = False
        self._active = True
        self._cfp_start = self.sim.now
        self._deadline = self._cfp_start + self._deadline_duration
        self.stats.cfps_started.inc()
        if self.trace is not None:
            self.trace.emit(
                self._cfp_start, "cfp", "start",
                max_duration=self._deadline_duration,
            )
        beacon = Frame(
            FrameType.BEACON,
            src=self.ap_id,
            dest=BROADCAST,
            nav_duration=self._deadline_duration,
        )
        self.nav.set(self._deadline)
        done = self.channel.transmit(beacon, beacon.airtime(self.timing), sender=self)
        done.add_callback(lambda ev: self._schedule_step(self.timing.sifs))

    def _schedule_step(self, gap: float) -> None:
        self.sim.call_in(gap, self._step)

    def _worst_exchange(self) -> float:
        """Upper bound on one poll+response exchange, for the budget check."""
        resp = self.timing.frame_airtime(1500 * 8)
        return self.timing.poll_time() + 2 * self.timing.sifs + resp

    def _step(self) -> None:
        assert self._scheduler is not None
        now = self.sim.now
        elapsed = now - self._cfp_start
        over_budget = (
            now + self._worst_exchange_time + self._end_cost > self._deadline
        )
        action = None
        if not over_budget:
            action = self._scheduler.next_action(now, elapsed)
        if action is None:
            self._send_cf_end()
            return
        # A scheduler may name a station that departed mid-CFP (its
        # teardown raced the scheduling step).  Degrade to an abnormal
        # null so the scheduler can clean up its own state, and poll
        # whoever is left.
        ids = []
        for sid in action.station_ids:
            if sid in self.stations:
                ids.append(sid)
            else:
                self.stats.ghost_polls.inc()
                if self.trace is not None:
                    self.trace.emit(now, "cfp", "ghost", station=sid)
                self._scheduler.on_response(sid, None, False, now)
        if not ids:
            self._schedule_step(0.0)
            return
        if self.trace is not None:
            self.trace.emit(now, "cfp", "poll", stations=list(ids))
        if len(ids) == 1:
            self.stats.polls_sent.inc()
            frame = Frame(FrameType.CF_POLL, src=self.ap_id, dest=ids[0])
        else:
            self.stats.multipolls_sent.inc()
            frame = Frame(
                FrameType.CF_MULTIPOLL,
                src=self.ap_id,
                dest=BROADCAST,
                poll_list=tuple(ids),
            )
        self._transmit_poll(frame, ids, self.max_poll_retries)

    def _transmit_poll(
        self, frame: Frame, ids: list[str], retries_left: int
    ) -> None:
        done = self.channel.transmit(frame, frame.airtime(self.timing), sender=self)
        done.add_callback(
            lambda ev: self._poll_done(ev.value.ok, frame, ids, retries_left)
        )

    def _poll_done(
        self, ok: bool, frame: Frame, ids: list[str], retries_left: int
    ) -> None:
        """The poll frame left the air — was it actually delivered?

        A corrupted CF-Poll was never heard, so nobody may answer it.
        The coordinator reclaims the medium after PIFS and retransmits;
        once the retry budget is gone the polled stations are reported
        as abnormal nulls (``ok=False``) so the scheduler can escalate
        (re-pacing, eviction) instead of waiting forever.
        """
        if ok:
            self.sim.call_in(self.timing.sifs, self._responses, list(ids))
            return
        if retries_left > 0:
            self.stats.poll_retries.inc()
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "cfp", "repoll",
                    stations=list(ids), retries_left=retries_left - 1,
                )
            self.sim.call_in(
                self.timing.pifs, self._transmit_poll, frame, ids, retries_left - 1
            )
            return
        assert self._scheduler is not None
        self.stats.polls_lost.inc()
        if self.trace is not None:
            self.trace.emit(self.sim.now, "cfp", "poll_lost", stations=list(ids))
        for sid in ids:
            self._scheduler.on_response(sid, None, False, self.sim.now)
        self._schedule_step(self.timing.pifs)

    def _responses(self, remaining: list[str]) -> None:
        """Collect poll responses, one per SIFS, then schedule next step."""
        if not remaining:
            self._schedule_step(0.0)
            return
        sid = remaining.pop(0)
        self._respond_station(sid, remaining, self.txop_packets)

    def _respond_station(
        self, sid: str, remaining: list[str], burst_left: int
    ) -> None:
        station = self.stations.get(sid)
        assert self._scheduler is not None
        if station is not None and getattr(station, "radio_down", False):
            # Fault-injected radio silence: the station cannot have
            # heard the poll.  Unlike a legit empty-buffer null this is
            # reported abnormal (ok=False) so the scheduler's miss
            # escalation runs.
            self.stats.unreachable_nulls.inc()
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "cfp", "null", station=sid, reason="radio_down"
                )
            self._scheduler.on_response(sid, None, False, self.sim.now)
            self.sim.call_in(
                self.timing.pifs - self.timing.sifs, self._responses, remaining
            )
            return
        frame = station.cf_response(self.sim.now) if station is not None else None
        if frame is None:
            # No response: the point coordinator reclaims the medium
            # after PIFS (it has already waited SIFS).
            self.stats.null_responses.inc()
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "cfp", "null", station=sid, reason="empty"
                )
            self._scheduler.on_response(sid, None, True, self.sim.now)
            self.sim.call_in(
                self.timing.pifs - self.timing.sifs, self._responses, remaining
            )
            return
        self.stats.responses.inc()
        done = self.channel.transmit(frame, frame.airtime(self.timing), sender=station)
        scheduler = self._scheduler

        def finish(ev):
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "cfp", "response",
                    station=sid, ok=ev.value.ok,
                    piggyback=bool(frame.piggyback),
                )
            scheduler.on_response(sid, frame, ev.value.ok, self.sim.now)
            # TXOP continuation: a backlogged station keeps the floor,
            # SIFS-separated, up to the opportunity limit — but only a
            # real backlog (not a keepalive piggyback) extends it.
            backlog = bool(frame.info and frame.info.get("backlog"))
            if burst_left > 1 and frame.piggyback and backlog:
                self.sim.call_in(
                    self.timing.sifs, self._respond_station,
                    sid, remaining, burst_left - 1,
                )
            else:
                self.sim.call_in(self.timing.sifs, self._responses, remaining)

        done.add_callback(finish)

    def _send_cf_end(self) -> None:
        frame = Frame(FrameType.CF_END, src=self.ap_id, dest=BROADCAST)
        done = self.channel.transmit(frame, frame.airtime(self.timing), sender=self)
        done.add_callback(lambda ev: self._finished(ev.value.ok))

    def _finished(self, cf_end_ok: bool = True) -> None:
        now = self.sim.now
        self.stats.cfp_time.inc(now - self._cfp_start)
        if self.trace is not None:
            self.trace.emit(
                now, "cfp", "end",
                duration=now - self._cfp_start, cf_end_ok=cf_end_ok,
            )
        if cf_end_ok or not self.strict_cf_end:
            self.nav.clear(now)
        else:
            # The CF-End never reached the stations: their NAVs stay
            # armed until the beacon's announced deadline expires (the
            # duration-field fallback).  Leaving the shared NAV set
            # models exactly that — contention resumes at the deadline.
            self.stats.cf_ends_lost.inc()
        self._active = False
        scheduler, self._scheduler = self._scheduler, None
        on_end, self._on_end = self._on_end, None
        if on_end is not None:
            on_end()
