"""The batched engine tier: the pure-DCF contention fast path.

``run_scenario`` is the single entry point the executor routes
non-exact points through, and it picks its path from
``config.engine`` alone: ``"batched"`` runs
:class:`BatchedContentionModel`.  ``ScenarioConfig`` refuses, at
construction, any batched config the model cannot represent —
:func:`fast_path_refusal` is that one eligibility predicate, and the
``ValueError`` names the first condition it finds failing.

The model covers pure DCF contention (conventional scheme, zero
real-time call rates, no faults/trace/ESS/monitors) and replaces the
per-frame object simulation with a round-synchronous loop: one *round*
is "idle slots until the smallest backoff counter expires, then the
transmission it triggers".  Each station's backoff redraws and MSDU
arrivals, and the channel's BER draws, come from their own prefetched
column streams (:class:`~repro.accel.rng.ColumnStream`); pending
arrivals (at most one per station) wait in a ``heapq`` of ``(time,
seq, station)`` tuples, whose ``seq`` pops equal times in insertion
order; and ``events_processed`` counts the **exact-engine-equivalent
agenda fires** each round implies (see ``_EVENT_ACCOUNTING`` below),
so its ev/s are directly comparable with the exact benchmarks.

The fast path is seed-deterministic and pinned by its own golden
fixture (``tests/accel``); exact-tier rows are untouched.

``_EVENT_ACCOUNTING`` — the fast path counts, per modeled occurrence,
the agenda fires the exact engine would have dispatched:

=====================  ====================================  =====
occurrence             exact-engine fires                    count
=====================  ====================================  =====
MSDU arrival           source process wake-up                1
backoff expiry         backoff agenda fire                   1
                       (``_backoff_complete``)
(skipped on 802.11 immediate access — fresh arrival on a
medium already idle >= DIFS transmits without arming a backoff)
data transmission      channel ``_finish`` + completion      2
data survived          ACK send timer + ACK ``_finish``
                       + ACK completion                      3
data corrupted /       ACK-timeout timer                     1
collided
superframe tick        conventional AP timer                 1
=====================  ====================================  =====

Fires whose exact-engine timestamp would land past ``sim_time`` are
not counted (the exact run would never dispatch them).  The grounding
test asserts this model stays within ~40% of a real exact run's
``events_processed`` on the same config.
"""

from __future__ import annotations

import heapq
import math
import typing

from ..baseline.conventional import SUPERFRAME
from ..metrics.stats import OnlineStats
from ..network.bss import BssScenario, ScenarioConfig
from ..phy.timing import PhyTiming
from .rng import BatchedRngAdapter

__all__ = ["run_scenario", "fast_path_refusal", "BatchedContentionModel"]

#: DATA header+FCS bits and ACK bits exposed to the BER model
#: (mac/frames._HEADER_BITS — mirrored to keep the hot loop flat)
_DATA_HEADER_BITS = 272
_ACK_BITS = 112

#: tie window for simultaneous backoff expiry (collision detection)
_TIE_EPS = 1e-12


def fast_path_refusal(config: ScenarioConfig) -> str | None:
    """The first condition the fast path cannot model, or None.

    The fast path models DCF contention only: conventional scheme with
    zero real-time call rates (the conventional AP then never opens a
    CFP, see ``baseline/conventional._superframe_tick``), stationary
    Poisson data arrivals at one or more data stations, and none of
    the exact-only attachments (faults, trace, ESS shard, invariant
    monitors).  ``ScenarioConfig`` raises with this reason when a
    batched config fails it.
    """
    if config.scheme != "conventional":
        return f"scheme {config.scheme!r} is not 'conventional'"
    if (
        config.new_voice_rate != 0.0
        or config.new_video_rate != 0.0
        or config.handoff_voice_rate != 0.0
        or config.handoff_video_rate != 0.0
    ):
        return "a real-time call rate is not zero"
    if config.faults is not None:
        return "a fault plan is attached"
    if config.trace is not None:
        return "a trace is attached"
    if config.ess is not None:
        return "an ESS context is attached"
    if config.monitor_invariants:
        return "invariant monitors are on"
    if config.n_data_stations <= 0:
        return "there are zero data stations"
    return None


def run_scenario(config: ScenarioConfig) -> dict[str, typing.Any]:
    """Run one point under its configured engine tier."""
    if config.engine == "batched":
        return BatchedContentionModel(config).run()
    return BssScenario(config).run()


class BatchedContentionModel:
    """Round-synchronous DCF model for pure-contention scenarios.

    See the module docstring for the modeling contract and the event
    accounting.  One instance runs one config; :meth:`run` returns a
    result row with the standard schema plus ``engine="batched"``.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.timing = PhyTiming()
        n = config.n_data_stations
        # column map: [0, n) backoff, [n, 2n) traffic, 2n channel BER;
        # the channel column sees the most draws and gets the biggest
        # prefetch block
        adapter = BatchedRngAdapter(config.seed, 2 * n + 1)
        self._backoff_streams = [adapter.stream(i, 64) for i in range(n)]
        self._traffic = [adapter.stream(n + i, 128) for i in range(n)]
        self._channel = adapter.stream(2 * n, 512)
        self.events_processed = 0

    # -- the round loop ---------------------------------------------------
    def run(self) -> dict[str, typing.Any]:
        cfg = self.config
        timing = self.timing
        n = cfg.n_data_stations
        slot = timing.slot
        difs = timing.difs
        sifs = timing.sifs
        ack_air = timing.ack_time()
        ack_timeout = sifs + ack_air + slot
        plcp = timing.plcp_time()
        rate = timing.data_rate
        sim_time = cfg.sim_time
        retry_limit = 7
        cw_min, cw_max = 32, 1024  # StandardBEB(32, 1024), as _build_policy
        max_stage = 5
        arrival_rate = cfg.data_msdus_per_station * cfg.load
        mean_msdu = 1024 * 8
        mtu = 1500 * 8

        # per-station state
        queues: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        heads: list[int] = [0] * n  # pop index into queues[i]
        counter = [0] * n
        stage = [0] * n
        ready = [0.0] * n  # earliest count-start (post ACK-timeout)
        immediate = [False] * n
        contending = [False] * n

        events = 0
        busy_time = 0.0
        useful_bits = 0
        delivered = 0
        losses = 0
        delay = OnlineStats()
        warmup = cfg.warmup
        t_idle_start = 0.0

        # superframe ticks: the conventional AP re-arms its timer every
        # superframe; with an empty request table that is all it does
        events += int(sim_time / SUPERFRAME)

        # pending MSDU arrivals, at most one per station: (time, seq,
        # station), so equal times pop in insertion order
        arrivals: list[tuple[float, int, int]] = []
        heappush, heappop = heapq.heappush, heapq.heappop
        seq = 0
        for i in range(n):
            dt = -math.log1p(-self._traffic[i].random()) / arrival_rate
            if dt <= sim_time:
                seq += 1
                heappush(arrivals, (dt, seq, i))

        backoff_randoms = [s.random for s in self._backoff_streams]

        def redraw(i: int, s: int) -> None:
            """Station ``i``'s backoff draw at stage ``s``.

            The window map is StandardBEB's ``min(cw_min * 2**stage,
            cw_max)`` inlined.
            """
            w = cw_min << s if s < max_stage else cw_max
            counter[i] = int(backoff_randoms[i]() * w)

        # hot-loop locals: BER survival probabilities are memoized per
        # frame size (the exact model's memo, lifted out of the call),
        # and the channel draw is bound once
        ber = cfg.ber
        chan_random = self._channel.random
        ack_p = (1.0 - ber) ** _ACK_BITS if ber else 1.0
        p_cache: dict[int, float] = {}
        delay_add = delay.add
        # rounds never touch the arrivals, so the head time is cached
        # across round iterations and refreshed only after a pop/push
        ta = arrivals[0][0] if arrivals else math.inf

        while True:
            # next transmission candidate across contending stations:
            # counting starts at max(ready, idle start + DIFS)
            base = t_idle_start + difs
            tmin = math.inf
            for i in range(n):
                if contending[i]:
                    r = ready[i]
                    tx = (r if r > base else base) + counter[i] * slot
                    if tx < tmin:
                        tmin = tx
            if ta <= tmin + _TIE_EPS:
                if ta > sim_time:  # also covers "nothing left at all"
                    break
                _, _, i = heappop(arrivals)
                # -- one MSDU arrives at station i --------------------
                events += 1
                created = ta
                src = self._traffic[i]
                msdu = max(1, int(round(-math.log1p(-src.random()) * mean_msdu)))
                full, rest = divmod(msdu, mtu)
                q = queues[i]
                for _ in range(full):
                    q.append((mtu, created))
                if rest:
                    q.append((rest, created))
                dt = -math.log1p(-src.random()) / arrival_rate
                t_next = created + dt
                if t_next <= sim_time:
                    seq += 1
                    heappush(arrivals, (t_next, seq, i))
                ta = arrivals[0][0] if arrivals else math.inf
                if not contending[i] and len(q) > heads[i]:
                    stage[i] = 0
                    contending[i] = True
                    ready[i] = created
                    if created - t_idle_start >= difs - 1e-12:
                        # 802.11 immediate access: no timer fire
                        counter[i] = 0
                        immediate[i] = True
                    else:
                        redraw(i, 0)
                        immediate[i] = False
                continue
            if tmin > sim_time:
                break

            # -- one round fires at tmin ------------------------------
            # single pass: collect winners within the tie window and
            # freeze the rest — non-winners consume the whole slots
            # they observed (ready stays as-is: the scan above already
            # takes the max of ready and the post-round idle start,
            # matching re-arming)
            tie = tmin + _TIE_EPS
            winners = []
            for i in range(n):
                if contending[i]:
                    r = ready[i]
                    begin = r if r > base else base
                    if begin + counter[i] * slot <= tie:
                        winners.append(i)
                    elif tmin > begin:
                        consumed = int((tmin - begin) / slot + 1e-9)
                        if consumed > counter[i]:
                            consumed = counter[i]
                        counter[i] -= consumed

            if len(winners) == 1:
                w = winners[0]
                bits, created = queues[w][heads[w]]
                data_end = tmin + plcp + (bits + _DATA_HEADER_BITS) / rate
                if ber:
                    tb = bits + _DATA_HEADER_BITS
                    p = p_cache.get(tb)
                    if p is None:
                        p = p_cache[tb] = (1.0 - ber) ** tb
                    data_ok = chan_random() < p
                else:
                    data_ok = True
                if data_ok:
                    ack_ok = chan_random() < ack_p if ber else True
                    busy_end = data_end + sifs + ack_air
                    resolve_t = busy_end
                    success = ack_ok
                else:
                    busy_end = data_end
                    resolve_t = data_end + ack_timeout
                    success = False
                busy_time += busy_end - tmin
                # exact-equivalent fires (timestamp-guarded)
                if not immediate[w]:
                    events += 1  # _backoff_complete at tmin
                if data_end <= sim_time:
                    events += 2  # data _finish + completion
                    if data_ok:
                        if data_end + sifs <= sim_time:
                            events += 1  # ACK send timer
                        if busy_end <= sim_time:
                            events += 2  # ACK _finish + completion
                    elif resolve_t <= sim_time:
                        events += 1  # ACK-timeout timer
                immediate[w] = False
                resolved = resolve_t <= sim_time
                if success and resolved:
                    heads[w] += 1
                    if heads[w] > 64:  # amortized pop of consumed head
                        del queues[w][: heads[w]]
                        heads[w] = 0
                    if created >= warmup:
                        delivered += 1
                        useful_bits += bits
                        delay_add(resolve_t - created)
                    stage[w] = 0
                    if len(queues[w]) > heads[w]:
                        ready[w] = resolve_t
                        redraw(w, 0)
                    else:
                        contending[w] = False
                elif resolved:
                    stage[w] += 1
                    if stage[w] >= retry_limit:
                        heads[w] += 1
                        if created >= warmup:
                            losses += 1
                        stage[w] = 0
                        if len(queues[w]) > heads[w]:
                            ready[w] = resolve_t
                            redraw(w, 0)
                        else:
                            contending[w] = False
                    else:
                        ready[w] = resolve_t
                        redraw(w, stage[w])
                else:
                    # the exchange straddles sim_time: exact would
                    # leave it unresolved; stop contending
                    contending[w] = False
            else:
                # collision: every winner transmits, all fail
                airs = [
                    plcp + (queues[w][heads[w]][0] + _DATA_HEADER_BITS) / rate
                    for w in winners
                ]
                busy_end = tmin + max(airs)
                busy_time += busy_end - tmin
                for w, air in zip(winners, airs):
                    if not immediate[w]:
                        events += 1  # _backoff_complete
                    immediate[w] = False
                    data_end = tmin + air
                    resolve_t = data_end + ack_timeout
                    if data_end <= sim_time:
                        events += 2  # data _finish + completion
                        if resolve_t <= sim_time:
                            events += 1  # ACK-timeout timer
                    if resolve_t > sim_time:
                        contending[w] = False
                        continue
                    _, created = queues[w][heads[w]]
                    stage[w] += 1
                    if stage[w] >= retry_limit:
                        heads[w] += 1
                        if created >= warmup:
                            losses += 1
                        stage[w] = 0
                        if len(queues[w]) > heads[w]:
                            ready[w] = resolve_t
                            redraw(w, 0)
                        else:
                            contending[w] = False
                    else:
                        ready[w] = resolve_t
                        redraw(w, stage[w])

            t_idle_start = busy_end

        self.events_processed = events
        return self._assemble_row(
            events, busy_time, useful_bits, delivered, losses, delay
        )

    # -- row assembly -----------------------------------------------------
    def _assemble_row(
        self,
        events: int,
        busy_time: float,
        useful_bits: int,
        delivered: int,
        losses: int,
        delay: OnlineStats,
    ) -> dict[str, typing.Any]:
        cfg = self.config
        measured = cfg.sim_time - cfg.warmup
        row: dict[str, typing.Any] = {
            "dropping_probability": 0.0,
            "blocking_probability": 0.0,
            "worst_voice_jitter": 0.0,
        }
        for kind in ("data", "voice", "video"):
            row[f"{kind}_delay_mean"] = 0.0
            row[f"{kind}_delay_var"] = 0.0
            row[f"{kind}_delivered"] = 0
            row[f"{kind}_losses"] = 0
        row.update(
            data_delay_mean=delay.mean,
            data_delay_var=delay.variance,
            data_delivered=delivered,
            data_losses=losses,
            scheme=cfg.scheme,
            load=cfg.load,
            normalized_load=cfg.normalized_load(self.timing),
            seed=cfg.seed,
            sim_time=cfg.sim_time,
            warmup=cfg.warmup,
            events_processed=events,
            call_attempts_new=0,
            call_attempts_handoff=0,
            calls_admitted_new=0,
            calls_admitted_handoff=0,
            calls_blocked=0,
            calls_dropped=0,
            channel_busy_fraction=min(1.0, busy_time / cfg.sim_time),
            goodput_utilization=useful_bits / (measured * self.timing.data_rate),
            worst_video_delay=0.0,
            engine="batched",
        )
        return row
