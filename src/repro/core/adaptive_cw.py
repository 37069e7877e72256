"""The adaptive contention-window mechanism (paper Section II-A, end).

Stations continuously estimate the congestion level from the slots they
actually observe while backing off:

1. the **utilization factor** — the fraction of observed backoff slots
   that were busy, pooled over every priority level — plus the
   station's own failed attempts give the failure-probability estimate
   ``p`` ("summing collisions, frame losses and busy slots, divided by
   total observed slots");
2. inverting Bianchi's relation with the current window estimates the
   number of active contenders ``n``;
3. the Cali-Conti-Gregori optimum maps ``n`` and the mean frame
   duration to ``CW_opt``;
4. the new window is smoothed —
   ``CW <- sigma_smooth * CW + (1 - sigma_smooth) * CW_opt`` — which is
   precisely the paper's fix for the "harmful fluctuation" of
   reallocate-every-transmission heuristics.

The controller drives a :class:`~repro.core.priority_backoff.PriorityBackoff`
through its ``scale`` knob, so all priority levels expand or contract
together while keeping their relative ``alpha`` partition (the paper:
"the parameters of different traffic should be adjusted at the same
time").
"""

from __future__ import annotations

from ..phy.timing import PhyTiming
from .capacity import estimate_stations, optimal_cw
from .priority_backoff import PriorityBackoff

__all__ = ["AdaptiveCW"]


class AdaptiveCW(PriorityBackoff):
    """Priority backoff with the paper's channel-adaptive window.

    Instances can be shared by any number of DCF engines; the
    observations simply pool, matching the fact that every station of a
    single BSS sees the same channel.  The estimate of ``n`` reads every
    busy slot as a contender running this window, so a channel's DCFs
    must all share the one instance: a channel refuses a DCF with any
    other policy beside it (``infers_contenders``).

    Parameters
    ----------
    timing:
        PHY constants (for the slot/frame-time ratio ``T'``).
    mean_frame_bits:
        Mean contention-period frame size, setting ``T'``.
    sigma_smooth:
        Smoothing factor in [0, 1); larger = calmer adaptation.
    update_every:
        Recompute the window after this many observed slots.
    alphas, beta, max_stage_:
        Forwarded to :class:`PriorityBackoff`.
    """

    infers_contenders = True

    def __init__(
        self,
        timing: PhyTiming,
        mean_frame_bits: int = 1024 * 8,
        sigma_smooth: float = 0.8,
        update_every: int = 64,
        alphas: tuple[int, ...] = (4, 4, 8),
        beta: int = 0,
        max_stage_: int = 5,
    ) -> None:
        super().__init__(alphas=alphas, beta=beta, max_stage_=max_stage_)
        if not 0.0 <= sigma_smooth < 1.0:
            raise ValueError(f"sigma_smooth must be in [0,1), got {sigma_smooth}")
        if update_every < 1:
            raise ValueError(f"update_every must be >= 1, got {update_every}")
        self.timing = timing
        self.sigma_smooth = sigma_smooth
        self.update_every = update_every
        self._frame_slots = max(
            1.0, timing.data_exchange_time(mean_frame_bits) / timing.slot
        )
        # observation window counters
        self._idle_slots = 0
        self._busy_events = 0
        self._failures = 0
        #: smoothed contention-window estimate (total slots, all levels)
        self.cw_estimate = float(self.total_window(0))
        self.updates = 0

    # -- observation hooks (called by the DCF engines) -----------------------
    def observe_slots(self, idle_slots: int, busy_events: int) -> None:
        self._idle_slots += idle_slots
        self._busy_events += busy_events
        if self._observed() >= self.update_every:
            self._update()

    def observe_outcome(self, success: bool) -> None:
        if not success:
            self._failures += 1

    def _observed(self) -> int:
        return self._idle_slots + self._busy_events + self._failures

    # -- adaptation ---------------------------------------------------------------
    def busy_fraction(self) -> float:
        """Current-window estimate of P(an observed slot is busy)."""
        total = self._observed()
        if total == 0:
            return 0.0
        return (self._busy_events + self._failures) / total

    def _update(self) -> None:
        p_busy = min(0.999, self.busy_fraction())
        n_est = estimate_stations(p_busy, self.cw_estimate)
        target = optimal_cw(max(1, round(n_est)), self._frame_slots)
        self.cw_estimate = (
            self.sigma_smooth * self.cw_estimate
            + (1.0 - self.sigma_smooth) * target
        )
        nominal_total = sum(self.alphas)
        self.set_scale(max(1.0 / nominal_total, self.cw_estimate / nominal_total))
        self.updates += 1
        self._idle_slots = 0
        self._busy_events = 0
        self._failures = 0
