"""The adaptive bandwidth management strategy (paper Section II-C).

The medium is logically partitioned into three channels:

* **channel I** — real-time traffic in the contention-free period;
* **channel II** — handoff real-time traffic, used *exclusively* and
  with preemptive priority by handoffs (this is what keeps the handoff
  dropping probability pinned below its threshold);
* **channel III** — new requests and data in the contention period,
  whose share is the guaranteed minimum for best-effort traffic.

The shares feed two places: the admission controller (a new call's
per-packet time ``T`` is scaled by ``share_i``, a handoff's by
``share_i + share_ii``) and the AP's CFP budgeting (per superframe the
CFP may use at most ``(share_i + share_ii)`` of the period, with the
channel-II part reserved for handoff polls).

``update`` is a line-by-line transcription of the paper's
``Adaptive Bandwidth Allocation`` pseudocode: dropping probability is
corrected first (it has priority over blocking), then blocking, and
only when both sit below their thresholds are the shares relaxed
toward their floors to hand bandwidth back to data traffic.
"""

from __future__ import annotations

__all__ = ["AdaptiveBandwidthManager"]

# -- the pseudocode's thresholds ---------------------------------------------
#: threshold_D — acceptable handoff dropping probability
THRESHOLD_D = 0.01
#: threshold_B — acceptable new-call blocking probability
THRESHOLD_B = 0.05
#: eta — "good enough" bandwidth utilization.  Measured as channel busy
#: fraction, whose saturation point on this PHY (header + IFS overheads
#: included) sits near 0.65; eta sits just below it.
ETA = 0.55
#: multiplicative expansion factor (paper's "up")
UP = 1.25
#: multiplicative decay factor (paper's "down")
DOWN = 0.9
#: threshold_channel_I_max — hard cap of channel I
THRESHOLD_CHANNEL_I_MAX = 0.6
#: threshold_channel_I_medium — cap when utilization is already high
THRESHOLD_CHANNEL_I_MEDIUM = 0.5
#: threshold_channel_I_min — floor of channel I.  Floors are kept high
#: enough that a lightly loaded cell can still admit a handoff without
#: waiting for the feedback loop to re-grow the channels (the decay
#: branch reclaims idle bandwidth for data, not the ability to accept
#: calls).
THRESHOLD_CHANNEL_I_MIN = 0.2
#: threshold_channel_II_max — cap of channel II when utilization high
THRESHOLD_CHANNEL_II_MAX = 0.25
#: threshold_channel_II_min — floor of channel II
THRESHOLD_CHANNEL_II_MIN = 0.1
#: guaranteed minimum share of channel III (data)
THRESHOLD_CHANNEL_III_MIN = 0.15
#: shares of channels I and II before the first update
INITIAL_SHARE_I = 0.4
INITIAL_SHARE_II = 0.1


class AdaptiveBandwidthManager:
    """Feedback controller over the (I, II, III) channel split."""

    def __init__(self) -> None:
        self._share_i = INITIAL_SHARE_I
        self._share_ii = INITIAL_SHARE_II
        #: current cap of channel II; the paper's drop-branch lifts it
        #: to the whole (III-protected) medium when utilization is low
        self._ii_cap = THRESHOLD_CHANNEL_II_MAX
        self._clamp()
        self.updates = 0

    # -- ShareProvider protocol ----------------------------------------------
    @property
    def share_i(self) -> float:
        """Channel I share (real-time, CFP)."""
        return self._share_i

    @property
    def share_ii(self) -> float:
        """Channel II share (handoff real-time, CFP, exclusive)."""
        return self._share_ii

    @property
    def share_iii(self) -> float:
        """Channel III share (new requests + data, CP)."""
        return 1.0 - self._share_i - self._share_ii

    def _clamp(self) -> None:
        self._share_i = min(
            max(self._share_i, THRESHOLD_CHANNEL_I_MIN), THRESHOLD_CHANNEL_I_MAX
        )
        self._share_ii = min(
            max(self._share_ii, THRESHOLD_CHANNEL_II_MIN), self._ii_cap
        )
        # never squeeze channel III below its guaranteed minimum
        excess = (self._share_i + self._share_ii) - (
            1.0 - THRESHOLD_CHANNEL_III_MIN
        )
        if excess > 0:
            # shave channel I first (channel II protects handoffs)
            take = min(excess, self._share_i - THRESHOLD_CHANNEL_I_MIN)
            self._share_i -= take
            excess -= take
            if excess > 0:
                self._share_ii = max(
                    THRESHOLD_CHANNEL_II_MIN, self._share_ii - excess
                )

    def update(
        self, drop_prob: float, block_prob: float, utilization: float
    ) -> None:
        """One adaptation step — the paper's pseudocode verbatim."""
        for name, v in (
            ("drop_prob", drop_prob),
            ("block_prob", block_prob),
            ("utilization", utilization),
        ):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")
        if drop_prob > THRESHOLD_D:
            grown = max(self._share_i, self._share_ii) * UP
            if utilization < ETA:
                # "min(..., total bandwidth)" — only channel III's floor
                # limits how far the handoff channel may grow
                self._ii_cap = 1.0
                self._share_ii = min(grown, 1.0)
            else:
                self._ii_cap = THRESHOLD_CHANNEL_II_MAX
                self._share_ii = min(grown, THRESHOLD_CHANNEL_II_MAX)
        elif block_prob > THRESHOLD_B:
            if utilization < ETA:
                self._share_i = min(self._share_i * UP, THRESHOLD_CHANNEL_I_MAX)
            else:
                self._share_i = min(
                    self._share_i * UP, THRESHOLD_CHANNEL_I_MEDIUM
                )
        elif utilization < ETA:
            self._ii_cap = THRESHOLD_CHANNEL_II_MAX
            self._share_ii = max(
                self._share_ii * DOWN, THRESHOLD_CHANNEL_II_MIN
            )
            self._share_i = max(self._share_i * DOWN, THRESHOLD_CHANNEL_I_MIN)
        self._clamp()
        self.updates += 1
