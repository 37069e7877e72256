"""Backoff-policy interface and the standard binary exponential backoff.

The DCF engine is parametric in its backoff policy; this is the hook
through which the paper's contribution (the partitioned priority
backoff with adaptive contention windows, in :mod:`repro.core`) plugs
into an otherwise standard CSMA/CA MAC.

Priority levels follow the paper's Table I convention:

* level 0 — real-time handoff requests (highest);
* level 1 — admitted, currently inactive real-time sources asking to
  be reactivated;
* level 2 — new connection requests and pure data (lowest).

The plain 802.11 BEB ignores the level entirely.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BackoffPolicy",
    "StandardBEB",
    "LEVEL_HANDOFF",
    "LEVEL_REACTIVATION",
    "LEVEL_NEW_OR_DATA",
    "NUM_LEVELS",
]

LEVEL_HANDOFF = 0
LEVEL_REACTIVATION = 1
LEVEL_NEW_OR_DATA = 2
NUM_LEVELS = 3


class BackoffPolicy:
    """Strategy object consulted by the DCF engine.

    Subclasses must implement :meth:`draw_slots`.  The ``observe_*``
    hooks feed channel observations to adaptive policies; the defaults
    are no-ops.
    """

    def draw_slots(
        self, level: int, stage: int, rng: np.random.Generator
    ) -> int:  # pragma: no cover - abstract
        """Number of backoff slots for a station of ``level`` at retry
        ``stage`` (0 = first attempt)."""
        raise NotImplementedError

    def max_stage(self) -> int:
        """Stage at which the window stops growing (standard ``m``)."""
        return 5

    def draw_window(self, level: int, stage: int) -> tuple[int, int]:
        """``(offset, width)`` of the slot range :meth:`draw_slots`
        samples for ``level`` at ``stage`` — the priority window the
        trace records alongside each draw.  ``(0, 0)`` means the
        policy does not expose its window geometry."""
        return (0, 0)

    def extra_ifs(self, level: int) -> float:
        """Additional interframe space (seconds) before level ``level``
        may begin counting slots — the AIFS knob of 802.11e-style
        differentiation.  The default (0) means plain DIFS for all."""
        return 0.0

    # -- observation hooks (for adaptive policies) -------------------------
    def observe_slots(self, idle_slots: int, busy_events: int) -> None:
        """``idle_slots`` counted down, interrupted by ``busy_events``."""

    def observe_span(self, start: int, end: int, interrupted: bool) -> None:
        """Positional observation: slots ``[start, end)`` of the
        station's current virtual contention window were seen idle; if
        ``interrupted``, the medium went busy at index ``end``.

        Because draws are absolute indices within the partitioned
        window, these positions let an adaptive policy attribute busy
        slots to priority classes (the paper's per-class utilization
        factors).  The default forwards to :meth:`observe_slots`.
        """
        self.observe_slots(max(0, end - start), 1 if interrupted else 0)

    def observe_outcome(self, success: bool) -> None:
        """One of our own transmissions succeeded/failed."""


class StandardBEB(BackoffPolicy):
    """IEEE 802.11 binary exponential backoff.

    ``CW(stage) = min(cw_min * 2**stage, cw_max)``; the draw is uniform
    over ``[0, CW)``.  The paper describes the initial window as 8
    slots (draws 0–7, doubling to 0–15 after one collision); the 802.11
    DSSS default is 32.  Both are expressible here.
    """

    def __init__(self, cw_min: int = 32, cw_max: int = 1024) -> None:
        if cw_min < 1 or cw_max < cw_min:
            raise ValueError(f"invalid CW bounds [{cw_min}, {cw_max}]")
        self.cw_min = cw_min
        self.cw_max = cw_max

    def window(self, stage: int) -> int:
        """Contention-window size at ``stage``."""
        if stage < 0:
            raise ValueError(f"negative stage {stage}")
        return min(self.cw_min * (2**stage), self.cw_max)

    def max_stage(self) -> int:
        stage = 0
        while self.cw_min * (2**stage) < self.cw_max:
            stage += 1
        return stage

    def draw_slots(self, level: int, stage: int, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.window(stage)))
