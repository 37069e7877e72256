"""Frame-error model.

The paper computes the probability of successful frame delivery as
``P_success = (1 - BER)^L`` with ``L`` the frame length in bits — i.e.
independent bit errors, any bit error killing the frame.  That formula
is reproduced here verbatim; a noiseless channel is ``BER = 0``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BitErrorModel"]


class BitErrorModel:
    """Independent-bit-error frame corruption model.

    Parameters
    ----------
    ber:
        Channel bit-error rate in [0, 1).
    rng:
        Numpy generator used for the per-frame Bernoulli draws.
    """

    def __init__(self, ber: float, rng: np.random.Generator) -> None:
        if not 0.0 <= ber < 1.0:
            raise ValueError(f"BER must be in [0, 1), got {ber}")
        self.ber = float(ber)
        self._rng = rng
        #: frame_bits -> (1-BER)^L memo; the power is a pure function of
        #: the (few, repeated) frame sizes a scenario puts on the air
        self._p_success: dict[int, float] = {}

    def success_probability(self, frame_bits: int) -> float:
        """``(1 - BER)^L`` for an ``L``-bit frame (memoized per size)."""
        if frame_bits < 0:
            raise ValueError(f"negative frame size {frame_bits}")
        if self.ber == 0.0:
            return 1.0
        p = self._p_success.get(frame_bits)
        if p is None:
            p = self._p_success[frame_bits] = (1.0 - self.ber) ** frame_bits
        return p

    def frame_survives(self, frame_bits: int) -> bool:
        """Sample whether one frame is delivered intact.

        A noiseless channel consumes no random draw (and a noisy one
        exactly one) — callers rely on this for reproducibility.
        """
        if self.ber == 0.0:
            return True
        return bool(self._rng.random() < self.success_probability(frame_bits))
