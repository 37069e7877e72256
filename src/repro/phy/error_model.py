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
        The stream of the per-frame Bernoulli draws: a numpy generator
        or a :class:`~repro.sim.rng.BlockStream` (only ``random()`` is
        called).
    """

    def __init__(self, ber: float, rng: np.random.Generator) -> None:
        if not 0.0 <= ber < 1.0:
            raise ValueError(f"BER must be in [0, 1), got {ber}")
        self.ber = float(ber)
        self._rng = rng

    def success_probability(self, frame_bits: int) -> float:
        """``(1 - BER)^L`` for an ``L``-bit frame."""
        if frame_bits < 0:
            raise ValueError(f"negative frame size {frame_bits}")
        return (1.0 - self.ber) ** frame_bits

    def frame_survives(self, frame_bits: int) -> bool:
        """Sample whether one frame is delivered intact.

        A noiseless channel consumes no random draw (and a noisy one
        exactly one) — callers rely on this for reproducibility.
        """
        if self.ber == 0.0:
            return True
        return self._rng.random() < (1.0 - self.ber) ** frame_bits
