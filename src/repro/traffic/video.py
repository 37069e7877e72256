"""Maglaris autoregressive video source.

The paper uses the source model of Maglaris et al., "Performance models
of statistical multiplexing in packet video communications": the bit
rate of a single source for the n-th frame follows the AR(1) recursion

    lambda_n = a * lambda_{n-1} + b * w_n   [bit/pixel]

with ``a = 0.8781``, ``b = 0.1108`` and ``w_n`` i.i.d. Gaussian with
mean 0.572 and variance 1, clamped at zero.  Every frame interval the
frame's bits are fragmented into fixed-size real-time MPDUs, each
stamped with the video delay budget ``D``.

The video *declaration* used by admission control is the leaky-bucket
triple ``(rho, sigma, D)`` — average rate, maximum burstiness (packets)
and maximum tolerable delay.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from ..obs.jsonutil import store_floats
from ..sim.engine import Simulator
from ..sim.process import Interrupt
from .base import RT_PACKET_BITS, Packet, TrafficKind, TrafficSource

__all__ = ["VideoParams", "MaglarisVideoSource"]

#: Maglaris et al. AR(1) coefficients
AR_A = 0.8781
AR_B = 0.1108
AR_W_MEAN = 0.572


@dataclasses.dataclass(frozen=True)
class VideoParams:
    """The paper's video characterization ``(rho, sigma, D)``.

    The declaration is not a shaper: :class:`MaglarisVideoSource` emits
    its AR(1) frames unshaped, so its traffic need not keep the
    ``(rho, sigma)`` envelope that admission control and Theorem 3
    assume.  With ``DEFAULT_VIDEO`` (60 pkt/s, 6 packets) over 60 s on
    ``RandomStreams(seed).get("video/0")``, ``tightest_sigma(times,
    rho=60)`` reads 108.8, 266.8 and 201.4 packets for seeds 1-3, at
    58.2, 63.5 and 63.3 pkt/s.

    Attributes
    ----------
    avg_rate:
        Declared average rate ``rho`` in packets/second.
    burstiness:
        Declared maximum burstiness ``sigma`` in packets.
    max_delay:
        Maximum tolerable packet transfer delay ``D`` (seconds).
    packet_bits:
        Fixed real-time MPDU payload size.
    frame_rate:
        Video frames per second.
    pixels_per_frame:
        Spatial resolution driving the AR bit/pixel process.  The
        default is scaled so one source averages ~ ``avg_rate`` packets
        per second; override to model other resolutions.
    """

    avg_rate: float
    burstiness: float
    max_delay: float
    packet_bits: int = RT_PACKET_BITS
    frame_rate: float = 25.0
    pixels_per_frame: int | None = None

    def __post_init__(self) -> None:
        store_floats(self)
        if self.avg_rate <= 0:
            raise ValueError(f"avg_rate must be > 0, got {self.avg_rate}")
        if self.burstiness < 0:
            raise ValueError(f"burstiness must be >= 0, got {self.burstiness}")
        if self.max_delay <= 0:
            raise ValueError(f"max_delay must be > 0, got {self.max_delay}")
        if self.packet_bits <= 0 or self.frame_rate <= 0:
            raise ValueError("packet_bits and frame_rate must be > 0")

    @property
    def mean_bit_per_pixel(self) -> float:
        """Stationary mean of the AR(1) process: b*E[w]/(1-a)."""
        return AR_B * AR_W_MEAN / (1.0 - AR_A)

    def resolved_pixels_per_frame(self) -> int:
        """Pixels per frame, derived from the declared rate if not set.

        Chosen so that the stationary mean *packet* rate equals the
        declared ``avg_rate``.  Fragmentation rounds each frame up to a
        whole number of packets (the fractional last fragment still
        costs one MPDU), adding on average half a packet per frame, so
        the bit target is reduced by ``0.5 * packet_bits`` per frame.
        """
        if self.pixels_per_frame is not None:
            return self.pixels_per_frame
        packets_per_frame = self.avg_rate / self.frame_rate
        target_bits_per_frame = max(0.5, packets_per_frame - 0.5) * self.packet_bits
        return max(1, int(round(target_bits_per_frame / self.mean_bit_per_pixel)))


class MaglarisVideoSource(TrafficSource):
    """AR(1) frame-size video packetizer."""

    kind = TrafficKind.VIDEO

    def __init__(
        self,
        sim: Simulator,
        source_id: str,
        sink: typing.Callable[[Packet], None],
        rng: np.random.Generator,
        params: VideoParams,
    ) -> None:
        super().__init__(sim, source_id, sink)
        self._rng = rng
        self.params = params
        self._pixels = params.resolved_pixels_per_frame()
        # start the AR process at its stationary mean
        self._bit_per_pixel = params.mean_bit_per_pixel

    def next_frame_bits(self) -> int:
        """Advance the AR(1) recursion and return the next frame's bits."""
        w = self._rng.normal(AR_W_MEAN, 1.0)
        self._bit_per_pixel = max(0.0, AR_A * self._bit_per_pixel + AR_B * w)
        return int(round(self._bit_per_pixel * self._pixels))

    def _run(self) -> typing.Generator:
        p = self.params
        frame_interval = 1.0 / p.frame_rate
        try:
            while True:
                yield frame_interval
                bits = self.next_frame_bits()
                deadline = self.sim.now + p.max_delay
                while bits > 0:
                    chunk = min(bits, p.packet_bits)
                    self._emit(chunk, deadline=deadline)
                    bits -= chunk
        except Interrupt:
            return
