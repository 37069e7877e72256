"""Poisson best-effort data traffic.

"The arrival of data frames from a station's higher layer to MAC
sublayer is Poisson.  Frame length is assumed to be exponentially
distributed with mean length 1024 octets."  MSDUs longer than the MTU
are fragmented into MTU-sized MPDUs, mirroring the 802.11/IP
fragmentation the paper describes (MTU 1500 bytes).
"""

from __future__ import annotations

import typing

import numpy as np

from ..sim.engine import Simulator
from ..sim.process import Interrupt
from .base import Packet, TrafficKind, TrafficSource

__all__ = ["PoissonDataSource"]


class PoissonDataSource(TrafficSource):
    """Poisson MSDU arrivals with exponential lengths.

    Parameters
    ----------
    arrival_rate:
        MSDUs per second.
    mean_length_bits:
        Mean exponential MSDU length (default 1024 octets).
    mtu_bits:
        Fragmentation threshold (default 1500 octets).
    """

    kind = TrafficKind.DATA

    def __init__(
        self,
        sim: Simulator,
        source_id: str,
        sink: typing.Callable[[Packet], None],
        rng: np.random.Generator,
        arrival_rate: float,
        mean_length_bits: int = 1024 * 8,
        mtu_bits: int = 1500 * 8,
    ) -> None:
        if arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be > 0, got {arrival_rate}")
        if mean_length_bits <= 0 or mtu_bits <= 0:
            raise ValueError("lengths must be positive")
        super().__init__(sim, source_id, sink)
        self._rng = rng
        self.arrival_rate = arrival_rate
        self.mean_length_bits = mean_length_bits
        self.mtu_bits = mtu_bits

    def fragment(self, msdu_bits: int) -> list[int]:
        """Split an MSDU into MTU-sized MPDU payloads (last one short)."""
        if msdu_bits <= 0:
            return []
        full, rest = divmod(msdu_bits, self.mtu_bits)
        sizes = [self.mtu_bits] * full
        if rest:
            sizes.append(rest)
        return sizes

    def _run(self) -> typing.Generator:
        rng = self._rng
        mean_gap = 1.0 / self.arrival_rate
        mean_length = self.mean_length_bits
        try:
            while True:
                yield rng.exponential(mean_gap)
                msdu = max(1, int(round(rng.exponential(mean_length))))
                for mpdu_bits in self.fragment(msdu):
                    self._emit(mpdu_bits)
        except Interrupt:
            return
