"""Two-state on/off Markov voice source.

From the paper's simulation model: "The voice stream is modeled as a
two state Markov on/off process, where stations are either transmitting
(on) or listening (off).  The amount of time in the off or on state is
exponentially distributed, where the mean value of the silence (off)
period is 1.5 s, and the mean value of the talk spurt (on) period is
1.35 s."  During a talk spurt the codec emits fixed-size packets at
rate ``r``; each packet carries the jitter budget ``delta`` as its
deadline.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from ..obs.jsonutil import store_floats
from ..sim.engine import Simulator
from ..sim.process import Interrupt
from .base import RT_PACKET_BITS, Packet, TrafficKind, TrafficSource

__all__ = ["VoiceParams", "OnOffVoiceSource"]


@dataclasses.dataclass(frozen=True)
class VoiceParams:
    """The paper's voice characterization ``(r, delta)``.

    Attributes
    ----------
    rate:
        Packets per second during a talk spurt (``r``).
    max_jitter:
        Maximum tolerable packet-delay variation in seconds (``delta``).
    packet_bits:
        Fixed real-time MPDU payload size.
    mean_on / mean_off:
        Talk-spurt / silence exponential means.
    """

    rate: float
    max_jitter: float
    packet_bits: int = RT_PACKET_BITS
    mean_on: float = 1.35
    mean_off: float = 1.5

    def __post_init__(self) -> None:
        store_floats(self)
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.max_jitter <= 0:
            raise ValueError(f"max_jitter must be > 0, got {self.max_jitter}")
        if self.packet_bits <= 0:
            raise ValueError(f"packet_bits must be > 0, got {self.packet_bits}")
        if self.mean_on <= 0 or self.mean_off <= 0:
            raise ValueError("on/off means must be > 0")

    @property
    def average_rate(self) -> float:
        """Long-run packet rate including silences (activity factor x r)."""
        activity = self.mean_on / (self.mean_on + self.mean_off)
        return self.rate * activity


class OnOffVoiceSource(TrafficSource):
    """Markov-modulated constant-rate voice packetizer."""

    kind = TrafficKind.VOICE

    def __init__(
        self,
        sim: Simulator,
        source_id: str,
        sink: typing.Callable[[Packet], None],
        rng: np.random.Generator,
        params: VoiceParams,
        start_talking: bool = False,
    ) -> None:
        super().__init__(sim, source_id, sink)
        self._rng = rng
        self.params = params
        self._start_talking = start_talking
        #: True while in a talk spurt (useful for tests/instrumentation)
        self.talking = False

    def _run(self) -> typing.Generator:
        rng = self._rng
        p = self.params
        interval = 1.0 / p.rate
        talking = self._start_talking
        try:
            while True:
                if talking:
                    self.talking = True
                    spurt = rng.exponential(p.mean_on)
                    # emit packets every 1/r for the duration of the spurt
                    elapsed = 0.0
                    first_of_spurt = True
                    while elapsed + interval <= spurt:
                        yield interval
                        elapsed += interval
                        self._emit(
                            p.packet_bits,
                            deadline=self.sim.now + p.max_jitter,
                            new_stream=first_of_spurt,
                        )
                        first_of_spurt = False
                    remainder = spurt - elapsed
                    if remainder > 0:
                        yield remainder
                    self.talking = False
                    talking = False
                else:
                    yield rng.exponential(p.mean_off)
                    talking = True
        except Interrupt:
            self.talking = False
            return
