"""Common traffic-source machinery: packets, descriptors, source base.

The paper characterizes the three traffic classes it simulates as:

* **data** — Poisson MSDU arrivals, exponential length (mean 1024 B);
* **voice** — two-state on/off Markov source, parameters ``(r, delta)``
  = packet rate and maximum tolerable *jitter*;
* **video** — Maglaris-style autoregressive source, parameters
  ``(rho, sigma, D)`` = average rate, maximum burstiness and maximum
  tolerable *delay*.

Sources here are simulation processes that emit :class:`Packet` objects
into a sink callable (typically a station's transmit queue).
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import typing

from ..sim.engine import Simulator

__all__ = ["RT_PACKET_BITS", "TrafficKind", "Packet", "TrafficSource"]

#: fixed real-time (voice and video) MPDU payload used throughout the
#: evaluation
RT_PACKET_BITS = 512 * 8


class TrafficKind(enum.Enum):
    """Traffic class of a packet/source."""

    DATA = "data"
    VOICE = "voice"
    VIDEO = "video"

    # members are singletons, so identity hashing is equivalent to the
    # default name hash — but it is a C-level slot, and the collector
    # looks its per-kind counters up by kind for every packet (no set of
    # kinds is iterated, so no order depends on the hash)
    __hash__ = object.__hash__


_packet_ids = itertools.count()


@dataclasses.dataclass
class Packet:
    """One MAC-layer packet (MPDU payload unit).

    Timing fields are filled in as the packet moves through the system;
    ``None`` means "hasn't happened".
    """

    created: float
    bits: int
    source_id: str
    kind: TrafficKind
    seq: int
    #: absolute deadline (creation + delta/D) for real-time packets
    deadline: float | None = None
    #: first packet of a fresh stream segment (e.g. a new talk spurt);
    #: jitter chains restart here — playout re-synchronizes after a
    #: silence, and the spurt's first packet additionally pays the
    #: reactivation-request latency that the steady-state token
    #: pipeline (and Theorem 1's bound) does not include
    new_stream: bool = False
    #: set by the MAC when the packet finishes successful transmission
    completed: float | None = None
    #: True if the deadline lapsed before delivery (packet discarded)
    expired: bool = False
    uid: int = dataclasses.field(default_factory=_packet_ids.__next__)

    @property
    def total_bits(self) -> int:
        """Bits on the wire for this payload (header added by the MAC)."""
        return self.bits

    def access_delay(self) -> float:
        """Queueing + contention delay (creation to completion)."""
        if self.completed is None:
            raise RuntimeError("packet not yet completed")
        return self.completed - self.created


class TrafficSource:
    """Base class: a process that emits packets into ``sink``.

    Subclasses implement :meth:`_run` as a generator; :meth:`start`
    spawns it.  ``sink(packet)`` is called for every generated packet.
    """

    kind: TrafficKind = TrafficKind.DATA

    def __init__(
        self,
        sim: Simulator,
        source_id: str,
        sink: typing.Callable[[Packet], None],
    ) -> None:
        self.sim = sim
        self.source_id = source_id
        self.sink = sink
        self._seq = 0
        self.packets_emitted = 0
        self.bits_emitted = 0
        self.process: typing.Any = None

    def start(self) -> None:
        """Spawn the generation process (idempotent)."""
        if self.process is None:
            self.process = self.sim.process(self._run())

    def stop(self) -> None:
        """Terminate the generation process, if running."""
        if self.process is not None and self.process.is_alive:
            self.process.interrupt("source stopped")

    def _emit(
        self,
        bits: int,
        deadline: float | None = None,
        new_stream: bool = False,
    ) -> Packet:
        pkt = Packet(
            created=self.sim.now,
            bits=bits,
            source_id=self.source_id,
            kind=self.kind,
            seq=self._seq,
            deadline=deadline,
            new_stream=new_stream,
        )
        self._seq += 1
        self.packets_emitted += 1
        self.bits_emitted += bits
        self.sink(pkt)
        return pkt

    def _run(self) -> typing.Generator:  # pragma: no cover - abstract
        raise NotImplementedError
        yield
