"""MAC frame types and sizes.

Frames are plain value objects; airtime is computed from
:class:`~repro.phy.timing.PhyTiming`.  Only the fields the simulation
dynamics actually depend on are modelled (type, addressing, payload
size, piggyback bit, poll lists, CFP duration announcements).
"""

from __future__ import annotations

import dataclasses
import enum
import typing

from ..phy.timing import PhyTiming

__all__ = ["FrameType", "Frame", "BROADCAST"]

#: broadcast destination address
BROADCAST = "*"


class FrameType(enum.Enum):
    """802.11 frame kinds used by the simulation."""

    DATA = "data"  # DCF data MPDU (contention period)
    ACK = "ack"
    REQUEST = "request"  # resource-request MPDU sent in the CP
    BEACON = "beacon"  # starts a CFP
    CF_POLL = "cf_poll"  # polls one station
    CF_MULTIPOLL = "cf_multipoll"  # 802.11e-style multipoll (list of stations)
    CF_DATA = "cf_data"  # polled uplink real-time MPDU (+ piggyback bit)
    CF_END = "cf_end"  # ends a CFP

    # members are singletons, so identity hashing is equivalent to the
    # default name hash — but it is a C-level slot, and frame types key
    # the airtime/header-bits dicts on the per-frame hot path
    __hash__ = object.__hash__


@dataclasses.dataclass(slots=True)
class Frame:
    """One MAC frame on the air.

    Attributes
    ----------
    ftype:
        Frame kind.
    src / dest:
        Station identifiers (``BROADCAST`` for beacons/CF-End).
    payload_bits:
        MSDU payload carried (0 for control frames).
    packet:
        The :class:`~repro.traffic.base.Packet` carried, if any.
    piggyback:
        For CF_DATA: "my buffer is still non-empty" (PGBK request bit).
    poll_list:
        For CF_MULTIPOLL: ordered station ids being polled.
    nav_duration:
        For BEACON: announced maximum CFP duration (sets receivers' NAV).
    info:
        Small free-form side channel (request descriptors etc.).
    total_bits:
        Bits exposed to the BER model (header + payload), set at
        construction: the channel reads it for every frame it samples.
    """

    ftype: FrameType
    src: str
    dest: str
    payload_bits: int = 0
    packet: typing.Any = None
    piggyback: bool = False
    poll_list: tuple[str, ...] = ()
    nav_duration: float = 0.0
    info: typing.Any = None
    total_bits: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.payload_bits < 0:
            raise ValueError(f"negative payload {self.payload_bits}")
        self.total_bits = self.payload_bits + _HEADER_BITS.get(self.ftype, 272)

    def airtime(self, timing: PhyTiming) -> float:
        """Time this frame occupies the medium.

        DATA and CF_DATA frames are timed from their payload size, a
        multipoll from its poll list (a ~2-octet-per-entry surcharge);
        every other kind has a fixed size.
        """
        ftype = self.ftype
        if ftype is FrameType.DATA or ftype is FrameType.CF_DATA:
            return timing.frame_airtime(self.payload_bits)
        if ftype is FrameType.ACK:
            return timing.ack_time()
        if ftype is FrameType.CF_POLL or ftype is FrameType.CF_END:
            return timing.poll_time()
        if ftype is FrameType.CF_MULTIPOLL:
            return timing.poll_time(16 * len(self.poll_list))
        if ftype is FrameType.BEACON:
            return timing.beacon_time()
        return timing.frame_airtime(_REQUEST_PAYLOAD_BITS)  # REQUEST


#: header bits per frame type, for the BER model
_HEADER_BITS: dict[FrameType, int] = {
    FrameType.DATA: 272,
    FrameType.CF_DATA: 272,
    FrameType.ACK: 112,
    FrameType.REQUEST: 272,
    FrameType.BEACON: 400,
    FrameType.CF_POLL: 272,
    FrameType.CF_MULTIPOLL: 272,
    FrameType.CF_END: 272,
}

#: QoS descriptor carried by a REQUEST frame (traffic parameters)
_REQUEST_PAYLOAD_BITS = 128
