"""802.11 PHY/MAC timing constants (the paper's Table II defaults).

All times are in **seconds** and all sizes in **bits** unless a name
says otherwise.  The defaults model the 11 Mb/s DSSS (802.11b-class)
PHY used in the paper's simulation: 20 us slots, SIFS 10 us, a long
PLCP preamble+header sent at 1 Mb/s, and payloads at the channel rate.

Every airtime is computed on each call from the bundle's fields; only
the PLCP airtime, shared by every frame, is computed once per bundle.
No airtime is memoized: DATA payloads are exponentially distributed, so
a memo keyed by size would miss on nearly every frame and grow by one
entry each time, and a fixed-size kind costs one division and one add.
"""

from __future__ import annotations

import dataclasses

__all__ = ["PhyTiming"]


@dataclasses.dataclass(frozen=True)
class PhyTiming:
    """Immutable bundle of PHY timing parameters.

    Notes
    -----
    ``pifs`` and ``difs`` are derived per the standard
    (``SIFS + slot`` and ``SIFS + 2*slot``) unless overridden.

    Because the bundle is immutable, every derived duration is a pure
    function of its fields.  The PLCP airtime is computed once; it is
    identity-local (it never leaks between differently-parameterized
    bundles) and excluded from equality/hashing.
    """

    #: payload channel bit rate (bits/second)
    data_rate: float = 11e6
    #: rate at which the PLCP preamble+header is sent (bits/second)
    plcp_rate: float = 1e6
    #: backoff slot duration (seconds)
    slot: float = 20e-6
    #: short interframe space (seconds)
    sifs: float = 10e-6
    #: PLCP preamble + header (bits, sent at plcp_rate)
    plcp_bits: int = 192
    #: MAC data-frame header + FCS (bits) — 34 octets
    mac_header_bits: int = 272
    #: ACK frame body (bits) — 14 octets
    ack_bits: int = 112
    #: CF-Poll / CF-End control frames (bits) — Data+CF-Poll sized
    poll_bits: int = 272
    #: beacon frame body (bits)
    beacon_bits: int = 400
    #: one-way propagation delay (seconds); single-BSS, effectively 1 us
    prop_delay: float = 1e-6

    def __post_init__(self) -> None:
        # the frozen dataclass blocks normal attribute writes; the PLCP
        # airtime is not a field (it must not participate in eq/hash/repr)
        object.__setattr__(self, "_plcp", self.plcp_bits / self.plcp_rate)

    @property
    def pifs(self) -> float:
        """PCF interframe space: SIFS + one slot."""
        return self.sifs + self.slot

    @property
    def difs(self) -> float:
        """DCF interframe space: SIFS + two slots."""
        return self.sifs + 2 * self.slot

    # -- durations -----------------------------------------------------------
    def plcp_time(self) -> float:
        """Airtime of the PLCP preamble+header."""
        return self._plcp

    def frame_airtime(self, payload_bits: int, with_mac_header: bool = True) -> float:
        """Airtime of a frame carrying ``payload_bits`` of MSDU payload."""
        if payload_bits < 0:
            raise ValueError(f"negative payload {payload_bits}")
        if with_mac_header:
            payload_bits += self.mac_header_bits
        return self._plcp + payload_bits / self.data_rate

    def ack_time(self) -> float:
        """Airtime of an ACK control frame."""
        return self._plcp + self.ack_bits / self.data_rate

    def poll_time(self, extra_payload_bits: int = 0) -> float:
        """Airtime of a CF-Poll (optionally piggybacking payload bits)."""
        return self._plcp + (self.poll_bits + extra_payload_bits) / self.data_rate

    def beacon_time(self) -> float:
        """Airtime of a beacon frame."""
        return self._plcp + self.beacon_bits / self.data_rate

    def data_exchange_time(self, payload_bits: int) -> float:
        """DATA + SIFS + ACK — the cost of one successful DCF exchange."""
        return self.frame_airtime(payload_bits) + self.sifs + self.ack_time()

    def slots_for(self, duration: float) -> int:
        """Number of whole backoff slots covered by ``duration``."""
        if duration < 0:
            raise ValueError(f"negative duration {duration}")
        return int(duration / self.slot)
