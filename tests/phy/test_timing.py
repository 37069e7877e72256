"""Unit tests for PHY timing constants and derived durations."""

import pytest

from repro.mac.frames import Frame, FrameType
from repro.phy import PhyTiming


@pytest.fixture
def timing():
    return PhyTiming()


def test_standard_ifs_relationships(timing):
    assert timing.pifs == pytest.approx(timing.sifs + timing.slot)
    assert timing.difs == pytest.approx(timing.sifs + 2 * timing.slot)
    assert timing.sifs < timing.pifs < timing.difs


def test_default_80211b_values(timing):
    assert timing.slot == pytest.approx(20e-6)
    assert timing.sifs == pytest.approx(10e-6)
    assert timing.difs == pytest.approx(50e-6)
    assert timing.data_rate == pytest.approx(11e6)


def test_plcp_time_is_192us_long_preamble(timing):
    assert timing.plcp_time() == pytest.approx(192e-6)


def test_frame_airtime_scales_with_payload(timing):
    base = timing.frame_airtime(0)
    one_kbit = timing.frame_airtime(1000)
    assert one_kbit - base == pytest.approx(1000 / timing.data_rate)


def test_frame_airtime_includes_mac_header(timing):
    with_hdr = timing.frame_airtime(1000, with_mac_header=True)
    without = timing.frame_airtime(1000, with_mac_header=False)
    assert with_hdr - without == pytest.approx(
        timing.mac_header_bits / timing.data_rate
    )


def test_negative_payload_rejected(timing):
    with pytest.raises(ValueError):
        timing.frame_airtime(-1)


def test_ack_shorter_than_data_frame(timing):
    assert timing.ack_time() < timing.frame_airtime(8 * 1024)


def test_data_exchange_time_composition(timing):
    payload = 8 * 500
    expected = timing.frame_airtime(payload) + timing.sifs + timing.ack_time()
    assert timing.data_exchange_time(payload) == pytest.approx(expected)


def test_poll_time_piggyback_adds_payload(timing):
    assert timing.poll_time(1000) - timing.poll_time(0) == pytest.approx(
        1000 / timing.data_rate
    )


def test_slots_for(timing):
    assert timing.slots_for(0.0) == 0
    assert timing.slots_for(timing.slot * 3.7) == 3
    with pytest.raises(ValueError):
        timing.slots_for(-1.0)


def test_frozen_dataclass_rejects_mutation(timing):
    with pytest.raises(Exception):
        timing.slot = 1.0  # type: ignore[misc]


def test_custom_rates_flow_through():
    t = PhyTiming(data_rate=2e6)
    assert t.frame_airtime(2000) == pytest.approx(
        t.plcp_time() + (2000 + t.mac_header_bits) / 2e6
    )


def test_frame_airtime_per_kind(timing):
    def airtime(ftype, **fields):
        return Frame(ftype, "a", "b", **fields).airtime(timing)

    assert airtime(FrameType.DATA, payload_bits=8192) == timing.frame_airtime(8192)
    assert airtime(FrameType.CF_DATA, payload_bits=4096) == timing.frame_airtime(4096)
    assert airtime(FrameType.ACK) == timing.ack_time()
    assert airtime(FrameType.BEACON) == timing.beacon_time()
    assert airtime(FrameType.CF_POLL) == airtime(FrameType.CF_END) == timing.poll_time()
    assert airtime(FrameType.REQUEST) == timing.frame_airtime(128)
    assert airtime(FrameType.CF_MULTIPOLL, poll_list=("s1", "s2", "s3")) == (
        timing.poll_time(48)
    )
