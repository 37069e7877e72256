"""Unit tests for the adaptive bandwidth manager (paper's pseudocode)."""

import pytest

from repro.core import AdaptiveBandwidthManager, bandwidth


def test_initial_shares_and_channel_iii():
    bm = AdaptiveBandwidthManager()
    assert bm.share_i == pytest.approx(0.4)
    assert bm.share_ii == pytest.approx(0.1)
    assert bm.share_iii == pytest.approx(0.5)


def test_high_dropping_grows_channel_ii():
    bm = AdaptiveBandwidthManager()
    before = bm.share_ii
    bm.update(drop_prob=0.5, block_prob=0.0, utilization=0.5)
    assert bm.share_ii > before


def test_dropping_beats_blocking_priority():
    """When both are over threshold, only channel II is adjusted."""
    bm = AdaptiveBandwidthManager()
    i_before = bm.share_i
    bm.update(drop_prob=0.5, block_prob=0.5, utilization=0.5)
    assert bm.share_i <= i_before  # channel I untouched (except clamping)


def test_high_blocking_grows_channel_i():
    bm = AdaptiveBandwidthManager()
    before = bm.share_i
    bm.update(drop_prob=0.0, block_prob=0.5, utilization=0.5)
    assert bm.share_i > before


def test_blocking_growth_capped_at_medium_when_utilized():
    bm = AdaptiveBandwidthManager()
    for _ in range(20):
        bm.update(drop_prob=0.0, block_prob=0.5, utilization=0.99)
    assert bm.share_i <= bandwidth.THRESHOLD_CHANNEL_I_MEDIUM + 1e-9


def test_blocking_growth_capped_at_max_when_underutilized():
    bm = AdaptiveBandwidthManager()
    for _ in range(20):
        bm.update(drop_prob=0.0, block_prob=0.5, utilization=0.1)
    assert bm.share_i <= bandwidth.THRESHOLD_CHANNEL_I_MAX + 1e-9
    # allowed beyond the medium cap
    assert bm.share_i > bandwidth.THRESHOLD_CHANNEL_I_MEDIUM


def test_quiet_underutilized_system_decays_toward_floors():
    bm = AdaptiveBandwidthManager()
    for _ in range(50):
        bm.update(drop_prob=0.0, block_prob=0.0, utilization=0.2)
    assert bm.share_i == pytest.approx(bandwidth.THRESHOLD_CHANNEL_I_MIN)
    assert bm.share_ii == pytest.approx(bandwidth.THRESHOLD_CHANNEL_II_MIN)


def test_stable_when_all_good_and_utilized():
    bm = AdaptiveBandwidthManager()
    i, ii = bm.share_i, bm.share_ii
    bm.update(drop_prob=0.0, block_prob=0.0, utilization=0.95)
    assert bm.share_i == i
    assert bm.share_ii == ii


def test_channel_iii_minimum_always_respected():
    bm = AdaptiveBandwidthManager()
    for _ in range(50):
        bm.update(drop_prob=0.9, block_prob=0.9, utilization=0.1)
    assert bm.share_iii >= bandwidth.THRESHOLD_CHANNEL_III_MIN - 1e-9


def test_shares_always_a_partition():
    bm = AdaptiveBandwidthManager()
    import itertools

    for d, b, u in itertools.product((0.0, 0.5), (0.0, 0.5), (0.1, 0.99)):
        bm.update(d, b, u)
        assert 0 < bm.share_i < 1
        assert 0 < bm.share_ii < 1
        assert bm.share_i + bm.share_ii + bm.share_iii == pytest.approx(1.0)


def test_invalid_probabilities_rejected():
    bm = AdaptiveBandwidthManager()
    with pytest.raises(ValueError):
        bm.update(-0.1, 0, 0)
    with pytest.raises(ValueError):
        bm.update(0, 1.5, 0)
    with pytest.raises(ValueError):
        bm.update(0, 0, 2.0)

