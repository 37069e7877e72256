"""Property-based tests on core invariants (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdaptiveBandwidthManager,
    AdmissionController,
    bianchi_tau,
    failure_probability,
    optimal_cw,
    video_delay_bound,
    voice_response_bound,
)
from repro.core import bandwidth
from repro.core.schedulability import VideoFlow, VoiceFlow
from repro.phy import PhyTiming
from repro.traffic import VideoParams, VoiceParams


class FixedShares:
    share_i = 0.5
    share_ii = 0.2


# ----------------------------------------------------------- capacity ----
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200),
    cw=st.integers(min_value=2, max_value=1024),
    m=st.integers(min_value=0, max_value=8),
    pe=st.floats(min_value=0.0, max_value=0.5),
)
def test_property_bianchi_tau_is_a_probability(n, cw, m, pe):
    tau = bianchi_tau(n, cw, m, pe=pe)
    assert 0.0 < tau < 1.0
    p = failure_probability(tau, n, pe)
    # p can round to exactly 1.0 for very large n (float underflow of
    # (1-tau)^(n-1)); it must never exceed 1
    assert 0.0 <= p <= 1.0


@settings(max_examples=80, deadline=None)
@given(
    cw=st.integers(min_value=2, max_value=256),
    m=st.integers(min_value=0, max_value=6),
)
def test_property_tau_monotone_decreasing_in_n(cw, m):
    # with m=0 the window never doubles and tau is constant in n; the
    # tolerance absorbs the bisection noise around that plateau
    taus = [bianchi_tau(n, cw, m) for n in (1, 4, 16, 64)]
    assert all(a >= b - 1e-9 for a, b in zip(taus, taus[1:]))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=100),
    frame_slots=st.floats(min_value=1.0, max_value=2000.0),
)
def test_property_optimal_cw_positive_and_monotone(n, frame_slots):
    cw = optimal_cw(n, frame_slots)
    assert cw >= 1.0
    assert optimal_cw(n + 10, frame_slots) >= cw


# ------------------------------------------------------ schedulability ----
@settings(max_examples=100, deadline=None)
@given(
    rates=st.lists(st.floats(min_value=1, max_value=100), min_size=1, max_size=6),
    extra=st.floats(min_value=1, max_value=100),
    t=st.floats(min_value=1e-4, max_value=5e-3),
)
def test_property_voice_bound_monotone_under_insertion(rates, extra, t):
    """Adding a source never shrinks any existing source's bound."""
    import bisect

    base = sorted(rates)
    flows = [VoiceFlow(rate=r, max_jitter=0.1) for r in base]
    grown = sorted(base + [extra])
    flows2 = [VoiceFlow(rate=r, max_jitter=0.1) for r in grown]
    # the new source lands at position k; sources before it keep their
    # index, sources after shift by one (ties are interchangeable —
    # equal-rate flows are identical objects analytically)
    k = bisect.bisect_left(base, extra)
    for i in range(len(base)):
        j = i if i < k else i + 1
        assert voice_response_bound(flows2, j, t) >= voice_response_bound(
            flows, i, t
        ) - 1e-12


@settings(max_examples=100, deadline=None)
@given(
    voice_rate=st.floats(min_value=0, max_value=300),
    rho=st.floats(min_value=1, max_value=200),
    sigma=st.floats(min_value=0, max_value=50),
    t=st.floats(min_value=1e-4, max_value=2e-3),
)
def test_property_video_bound_worsens_with_voice_load(voice_rate, rho, sigma, t):
    videos = [VideoFlow(avg_rate=rho, burstiness=sigma, max_delay=1.0)]
    light = video_delay_bound([], videos, 0, t)
    voices = [VoiceFlow(rate=max(voice_rate, 1e-3), max_jitter=0.1)]
    heavy = video_delay_bound(voices, videos, 0, t)
    assert heavy >= light - 1e-12


# ----------------------------------------------------------- admission ----
@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["voice", "video"]),
            st.booleans(),  # handoff
            st.floats(min_value=10, max_value=120),  # rate
        ),
        min_size=1,
        max_size=25,
    )
)
def test_property_admission_never_breaks_feasible_sessions(requests):
    """Whatever the arrival sequence, every admitted session's bound
    holds at admission time, orders stay sorted, and counts balance."""
    ac = AdmissionController(PhyTiming(), 512 * 8, FixedShares())
    admitted = 0
    for i, (kind, handoff, rate) in enumerate(requests):
        if kind == "voice":
            s = ac.try_admit_voice(
                f"s{i}", VoiceParams(rate=rate, max_jitter=0.05), handoff, 0.0
            )
        else:
            s = ac.try_admit_video(
                f"s{i}",
                VideoParams(avg_rate=rate, burstiness=5, max_delay=0.08),
                handoff,
                0.0,
            )
        if s is not None:
            admitted += 1
    assert ac.admitted_count == admitted
    assert ac.rejected_count == len(requests) - admitted
    voice_rates = [s.params.rate for s in ac.voice_sessions]
    assert voice_rates == sorted(voice_rates)
    video_delays = [s.params.max_delay for s in ac.video_sessions]
    assert video_delays == sorted(video_delays)
    # every bound respected under the shares in force
    for s, b in zip(ac.voice_sessions, ac.voice_bounds()):
        assert b <= s.params.max_jitter + 1e-12
    for s, b in zip(ac.video_sessions, ac.video_bounds()):
        assert b <= s.params.max_delay + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_property_admit_remove_roundtrip(data):
    """Removing everything admitted returns the controller to empty."""
    ac = AdmissionController(PhyTiming(), 512 * 8, FixedShares())
    sessions = []
    n = data.draw(st.integers(min_value=1, max_value=10))
    for i in range(n):
        s = ac.try_admit_voice(f"v{i}", VoiceParams(rate=25, max_jitter=0.1))
        if s is not None:
            sessions.append(s)
    order = data.draw(st.permutations(range(len(sessions))))
    for idx in order:
        ac.remove(sessions[idx])
    assert ac.voice_sessions == []


# ----------------------------------------------------------- bandwidth ----
@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1),
            st.floats(min_value=0, max_value=1),
            st.floats(min_value=0, max_value=1),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_property_bandwidth_shares_always_valid(updates):
    """Any feedback sequence keeps (I, II, III) a valid partition with
    channel III's floor intact."""
    bm = AdaptiveBandwidthManager()
    floor = bandwidth.THRESHOLD_CHANNEL_III_MIN
    for drop, block, util in updates:
        bm.update(drop, block, util)
        assert 0 < bm.share_i <= 1
        assert 0 < bm.share_ii <= 1
        assert bm.share_iii >= floor - 1e-9
        assert bm.share_i + bm.share_ii + bm.share_iii == pytest.approx(1.0)
        assert bm.share_i >= bandwidth.THRESHOLD_CHANNEL_I_MIN - 1e-9
        assert bm.share_ii >= bandwidth.THRESHOLD_CHANNEL_II_MIN - 1e-9
