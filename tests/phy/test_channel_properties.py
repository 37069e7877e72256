"""Property tests for the broadcast channel (hypothesis)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import BitErrorModel, Channel
from repro.sim import Simulator


@dataclasses.dataclass
class FakeFrame:
    total_bits: int = 256
    label: int = 0


def make_channel(sim):
    return Channel(
        sim, BitErrorModel(0.0, np.random.Generator(np.random.PCG64(0)))
    )


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals = sorted(intervals)
    total = 0.0
    cur_start, cur_end = intervals[0]
    for s, e in intervals[1:]:
        if s > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    return total + (cur_end - cur_start)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),  # start
            st.floats(min_value=1e-4, max_value=0.2),  # duration
        ),
        min_size=1,
        max_size=15,
    )
)
def test_property_collisions_iff_overlap_and_busy_time_is_union(schedule):
    """Frames collide exactly when their air intervals overlap, and the
    channel's busy-time accounting equals the union of the intervals."""
    sim = Simulator()
    channel = make_channel(sim)
    outcomes = {}
    intervals = []
    for i, (start, duration) in enumerate(schedule):
        end = start + duration
        intervals.append((start, end))

        def kickoff(i=i, duration=duration):
            channel.transmit(
                FakeFrame(label=i), duration, None,
                lambda outcome, i=i: outcomes.__setitem__(i, outcome),
            )

        sim.call_at(start, kickoff)
    sim.run()

    # ground truth: i collided iff some j != i overlaps it in time
    for i, (s_i, e_i) in enumerate(intervals):
        overlaps = any(
            j != i and s_j < e_i and s_i < e_j
            for j, (s_j, e_j) in enumerate(intervals)
        )
        assert outcomes[i].collided == overlaps, (
            f"frame {i}: collided={outcomes[i].collided}, overlap={overlaps}"
        )

    assert channel.busy_time == pytest.approx(union_length(intervals))
    assert not channel.is_busy


@settings(max_examples=60, deadline=None)
@given(
    gaps=st.lists(st.floats(min_value=1e-4, max_value=0.1), min_size=1, max_size=10),
    duration=st.floats(min_value=1e-4, max_value=0.05),
)
def test_property_sequential_frames_never_collide(gaps, duration):
    """Back-to-back (non-overlapping) transmissions are all delivered."""
    sim = Simulator()
    channel = make_channel(sim)
    outcomes = []
    t = 0.0
    for gap in gaps:
        t += gap + duration

        def kickoff(at=t):
            channel.transmit(FakeFrame(), duration, None, outcomes.append)

        sim.call_at(t, kickoff)
    sim.run()
    assert all(not o.collided for o in outcomes)
    assert all(o.ok for o in outcomes)
