"""Block streams (repro.sim.rng.BlockStream) draw exactly numpy's scalar values.

Every block draw is compared with the scalar call on a fresh generator
of the same seed, across refills: the per-frame and per-packet streams
of every scenario are block streams, so any difference would move every
row, trace and pinned count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomStreams
from repro.sim.rng import BLOCK_SIZE, BlockStream

#: enough draws to cross several block refills
DRAWS = 3 * BLOCK_SIZE + 5

#: integer bounds: small windows and the 32-bit edges (the large bounds
#: drive Lemire's rejection loop)
BOUNDS = (1, 2, 3, 7, 32, 1024, 2**31 + 5, 2**32 - 1, 2**32)


def pair(seed):
    """A block stream and a fresh generator of the same seed."""
    return (
        BlockStream(np.random.Generator(np.random.PCG64(seed))),
        np.random.Generator(np.random.PCG64(seed)),
    )


class TestEqualsScalarDraws:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_random(self, seed):
        blocks, scalar = pair(seed)
        for _ in range(DRAWS):
            value = blocks.random()
            assert type(value) is float and value == scalar.random()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        scales=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=4),
    )
    def test_exponential(self, seed, scales):
        blocks, scalar = pair(seed)
        for i in range(DRAWS):
            scale = scales[i % len(scales)]
            assert blocks.exponential(scale) == scalar.exponential(scale)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        loc=st.floats(-1e3, 1e3),
        scale=st.floats(1e-3, 1e3),
    )
    def test_normal(self, seed, loc, scale):
        blocks, scalar = pair(seed)
        for _ in range(DRAWS):
            assert blocks.normal(loc, scale) == scalar.normal(loc, scale)

    @pytest.mark.parametrize("bound", BOUNDS)
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 11])
    def test_integers_at_one_bound(self, seed, bound):
        blocks, scalar = pair(seed)
        for _ in range(DRAWS):
            value = blocks.integers(0, bound)
            assert type(value) is int and value == int(scalar.integers(0, bound))
        # a bound of 1 draws nothing: both generators are still in step
        assert blocks.integers(0, 2) == int(scalar.integers(0, 2))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        ranges=st.lists(
            st.tuples(st.integers(-100, 100), st.sampled_from(BOUNDS)),
            min_size=1, max_size=8,
        ),
    )
    def test_integers_interleaving_bounds(self, seed, ranges):
        # the kept half carries over between bounds; a bound of 1 keeps it
        blocks, scalar = pair(seed)
        for i in range(DRAWS):
            low, bound = ranges[i % len(ranges)]
            assert blocks.integers(low, low + bound) == int(
                scalar.integers(low, low + bound)
            )

    def test_named_streams_agree_raw_and_as_blocks(self):
        blocks = RandomStreams(3).blocks("dcf/data/0")
        raw = RandomStreams(3).get("dcf/data/0")
        assert [blocks.integers(0, 32) for _ in range(DRAWS)] == [
            int(raw.integers(0, 32)) for _ in range(DRAWS)
        ]


class TestOneKindPerStream:
    @pytest.mark.parametrize(
        "first, second",
        [
            ("random", "exponential"),
            ("exponential", "normal"),
            ("normal", "integers"),
            ("integers", "random"),
        ],
    )
    def test_a_second_kind_raises(self, first, second):
        stream, _ = pair(5)
        calls = {
            "random": lambda: stream.random(),
            "exponential": lambda: stream.exponential(2.0),
            "normal": lambda: stream.normal(0.0, 1.0),
            "integers": lambda: stream.integers(0, 10),
        }
        calls[first]()
        with pytest.raises(ValueError, match=f"serves {first} draws"):
            calls[second]()
        calls[first]()  # the stream still serves its own kind

    def test_empty_and_wide_integers_raise(self):
        stream, _ = pair(5)
        with pytest.raises(ValueError):
            stream.integers(3, 3)
        with pytest.raises(ValueError):
            stream.integers(0, 2**32 + 1)


class TestRandomStreams:
    def test_blocks_are_cached_per_name(self):
        streams = RandomStreams(1)
        assert streams.blocks("phy/errors") is streams.blocks("phy/errors")
        assert "phy/errors" in streams

    def test_a_raw_name_cannot_be_handed_out_as_blocks(self):
        streams = RandomStreams(1)
        streams.get("traffic/data/0")
        with pytest.raises(ValueError, match="handed out raw"):
            streams.blocks("traffic/data/0")

    def test_a_block_name_cannot_be_handed_out_raw(self):
        streams = RandomStreams(1)
        streams.blocks("traffic/data/0")
        with pytest.raises(ValueError, match="handed out as blocks"):
            streams.get("traffic/data/0")
