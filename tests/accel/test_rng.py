"""Property tests for the counter-keyed batched RNG.

The adapter's contract (module docstring of :mod:`repro.accel.rng`):
column *i*'s draw *k* is a pure function of ``(seed, i, k)``, so the
per-column sequences are invariant under every interleaving of draws
across columns and every prefetch block size.  ``reference_uniform``
implements the documented scalar recurrence in pure Python integers
and serves as the oracle for the vectorized column streams.
"""

import numpy as np
import pytest

from repro.accel.rng import PHI, BatchedRngAdapter, mix64

SEED = 1234
COLUMNS = 6


def reference_table(adapter, draws=40):
    """``ref[c][k]`` per the documented scalar recurrence."""
    return [
        [adapter.reference_uniform(c, k) for k in range(draws)]
        for c in range(adapter.columns)
    ]


class TestScalarRecurrence:
    def test_reference_values_are_uniform_floats(self):
        adapter = BatchedRngAdapter(SEED, COLUMNS)
        values = [adapter.reference_uniform(0, k) for k in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        # splitmix64 output should look uniform even at this sample size
        assert 0.4 < sum(values) / len(values) < 0.6
        assert len(set(values)) == len(values)

    def test_columns_are_distinct_streams(self):
        adapter = BatchedRngAdapter(SEED, COLUMNS)
        first = [adapter.reference_uniform(c, 0) for c in range(COLUMNS)]
        assert len(set(first)) == COLUMNS

    def test_seed_changes_every_column(self):
        a = BatchedRngAdapter(SEED, COLUMNS)
        b = BatchedRngAdapter(SEED + 1, COLUMNS)
        for c in range(COLUMNS):
            assert a.reference_uniform(c, 0) != b.reference_uniform(c, 0)

    def test_vectorized_mix64_matches_python_ints(self):
        # the numpy finalizer must agree with the masked-int recurrence
        # the oracle uses (guards against silent dtype promotion)
        xs = np.array([0, 1, 2**63, 2**64 - 1, 0xDEADBEEF], dtype=np.uint64)
        from repro.accel.rng import _mix64_py

        out = mix64(xs + PHI)
        for x, o in zip(xs.tolist(), out.tolist()):
            assert o == _mix64_py((x + int(PHI)) & ((1 << 64) - 1))


class TestInterleavingInvariance:
    """The headline property: round shape never changes any column."""

    @pytest.mark.parametrize(
        "rounds",
        [
            # every column alone, in order
            [[c] for c in range(COLUMNS)] * 8,
            # full-width rounds
            [list(range(COLUMNS))] * 8,
            # ragged subsets, shifting membership each round
            [[0, 2, 4], [1, 3], [5], [0, 1, 2, 3, 4, 5], [4, 5], [2]] * 4,
            # repeats consume consecutive counters left to right
            [[0, 0, 1], [1, 0], [2, 2, 2, 3], [3]] * 4,
            # wide rounds crossing many prefetch-block boundaries
            [list(range(COLUMNS)) * 8, [0, 5] * 20, list(range(COLUMNS))] * 3,
        ],
        ids=["singles", "full", "ragged", "repeats", "wide"],
    )
    def test_uniforms_match_oracle_under_interleaving(self, rounds):
        adapter = BatchedRngAdapter(SEED, COLUMNS)
        ref = reference_table(adapter, draws=200)
        # a different block size per column, so refills never line up
        streams = [adapter.stream(c, c + 1) for c in range(COLUMNS)]
        next_k = [0] * COLUMNS
        for round_cols in rounds:
            for c in round_cols:
                assert streams[c].random() == ref[c][next_k[c]]
                next_k[c] += 1


class TestColumnStream:
    def test_out_of_range_column_rejected(self):
        adapter = BatchedRngAdapter(SEED, COLUMNS)
        with pytest.raises(ValueError):
            adapter.stream(COLUMNS, 8)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_prefetched_blocks_serve_identical_values(self, block):
        adapter = BatchedRngAdapter(SEED, 2)
        ref = reference_table(adapter, draws=200)
        stream = adapter.stream(0, block)
        got = [stream.random() for _ in range(150)]
        assert got == ref[0][:150]

    def test_prefetch_rejects_empty_block(self):
        with pytest.raises(ValueError):
            BatchedRngAdapter(SEED, 1).stream(0, 0)


class TestAdapterValidation:
    def test_rejects_zero_columns(self):
        with pytest.raises(ValueError):
            BatchedRngAdapter(SEED, 0)

    def test_same_seed_same_sequences(self):
        a = BatchedRngAdapter(SEED, 3)
        b = BatchedRngAdapter(SEED, 3)
        for c in range(3):
            sa, sb = a.stream(c, 4), b.stream(c, 4)
            assert [sa.random() for _ in range(10)] == [
                sb.random() for _ in range(10)
            ]
