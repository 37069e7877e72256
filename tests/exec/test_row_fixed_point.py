"""Stored rows come back as a fixed point of normalize_row.

The executor returns a row decoded from a cache entry or a journal line
as it is, without normalizing it again.  That rests on one property:
``canonical_json`` of a normalized row decodes to a row that
``normalize_row`` maps to itself, in values and in key order at every
level.  The property tests pin it over rows of nested string-keyed
dicts, lists, tuples, numpy scalars, NaN, ±inf, -0.0, big ints and
non-ASCII strings; the grid test checks that every provenance of a real
row — serial, pool, cached replay and journal resume — returns the same
bytes.
"""

import dataclasses
import json
import math
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (
    ExecutorConfig,
    ResultCache,
    SweepExecutor,
    SweepJournal,
    normalize_row,
)
from repro.experiments import sweep_config
from repro.validate.chaos import fault_mix

KEY = "0" * 64

_numpy_scalars = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.floats(),  # NaN, ±inf and -0.0 among them
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(),
    st.text(st.characters(min_codepoint=0x80), min_size=1),
    _numpy_scalars,
)

_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=24,
)

rows = st.dictionaries(st.text(max_size=8), _values, max_size=8)


def unsorted(row):
    """Bytes that differ with any value or any key's position."""
    return json.dumps(row)


def assert_fixed_point(stored, normalized):
    assert unsorted(stored) == unsorted(normalized)
    assert unsorted(normalize_row(stored)) == unsorted(stored)


@settings(max_examples=150, deadline=None)
@given(row=rows)
def test_a_cached_row_is_a_fixed_point(row):
    normalized = normalize_row(row)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cache.put(KEY, normalized)
        assert_fixed_point(cache.get(KEY), normalized)


@settings(max_examples=150, deadline=None)
@given(row=rows)
def test_a_journaled_row_is_a_fixed_point(row):
    normalized = normalize_row(row)
    with tempfile.TemporaryDirectory() as tmp:
        journal = SweepJournal(f"{tmp}/j.jsonl")
        journal.start()
        journal.append(KEY, normalized)
        journal.close()
        assert_fixed_point(journal.load()[KEY], normalized)


def test_every_provenance_returns_the_same_bytes(tmp_path):
    grid = [
        sweep_config("proposed", 0.5, 1, 4.0, 1.0),
        sweep_config("conventional", 1.0, 1, 4.0, 1.0),
        dataclasses.replace(
            sweep_config("proposed", 1.0, 2, 4.0, 1.0),
            monitor_invariants=True,
            faults=fault_mix("combined", 4.0, 1.0),
        ),
    ]
    store = {
        "cache_dir": str(tmp_path / "cache"),
        "journal": str(tmp_path / "sweep.jsonl"),
    }

    serial = SweepExecutor(ExecutorConfig()).run(grid)
    pooled = SweepExecutor(ExecutorConfig(workers=2, **store)).run(grid)
    replay = SweepExecutor(ExecutorConfig(cache_dir=store["cache_dir"]))
    replayed = replay.run(grid)
    resume = SweepExecutor(ExecutorConfig(journal=store["journal"], resume=True))
    resumed = resume.run(grid)

    assert replay.summary()["cache_hits"] == 3
    assert resume.summary()["resumed"] == 3
    assert isinstance(serial[2]["faults"], dict)  # the faulted point's sub-dict
    expected = [unsorted(r) for r in serial]
    for rows_ in (pooled, replayed, resumed):
        assert [unsorted(r) for r in rows_] == expected
