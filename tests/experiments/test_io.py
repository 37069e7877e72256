"""Tests for the results archive (JSON-lines persistence)."""

import json

import numpy as np
import pytest

from repro.experiments.io import load_results, save_results


def test_roundtrip(tmp_path):
    rows = [{"scheme": "proposed", "load": 1.0, "x": 0.5},
            {"scheme": "conventional", "load": 2.0, "x": 0.7}]
    p = save_results(rows, tmp_path / "sweep.jsonl")
    assert load_results(p) == rows


def test_manifest_header_written(tmp_path):
    p = save_results([{"a": 1}], tmp_path / "r.jsonl")
    first = json.loads(p.read_text().splitlines()[0])
    assert first["_manifest"] is True
    assert "repro" in first


def test_numpy_scalars_coerced(tmp_path):
    rows = [{"x": np.float64(1.5), "n": np.int64(3), "xs": (np.float64(1.0),)}]
    p = save_results(rows, tmp_path / "np.jsonl")
    loaded = load_results(p)
    assert loaded == [{"x": 1.5, "n": 3, "xs": [1.0]}]


def test_append_mode(tmp_path):
    p = tmp_path / "a.jsonl"
    save_results([{"i": 1}], p)
    save_results([{"i": 2}], p, append=True)
    assert [r["i"] for r in load_results(p)] == [1, 2]


def test_append_to_missing_file_creates_it(tmp_path):
    p = save_results([{"i": 1}], tmp_path / "new.jsonl", append=True)
    assert load_results(p) == [{"i": 1}]


@pytest.mark.parametrize("first", ['{"i": 9}', '[1]'], ids=["row", "array"])
def test_headerless_file_refused(tmp_path, first):
    p = tmp_path / "legacy.jsonl"
    p.write_text(first + "\n")
    with pytest.raises(ValueError, match="not a manifest"):
        load_results(p)


def test_unsupported_format_rejected(tmp_path):
    p = tmp_path / "future.jsonl"
    p.write_text('{"_manifest": true, "format": 99}\n{"i": 1}\n')
    with pytest.raises(ValueError):
        load_results(p)


def test_empty_file(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    assert load_results(p) == []


def test_directories_created(tmp_path):
    p = save_results([{"i": 1}], tmp_path / "deep" / "dir" / "r.jsonl")
    assert p.exists()
