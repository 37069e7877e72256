"""The shared JSON helpers (repro.obs.jsonutil).

:func:`jsonable` was extracted from the duplicate copies in
``exec.hashing`` and ``obs.trace``; both now import it from here, so
this is the single place the numpy-scalar/tuple coercion contract is
pinned.  :func:`write_json` is the one writer of every JSON report and
fixture.
"""

import json

import numpy as np

from repro.obs.jsonutil import jsonable, write_json


class TestScalars:
    def test_numpy_floats_unwrap_to_python_floats(self):
        out = jsonable(np.float64(0.25))
        assert type(out) is float and out == 0.25

    def test_numpy_ints_unwrap_to_python_ints(self):
        out = jsonable(np.int64(7))
        assert type(out) is int and out == 7

    def test_plain_values_pass_through(self):
        for v in (1, 2.5, "x", True, None):
            assert jsonable(v) is v


class TestContainers:
    def test_tuples_become_lists(self):
        assert jsonable((1, 2, (3, 4))) == [1, 2, [3, 4]]

    def test_nested_mixed_structure(self):
        row = {
            "delay": np.float64(1.5),
            "counts": (np.int64(2), np.int64(3)),
            "sub": {"loads": [np.float64(0.5), 1.0]},
        }
        out = jsonable(row)
        assert out == {
            "delay": 1.5, "counts": [2, 3], "sub": {"loads": [0.5, 1.0]}
        }
        assert type(out["delay"]) is float
        assert all(type(c) is int for c in out["counts"])

    def test_dict_keys_preserved(self):
        assert jsonable({"a": (1,), "b": {}}) == {"a": [1], "b": {}}

    def test_shared_import_sites_agree(self):
        # exec.hashing and obs.trace must both resolve to this helper
        from repro.exec import hashing
        from repro.obs import trace

        assert hashing.jsonable is jsonable
        assert trace._jsonable is jsonable


class TestWriteJson:
    def test_writes_sorted_indented_json_with_a_newline(self, tmp_path):
        payload = {"b": [1, 2.5, None], "a": {"z": "\u00e9", "y": True}}
        path = write_json(tmp_path / "deep" / "dir" / "report.json", payload)
        assert path == tmp_path / "deep" / "dir" / "report.json"
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
