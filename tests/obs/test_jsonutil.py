"""The shared JSON helpers (repro.obs.jsonutil).

:func:`canonical_json` is the one deterministic encoding: the cache,
the journal and the trace exporter all encode through it, and numpy
scalars reach its one ``default=`` hook, :func:`unwrap_scalar`, instead
of a walk over every value first.  This is the single place that
coercion contract is pinned.  :func:`write_json` is the one writer of
every JSON report and fixture.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.obs import jsonutil
from repro.obs.jsonutil import canonical_json, unwrap_scalar, write_json


def decoded(value):
    return json.loads(canonical_json(value))


class TestScalars:
    def test_numpy_floats_unwrap_to_python_floats(self):
        out = decoded(np.float64(0.25))
        assert type(out) is float and out == 0.25
        assert canonical_json(np.float64(0.25)) == canonical_json(0.25)

    def test_numpy_ints_unwrap_to_python_ints(self):
        out = decoded(np.int64(7))
        assert type(out) is int and out == 7
        assert canonical_json(np.int64(7)) == "7"

    def test_plain_values_pass_through(self):
        for v in (1, 2.5, "x", True, None):
            assert canonical_json(v) == json.dumps(v)
            out = decoded(v)
            assert out == v and type(out) is type(v)


class TestContainers:
    def test_tuples_become_lists(self):
        assert decoded((1, 2, (3, 4))) == [1, 2, [3, 4]]

    def test_nested_mixed_structure(self):
        row = {
            "delay": np.float64(1.5),
            "counts": (np.int64(2), np.int64(3)),
            "sub": {"loads": [np.float64(0.5), 1.0]},
        }
        out = decoded(row)
        assert out == {
            "delay": 1.5, "counts": [2, 3], "sub": {"loads": [0.5, 1.0]}
        }
        assert type(out["delay"]) is float
        assert all(type(c) is int for c in out["counts"])

    def test_dict_keys_preserved(self):
        assert decoded({"a": (1,), "b": {}}) == {"a": [1], "b": {}}

    def test_shared_import_sites_agree(self, tmp_path, monkeypatch):
        # the cache, the journal and the trace exporter all encode
        # through canonical_json, so through its one hook
        from repro.exec import ResultCache, SweepJournal, cache, hashing, journal
        from repro.obs import trace

        for module in (hashing, cache, journal, trace):
            assert module.canonical_json is canonical_json
        unwrapped = []

        def recording(value):
            unwrapped.append(type(value))
            return unwrap_scalar(value)

        monkeypatch.setattr(jsonutil, "unwrap_scalar", recording)
        ResultCache(tmp_path / "cache").put("k", {"n": np.int64(1)})
        log = SweepJournal(tmp_path / "j.jsonl")
        log.append("k", {"n": np.int32(2)})
        log.close()
        recorder = trace.TraceRecorder(trace.TraceConfig())
        recorder.emit(0.5, "frame", "tx", n=np.int16(3))
        assert list(recorder.jsonl_lines()) == [
            '{"cat":"frame","ev":"tx","n":3,"seq":1,"t":0.5}'
        ]
        assert unwrapped == [np.int64, np.int32, np.int16]


def _walk(value):
    """The walk every encode used to run first, kept as the reference."""
    if isinstance(value, dict):
        return {k: _walk(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_walk(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


class TestAgainstTheWalk:
    CASES = {
        "int64": np.int64(-7),
        "float32": np.float32(0.1),
        "float64": np.float64(1 / 3),
        "bool_": np.bool_(True),
        "nan": math.nan,
        "numpy nan": np.float64("nan"),
        "inf": math.inf,
        "-inf": -math.inf,
        "numpy -inf": np.float32("-inf"),
        "0-d float array": np.array(2.5),
        "0-d int array": np.array(3),
        "nested tuples": (1, (np.int32(2), (np.float64(0.5), ())), [np.uint8(255)]),
        "row": {"b": (np.int16(2),), "a": {"z": np.float32(1.5), "y": [np.bool_(False)]}},
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_encodes_the_walked_bytes(self, name):
        value = self.CASES[name]
        old = json.dumps(_walk(value), sort_keys=True, separators=(",", ":"))
        assert canonical_json(value) == old
        # the results archive's default-separator encoding agrees too
        assert json.dumps(value, default=unwrap_scalar) == json.dumps(_walk(value))

    @pytest.mark.parametrize("value", [object(), {1, 2}, {"k": [b"x"]}])
    def test_an_unsupported_type_raises_on_both_sides(self, value):
        with pytest.raises(TypeError):
            json.dumps(_walk(value), sort_keys=True, separators=(",", ":"))
        with pytest.raises(TypeError):
            canonical_json(value)


def _record_walk(value):
    """The field walk to_jsonable made, one call per value, kept as the
    reference."""
    if hasattr(value, "__dataclass_fields__"):
        return {
            f.name: _record_walk(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [_record_walk(v) for v in value]
    return value


def _typed(value):
    """A tree that is equal only where every node's type, key order and
    repr are: ``1 == 1.0 == True`` and ``np.float64(x) == x`` are not."""
    if isinstance(value, dict):
        return ("dict", [(k, _typed(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("list", [_typed(v) for v in value])
    return (type(value), repr(value))


def _records():
    """One instance per JsonRecord class, with nested records, tuple
    fields and numpy-scalar fields set."""
    import random

    from repro.ess.coordinator import EssConfig
    from repro.validate.chaos import fault_mix
    from repro.faults.plan import ApFault, LinkFault
    from repro.network.bss import ScenarioConfig
    from repro.network.mobility import EssCellContext
    from repro.obs.trace import TraceConfig
    from repro.redteam.genome import DecodeSettings, random_genome
    from repro.redteam.objective import BreachVerdict, ObjectiveConfig
    from repro.redteam.search import CampaignConfig, Champion

    ess = EssCellContext(
        cell="ap/1x0",
        epoch=np.int64(2),
        epoch_start=np.float64(30.0),
        handoff_arrivals=((0.5, "voice"), (np.float64(1.25), "video")),
    )
    scenario = ScenarioConfig(
        scheme="proposed-multipoll",
        seed=np.int64(3),
        load=np.float64(1.5),
        sim_time=20.0,
        warmup=2.0,
        alphas=(np.int64(2), 6, 8),
        monitor_invariants=True,
        faults=fault_mix("combined", 20.0, 2.0),
        trace=TraceConfig(categories=("frame", "token"), capacity=1024),
        ess=ess,
    )
    rng = random.Random(0)
    genome = random_genome(rng, DecodeSettings(), "bss")
    verdict = BreachVerdict(
        breached=np.bool_(True),
        score=np.float64(2.5),
        signature=("delivery", "qos:delay"),
        metrics={"ratio": np.float32(0.5), "drops": (1, 2)},
    )
    return [
        scenario,
        scenario.faults,
        scenario.trace,
        ess,
        EssConfig(
            rows=2, cols=3, seed=np.int64(4),
            backhaul_faults=(LinkFault("ap/0x0", "ap/0x1", 1.0, None),),
            ap_faults=(ApFault("ap/1x1", np.float64(2.0), 5.0),),
        ),
        DecodeSettings(sim_time=np.float64(8.0)),
        genome,
        random_genome(rng, DecodeSettings(), "ess"),
        ObjectiveConfig(ratio_weight=np.float64(5.0)),
        verdict,
        CampaignConfig(budget=np.int64(4), shrink=True),
        Champion(genome, verdict, found_at=np.int64(3), shrunk=genome,
                 shrunk_verdict=verdict, reproducer="r.json"),
    ]


class TestToJsonableAgainstTheWalk:
    """to_jsonable copies plain-typed values without a call; its output
    must stay the old walk's, node for node."""

    RECORDS = _records()

    def test_every_record_class_is_covered(self):
        classes, todo = set(), [jsonutil.JsonRecord]
        while todo:
            for sub in todo.pop().__subclasses__():
                todo.append(sub)
                if sub.__module__.startswith("repro."):
                    classes.add(sub)
        assert {type(r) for r in self.RECORDS} == classes

    @pytest.mark.parametrize(
        "index", range(len(RECORDS)),
        ids=[f"{type(r).__name__}-{i}" for i, r in enumerate(RECORDS)],
    )
    def test_walks_agree(self, index):
        record = self.RECORDS[index]
        assert _typed(jsonutil.to_jsonable(record)) == _typed(_record_walk(record))


class TestWriteJson:
    def test_writes_sorted_indented_json_with_a_newline(self, tmp_path):
        payload = {"b": [1, 2.5, None], "a": {"z": "\u00e9", "y": True}}
        path = write_json(tmp_path / "deep" / "dir" / "report.json", payload)
        assert path == tmp_path / "deep" / "dir" / "report.json"
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
