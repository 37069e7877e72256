"""Capacity-planning queries: values, provenance, error surfaces."""

import dataclasses
import itertools
import json
import math

import pytest

from repro.exec import ResultCache, config_key
from repro.exec.hashing import KEY_FORMAT
from repro.experiments import sweep_config
from repro.serve import SurfaceError, SurfaceIndex, answer_query
from repro.serve.queries import _BISECT_STEPS, DEFAULT_CONSTRAINTS, QueryResult


def _row(load, seed):
    """Blocking rises linearly with load so the admissibility frontier
    sits at a hand-computable coordinate."""
    return {
        "blocking_probability": 0.01 * load,
        "dropping_probability": 0.001 * load,
        "voice_delay_mean": 0.004 * load,
        "calls_admitted_new": 100 - 10 * load,
        "calls_blocked": 10 * load,
        "calls_dropped": 2.0 * load,
        "call_attempts_handoff": 20.0,
        "ess": {"handoffs_injected": 5.0 * load},
    }


@pytest.fixture
def index(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    for load in (0.5, 1.0, 2.0):
        for seed in (1, 2):
            cfg = sweep_config("proposed", load, seed, 8.0, 1.0)
            cache.put(config_key(cfg), _row(load, seed), cfg)
    return SurfaceIndex.from_cache(cache)


class TestOperatingPoint:
    def test_exact_point_with_provenance(self, index):
        result = answer_query(
            index, "operating_point", {"scheme": "proposed", "load": 1.0}
        )
        assert result.values["blocking_probability"] == pytest.approx(0.01)
        prov = result.provenance
        assert prov["mode"] == "exact"
        assert prov["key_format"] == KEY_FORMAT
        assert len(prov["cache_keys"]) == 2

    def test_metric_subset_and_missing_metric(self, index):
        result = answer_query(
            index,
            "operating_point",
            {"scheme": "proposed", "load": 1.0,
             "metrics": "blocking_probability"},
        )
        assert list(result.values) == ["blocking_probability"]
        with pytest.raises(SurfaceError) as err:
            answer_query(
                index,
                "operating_point",
                {"scheme": "proposed", "load": 1.0, "metrics": "nope"},
            )
        assert err.value.code == "missing_metric"
        assert err.value.detail["missing"] == ["nope"]

    def test_exact_flag_refuses_interpolation(self, index):
        with pytest.raises(SurfaceError) as err:
            answer_query(
                index,
                "operating_point",
                {"scheme": "proposed", "load": 0.75, "exact": "true"},
            )
        assert err.value.code == "missing_points"

    def test_responses_are_byte_deterministic(self, index):
        params = {"scheme": "proposed", "load": 1.25}
        a = answer_query(index, "operating_point", params).to_dict()
        b = answer_query(index, "operating_point", params).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_scheme_is_required(self, index):
        with pytest.raises(SurfaceError) as err:
            answer_query(index, "operating_point", {"load": 1.0})
        assert err.value.code == "bad_request"


class TestAdmissibleCalls:
    def test_frontier_is_bisected_between_grid_loads(self, index):
        # blocking = 0.01*load crosses the 0.015 ceiling at load = 1.5
        result = answer_query(
            index,
            "admissible_calls",
            {"scheme": "proposed",
             "constraints": {"blocking_probability": 0.015}},
        )
        assert result.values["admissible"] is True
        assert result.values["saturated"] is False
        assert result.values["max_load"] == pytest.approx(1.5, abs=1e-4)
        assert "calls_admitted_new" in result.values["at_max_load"]

    def test_saturated_when_no_load_violates(self, index):
        result = answer_query(
            index,
            "admissible_calls",
            {"scheme": "proposed",
             "constraints": {"blocking_probability": 0.5}},
        )
        assert result.values["saturated"] is True
        assert result.values["max_load"] == 2.0

    def test_not_admissible_at_lightest_load(self, index):
        result = answer_query(
            index,
            "admissible_calls",
            {"scheme": "proposed",
             "constraints": {"blocking_probability": 0.0001}},
        )
        assert result.values["admissible"] is False
        assert result.values["max_load"] is None

    def test_unknown_constraint_metric_errors(self, index):
        with pytest.raises(SurfaceError) as err:
            answer_query(
                index,
                "admissible_calls",
                {"scheme": "proposed", "constraints": {"nope": 1.0}},
            )
        assert err.value.code == "missing_metric"


def reference_admissible_calls(index, params):
    """``admissible_calls`` as first specified: a full ``lookup`` at
    every coarse load and every bisection step."""
    surface = index.find(params["scheme"])
    at = {"n_data_stations": float(params["n_data_stations"])} if (
        "n_data_stations" in params) else {}
    constraints = {
        str(k): float(v)
        for k, v in params.get("constraints", DEFAULT_CONSTRAINTS).items()
    }

    def ok(lookup):
        for metric, ceiling in sorted(constraints.items()):
            if metric not in lookup.metrics:
                raise SurfaceError(
                    "missing_metric",
                    f"constraint metric {metric!r} is not on this surface",
                    missing=[metric],
                    available=sorted(lookup.metrics),
                )
            if lookup.metrics[metric] > ceiling:
                return False
        return True

    loads = surface.axis_values()["load"]
    last_ok = first_bad = None
    for load in loads:
        if ok(surface.lookup({**at, "load": load})):
            last_ok = load
        else:
            first_bad = load
            break
    echo = {k: params[k] for k in sorted(params)}
    rounded = {k: round(v, 12) for k, v in constraints.items()}
    if last_ok is None:
        return QueryResult(
            "admissible_calls", echo,
            {"admissible": False, "constraints": rounded, "max_load": None,
             "note": "constraints violated at the lightest measured load"},
            surface.lookup({**at, "load": loads[0]}).provenance(),
        )
    max_load = last_ok
    if first_bad is not None:
        lo, hi = last_ok, first_bad
        for _ in range(_BISECT_STEPS):
            mid = (lo + hi) / 2.0
            if ok(surface.lookup({**at, "load": mid})):
                lo = mid
            else:
                hi = mid
        max_load = lo
    frontier = surface.lookup({**at, "load": max_load})
    names = ("calls_admitted_new", "calls_admitted_handoff", "calls_blocked",
             "calls_dropped", "blocking_probability", "dropping_probability",
             "analytic_voice_bounds_count", "analytic_video_bounds_count")
    return QueryResult(
        "admissible_calls", echo,
        {"admissible": True, "constraints": rounded,
         "max_load": round(max_load, 6), "saturated": first_bad is None,
         "at_max_load": {name: round(frontier.metrics[name], 12)
                         for name in names if name in frontier.metrics}},
        frontier.provenance(),
    )


def _grid_index(row, loads=(0.5, 1.0, 2.0), stations=(4,)):
    """Two seeds at each (load, stations) coordinate; ``row`` may drop
    a coordinate by returning None."""
    index = SurfaceIndex()
    for load, n, seed in itertools.product(loads, stations, (1, 2)):
        values = row(load, n, seed)
        if values is None:
            continue
        cfg = dataclasses.replace(
            sweep_config("proposed", load, seed, 8.0, 1.0), n_data_stations=n
        )
        index.add_entry(config_key(cfg), cfg.to_dict(), values)
    return index


def _two_axis_row(load, n, seed):
    """Sums whose float rounding depends on the corner order."""
    return {
        "blocking_probability": 0.0071 * load * (1 + n / 7) + 0.0003 * seed,
        "dropping_probability": 0.0013 * load * n / 3 + 0.0001 / seed,
        "calls_admitted_new": 100 / (load * n) + seed / 3,
        "calls_blocked": 7 * load * n / seed,
        "faults.polls_lost": 0.3 * load + n / 7,
    }


def _one_axis_row(load, n, seed):
    return _row(load, seed)


def _no_dropping_at_heavy_load(load, n, seed):
    row = _row(load, seed)
    if load == 2.0:
        del row["dropping_probability"]
    return row


def _nan_blocking_at_one(load, n, seed):
    row = _row(load, seed)
    if load == 1.0:
        row["blocking_probability"] = math.nan
    return row


def _case_index(row):
    if row is _two_axis_row:
        return _grid_index(row, loads=(0.5, 1.0, 2.0, 3.0), stations=(2, 4, 8))
    return _grid_index(row)

# (row function, query parameters)
_ADMISSIBLE_CASES = {
    "one-axis-default-saturated": (_one_axis_row, {}),
    "one-axis-given": (
        _one_axis_row,
        {"constraints": {"blocking_probability": 0.015}}),
    "one-axis-two-given": (
        _one_axis_row,
        {"constraints": {"blocking_probability": 0.015,
                         "dropping_probability": 0.0012}}),
    "one-axis-lightest-load-fails": (
        _one_axis_row,
        {"constraints": {"blocking_probability": 0.0001}}),
    "two-axis-default-between-stations": (
        _two_axis_row, {"n_data_stations": 3}),
    "two-axis-given-between-stations": (
        _two_axis_row,
        {"n_data_stations": 6.5,
         "constraints": {"blocking_probability": 0.03,
                         "dropping_probability": 0.015}}),
    "two-axis-given-on-grid-stations": (
        _two_axis_row,
        {"n_data_stations": 8,
         "constraints": {"blocking_probability": 0.05}}),
    "two-axis-saturated": (
        _two_axis_row,
        {"n_data_stations": 5, "constraints": {"blocking_probability": 1}}),
    "two-axis-lightest-load-fails": (
        _two_axis_row,
        {"n_data_stations": 2, "constraints": {"calls_blocked": 1}}),
    "constraint-missing-at-one-corner": (
        _no_dropping_at_heavy_load,
        {"constraints": {"blocking_probability": 0.015,
                         "dropping_probability": 0.01}}),
    "nan-metric-passes": (
        _nan_blocking_at_one,
        {"constraints": {"blocking_probability": 0.008}}),
}


def _answer_bytes(call):
    try:
        return json.dumps(call().to_dict(), sort_keys=True)
    except SurfaceError as exc:
        return json.dumps({"raised": exc.to_dict()}, sort_keys=True)


class TestAdmissibleCallsBytes:
    """Answers keep the bytes of the full-lookup bisection."""

    @pytest.mark.parametrize(
        "row, query", list(_ADMISSIBLE_CASES.values()),
        ids=list(_ADMISSIBLE_CASES),
    )
    def test_answer_matches_the_reference(self, row, query):
        index = _case_index(row)
        params = {"scheme": "proposed", **query}
        served = _answer_bytes(
            lambda: answer_query(index, "admissible_calls", params)
        )
        assert served == _answer_bytes(
            lambda: reference_admissible_calls(index, params)
        )

    def test_the_cases_reach_every_outcome(self):
        outcomes = set()
        for row, query in _ADMISSIBLE_CASES.values():
            answer = json.loads(_answer_bytes(lambda: answer_query(
                _case_index(row), "admissible_calls",
                {"scheme": "proposed", **query},
            )))
            values = answer.get("values", {})
            outcomes.add(
                answer["raised"]["code"] if "raised" in answer
                else "saturated" if values.get("saturated")
                else "bisected" if values["admissible"] else "none"
            )
        assert outcomes == {"saturated", "bisected", "none", "missing_metric"}


class TestHandoffDropRate:
    def test_rate_and_ess_metrics(self, index):
        result = answer_query(
            index, "handoff_drop_rate", {"scheme": "proposed", "load": 1.0}
        )
        assert result.values["handoff_attempts_mean"] == 20.0
        assert result.values["handoff_drop_rate"] == pytest.approx(0.1)
        assert result.values["ess"]["ess.handoffs_injected"] == 5.0


def test_unknown_kind_is_bad_request(index):
    with pytest.raises(SurfaceError) as err:
        answer_query(index, "telepathy", {"scheme": "proposed"})
    assert err.value.code == "bad_request"
    assert "telepathy" in str(err.value)
