"""Surface index: grouping, interpolation, refusal, back-fill configs."""

import dataclasses
import itertools
import json
import statistics
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import ResultCache, config_key
from repro.experiments import sweep_config
from repro.serve import SurfaceIndex
from repro.serve.surface import CANDIDATE_AXES, SurfaceError, flatten_metrics


def _row(load, seed):
    """A fabricated result row whose values are load/seed functions."""
    return {
        "scheme": "proposed",
        "seed": seed,
        "sim_time": 8.0,
        "blocking_probability": 0.01 * load + 0.001 * seed,
        "voice_delay_mean": 0.004 * load,
        "calls_dropped": seed,
        "call_attempts_handoff": 10 * seed,
        "ok": True,
        "analytic_voice_bounds": [0.01, 0.02, 0.03],
        "faults": {"polls_lost": load},
    }


def seed_cache(tmp_path, loads=(0.5, 1.0, 2.0), seeds=(1, 2)):
    cache = ResultCache(tmp_path / "cache")
    for load in loads:
        for seed in seeds:
            cfg = sweep_config("proposed", load, seed, 8.0, 1.0)
            cache.put(config_key(cfg), _row(load, seed), cfg)
    return cache


class TestFlattenMetrics:
    def test_numbers_nesting_lists_and_skips(self):
        flat = flatten_metrics(_row(1.0, 1))
        assert flat["blocking_probability"] == pytest.approx(0.011)
        assert flat["faults.polls_lost"] == 1.0
        assert flat["analytic_voice_bounds_count"] == 3.0
        assert flat["analytic_voice_bounds_max"] == 0.03
        assert "scheme" not in flat  # strings skipped
        assert "ok" not in flat  # bools skipped

    def test_mixed_list_is_skipped(self):
        flat = flatten_metrics({"xs": [1, "two"], "empty": []})
        assert flat == {}


class TestIndexing:
    def test_rows_group_into_one_surface(self, tmp_path):
        index = SurfaceIndex.from_cache(seed_cache(tmp_path))
        assert len(index.surfaces) == 1
        (surface,) = index.surfaces.values()
        assert surface.scheme == "proposed"
        assert surface.seeds == {1, 2}
        assert index.rows == 6
        assert surface.axis_values()["load"] == [0.5, 1.0, 2.0]
        assert surface.backfillable

    def test_configless_entries_are_counted_not_fatal(self, tmp_path):
        cache = seed_cache(tmp_path)
        cache.put("deadbeef" * 8, {"x": 1})  # no config attached
        index = SurfaceIndex.from_cache(cache)
        assert index.skipped == 1
        assert index.rows == 6

    def test_rows_of_removed_engine_tiers_are_skipped(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        exact = sweep_config("proposed", 1.0, 1, 8.0, 1.0)
        cache.put(config_key(exact), _row(1.0, 1), exact)
        # an entry an older build wrote under the removed hybrid tier
        hybrid = dict(exact.to_dict(), engine="hybrid")
        cache.put("ab" * 32, _row(1.0, 1), types.SimpleNamespace(
            to_dict=lambda: hybrid
        ))
        index = SurfaceIndex.from_cache(cache)
        assert len(index.surfaces) == 1
        assert index.describe()["skipped_entries"] == 1
        assert index.rows == 1

    def test_rows_of_the_removed_neighbourhood_model_are_skipped(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        poisson = sweep_config("proposed", 1.0, 1, 8.0, 1.0)
        cache.put(config_key(poisson), _row(1.0, 1), poisson)
        # an entry an older build wrote under the removed handoff model
        neighborhood = dict(poisson.to_dict(), mobility="neighborhood")
        cache.put("cd" * 32, _row(1.0, 1), types.SimpleNamespace(
            to_dict=lambda: neighborhood
        ))
        index = SurfaceIndex.from_cache(cache)
        assert len(index.surfaces) == 1
        assert index.describe()["skipped_entries"] == 1
        assert index.rows == 1

    def test_rows_of_the_batched_tier_are_skipped(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        exact = sweep_config("conventional", 1.0, 1, 8.0, 1.0)
        exact = dataclasses.replace(
            exact, new_voice_rate=0.0, new_video_rate=0.0,
            handoff_voice_rate=0.0, handoff_video_rate=0.0,
        )
        batched = dataclasses.replace(exact, engine="batched")
        cache.put(config_key(exact), _row(1.0, 1), exact)
        cache.put(config_key(batched), _row(1.0, 1), batched)
        index = SurfaceIndex.from_cache(cache)
        assert len(index.surfaces) == 1
        assert index.describe()["skipped_entries"] == 1
        assert index.rows == 1

    @pytest.mark.parametrize(
        "field, value",
        [("faults", "garbage"), ("voice", [1, 2]), ("trace", "x"),
         ("ess", "x")],
    )
    def test_wrong_typed_nested_field_is_skipped(self, field, value):
        config = sweep_config("proposed", 1.0, 1, 8.0, 1.0).to_dict()
        config[field] = value
        index = SurfaceIndex()
        assert index.add_entry("ab" * 32, config, _row(1.0, 1)) is None
        assert index.skipped == 1
        assert index.rows == 0

    def test_aggregates_ignore_insertion_order(self, tmp_path):
        cache = seed_cache(tmp_path)
        entries = list(cache.entries())
        forward, backward = SurfaceIndex(), SurfaceIndex()
        for entry in entries:
            forward.add_entry(*entry)
        for entry in reversed(entries):
            backward.add_entry(*entry)
        at = {"load": 1.25}
        a = forward.find("proposed").lookup(at)
        b = backward.find("proposed").lookup(at)
        assert json.dumps(a.metrics, sort_keys=True) == json.dumps(
            b.metrics, sort_keys=True
        )

    def test_find_prefers_most_rows_and_honours_pin(self, tmp_path):
        cache = seed_cache(tmp_path)
        small = sweep_config("proposed", 1.0, 1, 4.0, 1.0)  # other sim_time
        cache.put(config_key(small), _row(1.0, 1), small)
        index = SurfaceIndex.from_cache(cache)
        assert len(index.surfaces) == 2
        assert index.find("proposed").seeds == {1, 2}
        small_id = next(
            sid
            for sid, s in index.surfaces.items()
            if s.residual["sim_time"] == 4.0
        )
        assert index.find("proposed", small_id).surface_id == small_id
        with pytest.raises(SurfaceError) as err:
            index.find("conventional")
        assert err.value.code == "unknown_surface"
        # a pin to another scheme's surface is refused, naming both
        with pytest.raises(SurfaceError) as err:
            index.find("conventional", small_id)
        assert err.value.code == "unknown_surface"
        assert err.value.detail == {
            "surface_id": small_id,
            "scheme": "conventional",
            "surface_scheme": "proposed",
        }
        assert "'conventional'" in str(err.value)
        assert "'proposed'" in str(err.value)


class TestCompiledForm:
    """Lookups read a compiled form that every ``add_entry`` drops."""

    def test_new_seed_at_existing_coordinate_changes_the_mean(self, tmp_path):
        index = SurfaceIndex.from_cache(seed_cache(tmp_path, seeds=(1,)))
        surface = index.find("proposed")
        before = surface.lookup({"load": 1.0})
        between = surface.lookup({"load": 1.5})
        assert before.metrics["blocking_probability"] == pytest.approx(0.011)

        cfg = sweep_config("proposed", 1.0, 2, 8.0, 1.0)
        assert index.add_entry(
            config_key(cfg), cfg.to_dict(), _row(1.0, 2)
        ) is surface

        after = surface.lookup({"load": 1.0})
        assert after.metrics["blocking_probability"] == pytest.approx(0.0115)
        assert after.keys == sorted([*before.keys, config_key(cfg)])
        moved = surface.lookup({"load": 1.5})
        assert moved.metrics["blocking_probability"] != (
            between.metrics["blocking_probability"]
        )
        assert config_key(cfg) in moved.keys

    def test_new_load_shows_in_axes_and_describe(self, tmp_path):
        index = SurfaceIndex.from_cache(seed_cache(tmp_path))
        surface = index.find("proposed")
        assert surface.lookup({"load": 0.8}).mode == "interpolated"
        assert surface.describe()["axes"]["load"] == [0.5, 1.0, 2.0]

        for seed in (1, 2):
            cfg = sweep_config("proposed", 0.8, seed, 8.0, 1.0)
            index.add_entry(config_key(cfg), cfg.to_dict(), _row(0.8, seed))

        assert surface.axis_values()["load"] == [0.5, 0.8, 1.0, 2.0]
        described = surface.describe()
        assert described["axes"]["load"] == [0.5, 0.8, 1.0, 2.0]
        assert described["points"] == 4
        assert described["rows"] == 8
        assert surface.lookup({"load": 0.8}).mode == "exact"


class TestLookup:
    def test_exact_hit_is_the_seed_mean(self, tmp_path):
        surface = SurfaceIndex.from_cache(seed_cache(tmp_path)).find(
            "proposed"
        )
        hit = surface.lookup({"load": 1.0})
        assert hit.mode == "exact"
        # mean over seeds 1 and 2 of 0.01*1.0 + 0.001*seed
        assert hit.metrics["blocking_probability"] == pytest.approx(0.0115)
        assert len(hit.keys) == 2

    def test_midpoint_interpolates_linearly(self, tmp_path):
        surface = SurfaceIndex.from_cache(seed_cache(tmp_path)).find(
            "proposed"
        )
        mid = surface.lookup({"load": 1.5})
        assert mid.mode == "interpolated"
        # halfway between the load=1.0 and load=2.0 seed means
        assert mid.metrics["blocking_probability"] == pytest.approx(0.0165)
        assert mid.provenance()["corners"] == [
            {"load": 1.0, "n_data_stations": 4.0},
            {"load": 2.0, "n_data_stations": 4.0},
        ]

    def test_extrapolation_is_refused(self, tmp_path):
        surface = SurfaceIndex.from_cache(seed_cache(tmp_path)).find(
            "proposed"
        )
        with pytest.raises(SurfaceError) as err:
            surface.lookup({"load": 9.0})
        assert err.value.code == "extrapolation_refused"
        assert err.value.detail["observed"] == [0.5, 2.0]

    def test_require_exact_raises_missing_points(self, tmp_path):
        surface = SurfaceIndex.from_cache(seed_cache(tmp_path)).find(
            "proposed"
        )
        with pytest.raises(SurfaceError) as err:
            surface.lookup({"load": 1.25}, require_exact=True)
        assert err.value.code == "missing_points"
        assert err.value.detail["missing"] == [
            {"load": 1.25, "n_data_stations": 4.0}
        ]

    def test_missing_configs_roundtrip_to_sweep_keys(self, tmp_path):
        """Back-fill configs must hash to the canonical sweep cache keys."""
        surface = SurfaceIndex.from_cache(seed_cache(tmp_path)).find(
            "proposed"
        )
        configs = surface.missing_configs(
            [{"load": 1.25, "n_data_stations": 4.0}]
        )
        assert len(configs) == 2  # one per observed seed
        from repro.network.bss import ScenarioConfig

        keys = {config_key(ScenarioConfig.from_dict(c)) for c in configs}
        expected = {
            config_key(sweep_config("proposed", 1.25, seed, 8.0, 1.0))
            for seed in (1, 2)
        }
        assert keys == expected

    def test_ess_rows_block_backfill(self, tmp_path):
        cache = seed_cache(tmp_path)
        cfg = sweep_config("proposed", 1.0, 7, 8.0, 1.0)
        entry = dict(cfg.to_dict())
        entry["ess"] = {"cell": [0, 0]}
        index = SurfaceIndex.from_cache(cache)
        surface = index.add_entry("f" * 64, entry, _row(1.0, 7))
        assert surface is index.find("proposed")
        assert surface.ess_rows == 1
        assert not surface.backfillable
        assert surface.missing_configs([{"load": 1.5}]) == []


# -- two-axis interpolation against a reference ------------------------------

GRID_LOADS = (0.5, 1.0, 2.0, 3.0)
GRID_STATIONS = (2, 4, 8)


def _grid_row(load, stations, seed):
    """Values whose float sums round differently per corner order."""
    row = {
        "blocking_probability": 0.013 * load / stations + 0.0007 * seed,
        "voice_delay_mean": 0.004 * load * stations + 0.1 / (3 * seed),
        "goodput_utilization": 0.1 * load + 0.07 * stations / seed,
        "calls_dropped": seed * stations,
    }
    if load != 3.0 and stations != 2:
        # absent on some corners: only shared metrics interpolate
        row["faults.polls_lost"] = 0.3 * load + stations / 7
    return row


def two_axis_index(skip=()):
    """loads x stations x seeds (1, 2); ``skip`` omits (load, stations)."""
    index = SurfaceIndex()
    for load, stations in itertools.product(GRID_LOADS, GRID_STATIONS):
        if (load, stations) in skip:
            continue
        for seed in (1, 2):
            cfg = dataclasses.replace(
                sweep_config("proposed", load, seed, 8.0, 1.0),
                n_data_stations=stations,
            )
            index.add_entry(
                config_key(cfg), cfg.to_dict(), _grid_row(load, stations, seed)
            )
    return index


def reference_lookup(surface, at):
    """Multilinear lookup as first specified: sorted-set brackets,
    ``GridPoint.metrics()`` per corner and one ``sum`` per metric."""
    target = [float(at[axis]) for axis in CANDIDATE_AXES]
    brackets = []
    for i, (axis, x) in enumerate(zip(CANDIDATE_AXES, target)):
        uniques = sorted({c[i] for c in surface.points})
        if x in uniques:
            brackets.append((x, x))
        elif x < uniques[0] or x > uniques[-1]:
            return {"error": "extrapolation_refused", "axis": axis,
                    "observed": [uniques[0], uniques[-1]]}
        else:
            brackets.append((max(u for u in uniques if u < x),
                             min(u for u in uniques if u > x)))
    corners = sorted(set(itertools.product(*brackets)))
    missing = [c for c in corners if c not in surface.points]
    if missing:
        return {"error": "missing_points",
                "missing": [dict(zip(CANDIDATE_AXES, c)) for c in missing]}
    corner_metrics = []
    for corner in corners:
        weight = 1.0
        for (lo, hi), x, c in zip(brackets, target, corner):
            if hi != lo:
                t = (x - lo) / (hi - lo)
                weight *= t if c == hi else 1.0 - t
        corner_metrics.append((weight, surface.points[corner].metrics()))
    shared = sorted(set.intersection(*(set(m) for _w, m in corner_metrics)))
    return {
        "at": dict(zip(CANDIDATE_AXES, target)),
        "mode": "exact" if len(corners) == 1 else "interpolated",
        "metrics": {
            name: sum(w * m[name] for w, m in corner_metrics)
            for name in shared
        },
        "keys": sorted(
            {k for c in corners for k in surface.points[c].keys}
        ),
        "corners": [dict(zip(CANDIDATE_AXES, c)) for c in corners],
    }


def served(surface, at):
    try:
        hit = surface.lookup(at)
    except SurfaceError as err:
        return {"error": err.code, **{
            k: v for k, v in err.detail.items()
            if k in ("axis", "observed", "missing")
        }}
    return {"at": hit.at, "mode": hit.mode, "metrics": hit.metrics,
            "keys": hit.keys, "corners": hit.corners}


class TestTwoAxisInterpolation:
    @pytest.mark.parametrize("load, stations", [
        (1.0, 4), (0.5, 2), (3.0, 8),          # exact hits
        (1.0, 3), (0.75, 4), (3.0, 5),         # on a cell edge
        (1.5, 6), (0.6, 2.5), (2.9, 7.9),      # inside a cell: 4 corners
        (0.5, 8), (3.0, 2),                    # grid corners
        (2.5, 6.0), (1.25, 3.0),               # corners lacking a metric
        (9.0, 4), (1.0, 16), (0.1, 1), (1.0, 1.5),  # refused per axis
    ])
    def test_lookup_bytes_match_the_reference(self, load, stations):
        surface = two_axis_index().find("proposed")
        at = {"load": load, "n_data_stations": stations}
        expected = reference_lookup(surface, at)
        assert json.dumps(served(surface, at), sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    def test_four_corner_weights_are_bilinear(self):
        surface = two_axis_index().find("proposed")
        hit = surface.lookup({"load": 1.5, "n_data_stations": 6})
        assert hit.mode == "interpolated"
        assert len(hit.corners) == 4
        assert len(hit.keys) == 8  # 4 corners x 2 seeds
        # goodput is linear in both axes, so bilinear is exact
        mean = statistics.mean(
            [0.1 * 1.5 + 0.07 * 6 / seed for seed in (1, 2)]
        )
        assert hit.metrics["goodput_utilization"] == pytest.approx(mean)

    def test_extrapolation_names_the_refused_axis(self):
        surface = two_axis_index().find("proposed")
        with pytest.raises(SurfaceError) as err:
            surface.lookup({"load": 1.0, "n_data_stations": 16})
        assert err.value.code == "extrapolation_refused"
        assert err.value.detail["axis"] == "n_data_stations"
        assert err.value.detail["observed"] == [2.0, 8.0]

    def test_missing_corner_matches_the_reference(self):
        surface = two_axis_index(skip={(2.0, 8)}).find("proposed")
        at = {"load": 1.5, "n_data_stations": 6}
        expected = reference_lookup(surface, at)
        assert expected["missing"] == [{"load": 2.0, "n_data_stations": 8.0}]
        assert served(surface, at) == expected
        # the same hole is not a corner of a neighbouring cell
        at = {"load": 0.75, "n_data_stations": 3}
        assert json.dumps(served(surface, at), sort_keys=True) == json.dumps(
            reference_lookup(surface, at), sort_keys=True
        )


#: two-axis surfaces by skipped coordinate, built once
_SURFACES = {skip: two_axis_index(skip=skip).find("proposed")
             for skip in ((), ((2.0, 8),))}
#: shared names, a name some corners lack, and one no corner has
_READ_NAMES = ["voice_delay_mean", "faults.polls_lost", "calls_dropped",
               "absent", "blocking_probability"]


class TestRead:
    """``read`` is ``lookup(at).metrics`` for the names asked, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        load=st.one_of(st.sampled_from(GRID_LOADS), st.floats(0.25, 3.5)),
        stations=st.one_of(st.sampled_from(GRID_STATIONS),
                           st.floats(1.0, 9.0)),
        skip=st.sampled_from(sorted(_SURFACES)),
    )
    def test_read_is_the_lookup_bit_for_bit(self, load, stations, skip):
        surface = _SURFACES[skip]
        at = {"load": load, "n_data_stations": stations}
        try:
            expected = surface.lookup(at).metrics
        except SurfaceError as err:
            with pytest.raises(SurfaceError) as raised:
                surface.read(at, _READ_NAMES)
            assert raised.value.to_dict() == err.to_dict()
            return
        values = surface.read(at, _READ_NAMES)
        assert list(values) == [n for n in _READ_NAMES if n in expected]
        assert [v.hex() for v in values.values()] == [
            expected[name].hex() for name in values
        ]

    def test_a_name_some_corner_lacks_is_left_out(self):
        surface = _SURFACES[()]
        # (2.5, 6) has corners at load 3.0, which lack faults.polls_lost
        at = {"load": 2.5, "n_data_stations": 6}
        assert "faults.polls_lost" not in surface.lookup(at).metrics
        assert list(surface.read(at, _READ_NAMES)) == [
            "voice_delay_mean", "calls_dropped", "blocking_probability",
        ]
