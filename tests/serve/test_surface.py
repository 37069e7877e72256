"""Surface index: grouping, interpolation, refusal, back-fill configs."""

import json
import types

import pytest

from repro.exec import ResultCache, config_key
from repro.experiments import sweep_config
from repro.serve import SurfaceIndex
from repro.serve.surface import SurfaceError, flatten_metrics


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
