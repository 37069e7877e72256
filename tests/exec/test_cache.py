"""Result cache: hit vs miss, corruption tolerance, clearing."""

from repro.exec import ResultCache, config_key
from repro.network.bss import ScenarioConfig


def test_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cfg = ScenarioConfig()
    key = config_key(cfg)

    assert cache.get(key) is None
    assert (cache.hits.value, cache.misses.value) == (0, 1)

    cache.put(key, {"scheme": "proposed", "x": 1.5}, cfg)
    assert cache.get(key) == {"scheme": "proposed", "x": 1.5}
    assert (cache.hits.value, cache.misses.value) == (1, 1)
    assert len(cache) == 1


def test_entries_are_self_describing(tmp_path):
    import json

    cache = ResultCache(tmp_path / "cache")
    cfg = ScenarioConfig(load=2.0)
    key = config_key(cfg)
    path = cache.put(key, {"x": 1}, cfg)
    entry = json.loads(path.read_text())
    assert entry["key"] == key
    assert entry["config"]["load"] == 2.0


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = config_key(ScenarioConfig())
    path = cache.put(key, {"x": 1})
    path.write_text("{not json")
    assert cache.get(key) is None


def test_clear_removes_everything(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    for seed in (1, 2, 3):
        cfg = ScenarioConfig(seed=seed)
        cache.put(config_key(cfg), {"seed": seed}, cfg)
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0


def test_sweep_recovers_from_corrupt_cache_entry(tmp_path):
    """A garbled entry is recomputed and rewritten, not fatal.

    Pins the ``except (OSError, ValueError)`` miss path in
    ``ResultCache.get`` at the executor level: corruption costs one
    re-simulation, never a crash or a poisoned row.
    """
    from repro.exec import ExecutorConfig, SweepExecutor

    def _point(config):
        return {"seed": config.seed, "load": config.load}

    cache_dir = tmp_path / "cache"
    grid = [ScenarioConfig(seed=s, sim_time=4.0, warmup=1.0) for s in (1, 2)]
    first = SweepExecutor(
        ExecutorConfig(cache_dir=str(cache_dir)), point_fn=_point
    )
    rows1 = first.run(grid)

    # garble exactly one entry on disk
    victim = cache_dir / "results" / f"{config_key(grid[0])}.json"
    victim.write_text('{"key": "truncated')

    second = SweepExecutor(
        ExecutorConfig(cache_dir=str(cache_dir)), point_fn=_point
    )
    rows2 = second.run(grid)
    assert rows2 == rows1
    summary = second.summary()
    assert summary["executed"] == 1  # only the garbled point re-ran
    assert summary["cache_hits"] == 1

    # the recomputation rewrote the entry: a third run is all hits
    third = SweepExecutor(
        ExecutorConfig(cache_dir=str(cache_dir)), point_fn=_point
    )
    third.run(grid)
    assert third.summary()["cache_hits"] == 2
    assert third.summary()["executed"] == 0


def test_tmp_orphans_are_invisible_and_swept(tmp_path):
    """A crash between temp-write and rename leaves ``.json.tmp``
    behind: scans skip it, ``clear`` removes it without counting it."""
    cache = ResultCache(tmp_path / "cache")
    cfg = ScenarioConfig()
    cache.put(config_key(cfg), {"x": 1}, cfg)
    orphan = cache.results_dir / "0abc.json.tmp"
    orphan.write_text('{"format": 5, "key": "0abc", "row": {}}')

    assert len(cache) == 1
    assert [e.key for e in cache.entries()] == [config_key(cfg)]
    assert cache.clear() == 1  # the orphan is not an entry
    assert not orphan.exists()
    assert list(cache.results_dir.iterdir()) == []


def test_entries_skip_corruption_without_charging_misses(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    good = ScenarioConfig(seed=1)
    cache.put(config_key(good), {"x": 1}, good)
    (cache.results_dir / "bad.json").write_text("{not json")
    (cache.results_dir / "foreign.json").write_text(
        '{"format": 0, "key": "foreign", "row": {}}'
    )

    scanned = list(cache.entries())
    assert [e.key for e in scanned] == [config_key(good)]
    assert scanned[0].config["seed"] == 1
    assert (cache.hits.value, cache.misses.value) == (0, 0)


def test_hit_miss_counters_flow_through_registry(tmp_path):
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    cache = ResultCache(tmp_path / "cache", registry=registry)
    cfg = ScenarioConfig()
    key = config_key(cfg)
    cache.get(key)
    cache.put(key, {"x": 1}, cfg)
    cache.get(key)

    counters = registry.snapshot()["counters"]
    assert counters["result_cache_hits"] == 1
    assert counters["result_cache_misses"] == 1
    # the int facades read the same instruments
    assert (cache.hits.value, cache.misses.value) == (1, 1)


def test_distinct_configs_do_not_collide(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    a, b = ScenarioConfig(seed=1), ScenarioConfig(seed=2)
    cache.put(config_key(a), {"seed": 1}, a)
    cache.put(config_key(b), {"seed": 2}, b)
    assert cache.get(config_key(a)) == {"seed": 1}
    assert cache.get(config_key(b)) == {"seed": 2}
