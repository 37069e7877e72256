"""MetricsRegistry instruments, snapshots, and the counters components hold."""

import pytest

from repro.exec.cache import ResultCache
from repro.mac.pcf import CfpStats
from repro.metrics.collectors import MetricsCollector
from repro.obs import Histogram, MetricsRegistry
from repro.sim import Simulator
from repro.traffic.base import TrafficKind


class TestInstruments:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        c = reg.counter("polls")
        c.inc()
        c.inc(2)
        assert reg.counter("polls").value == 3
        assert reg.counter("polls") is c

    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        reg.counter("delivered", kind="voice").inc()
        reg.counter("delivered", kind="video").inc(5)
        snap = reg.snapshot()
        assert snap["counters"] == {
            "delivered{kind=video}": 5,
            "delivered{kind=voice}": 1,
        }

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("tokens")
        g.set(4.5)
        assert reg.snapshot()["gauges"]["tokens"] == 4.5

    def test_histogram_buckets_and_stats(self):
        h = Histogram((0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.05, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["min"] == 0.005 and snap["max"] == 5.0
        assert snap["buckets"] == {"0.01": 1, "0.1": 2, "1.0": 1, "+inf": 1}
        assert h.mean == pytest.approx(5.605 / 5)
        assert h.quantile(0.5) == 0.1
        assert h.quantile(1.0) == float("inf")

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))

    def test_quantile_of_empty_histogram_is_zero(self):
        h = Histogram((0.01, 0.1))
        assert h.quantile(0.0) == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.quantile(1.0) == 0.0

    def test_quantile_extremes_land_on_occupied_buckets(self):
        h = Histogram((0.01, 0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        # q=0 resolves to the lowest occupied bucket's upper edge,
        # q=1 to the highest — never an empty bucket in between
        assert h.quantile(0.0) == 0.1
        assert h.quantile(1.0) == 1.0

    def test_quantile_all_overflow_is_inf(self):
        h = Histogram((0.01,))
        h.observe(7.0)
        h.observe(9.0)
        assert h.quantile(0.5) == float("inf")
        assert h.quantile(1.0) == float("inf")

    def test_quantile_single_observation_is_flat(self):
        h = Histogram((0.01, 0.1))
        h.observe(0.05)
        assert (
            h.quantile(0.0) == h.quantile(0.5) == h.quantile(1.0) == 0.1
        )

    def test_quantile_rejects_out_of_range(self):
        h = Histogram((0.01,))
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestSnapshots:
    def test_snapshot_is_deterministically_ordered(self):
        reg = MetricsRegistry(bss="b0")
        reg.counter("z").inc()
        reg.counter("a").inc()
        snap = reg.snapshot(now=2.0)
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["t"] == 2.0
        assert snap["labels"] == {"bss": "b0"}

    def test_periodic_snapshots_on_the_sim_clock(self):
        sim = Simulator()
        reg = MetricsRegistry()
        c = reg.counter("ticks")
        sim.call_at(1.5, c.inc)
        reg.start_snapshots(sim, 1.0)
        sim.run(until=3.5)
        assert [s["t"] for s in reg.snapshots] == [1.0, 2.0, 3.0]
        assert [s["counters"]["ticks"] for s in reg.snapshots] == [0, 1, 1]

    def test_start_snapshots_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            MetricsRegistry().start_snapshots(Simulator(), 0.0)


class TestHeldCounters:
    """Components hold the registry's own counters, under the registry
    names; reads and writes go straight to them."""

    def test_cfp_stats_fields_are_registry_counters(self):
        reg = MetricsRegistry()
        stats = CfpStats(reg)
        stats.polls_sent.inc()
        stats.cfp_time.inc(0.25)
        assert stats.polls_sent is reg.counter("cfp_polls_sent")
        counters = reg.snapshot()["counters"]
        assert counters["cfp_polls_sent"] == 1
        assert counters["cfp_cfp_time"] == 0.25
        assert "polls_sent=1" in repr(stats)

    def test_result_cache_hits_and_misses(self, tmp_path):
        reg = MetricsRegistry()
        cache = ResultCache(tmp_path, registry=reg)
        assert cache.get("absent") is None
        assert cache.misses is reg.counter("result_cache_misses")
        assert reg.snapshot()["counters"] == {
            "result_cache_hits": 0,
            "result_cache_misses": 1,
        }

    def test_collector_tallies_are_per_kind_counters(self):
        reg = MetricsRegistry()
        collector = MetricsCollector(metrics=reg)
        for kind in TrafficKind:
            assert collector.delivered[kind] is reg.counter(
                "delivered", kind=kind.value
            )
            assert collector.losses[kind] is reg.counter(
                "losses", kind=kind.value
            )
