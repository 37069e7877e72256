"""Health-aware backhaul routing: failover order, accounting, metrics."""

import pytest

from repro.ess import BackhaulRouter, grid_ap_id, grid_topology
from repro.ess.topology import link_key
from repro.obs import MetricsRegistry


def make_router(rows=2, cols=2, k=2, metrics=None):
    return BackhaulRouter(grid_topology(rows, cols), k=k, metrics=metrics)


A, B, C, D = (grid_ap_id(0, 0), grid_ap_id(0, 1),
              grid_ap_id(1, 0), grid_ap_id(1, 1))


class TestRouting:
    def test_healthy_route_uses_primary(self):
        router = make_router()
        result = router.route(A, D)
        assert result is not None
        assert result.path_index == 0
        assert not result.failover
        assert result.latency == pytest.approx(0.002)
        assert router.routed == 1 and router.failovers == 0

    def test_fault_triggers_disjoint_failover(self):
        router = make_router()
        primary = router.paths(A, D)[0]
        router.faulted_links = {link_key(primary[0], primary[1])}
        result = router.route(A, D)
        assert result is not None and result.failover
        # the alternate shares no intermediate with the primary
        assert not (set(result.path[1:-1]) & set(primary[1:-1]))
        assert router.failovers == 1

    def test_unroutable_when_all_paths_cut(self):
        router = make_router()
        router.faulted_links = {link_key(A, B), link_key(A, C)}
        assert router.route(A, D) is None
        assert router.unroutable == 1
        assert router.routed == 0

    def test_health_is_reversible(self):
        router = make_router()
        router.faulted_links = {link_key(B, A)}  # either orientation
        assert not router.path_is_healthy((A, B))
        router.faulted_links = set()
        assert router.path_is_healthy((A, B))
        assert router.route(A, D).path_index == 0

    def test_reverse_direction_shares_the_path_cache(self):
        router = make_router()
        fwd = router.paths(A, D)
        rev = router.paths(D, A)
        assert rev == tuple(tuple(reversed(p)) for p in fwd)
        assert len(router._paths) == 1

    def test_same_src_dst_rejected(self):
        router = make_router()
        with pytest.raises(ValueError):
            router.route(A, A)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            make_router(k=0)

    def test_summary_shape(self):
        router = make_router()
        router.faulted_links = {link_key(A, B)}
        router.route(A, D)
        s = router.summary()
        assert s["routed"] == 1
        assert s["faulted_links"] == [f"{A}|{B}"]
        assert s["disjoint_paths_per_pair"] == 2

    def test_metrics_counters(self):
        metrics = MetricsRegistry(subsystem="ess", seed=1)
        router = make_router(metrics=metrics)
        router.route(A, D)
        router.faulted_links = {link_key(A, B), link_key(A, C)}
        router.route(A, D)
        counters = metrics.snapshot()["counters"]
        assert any(k.startswith("backhaul_routed") for k in counters)
        assert any(k.startswith("backhaul_unroutable") for k in counters)
        assert any(k.startswith("backhaul_link_handoffs") for k in counters)
