"""AP interconnect graph + node-disjoint path finder.

The finder claims Menger exactness: the number of node-disjoint paths
between non-adjacent APs equals the minimum vertex cut separating
them.  The property tests below check that against a brute-force cut
enumeration on small random graphs, plus pairwise disjointness and
determinism of the returned sets.
"""

import itertools
import random

import pytest

from repro.ess import (
    ApGraph,
    Link,
    grid_ap_id,
    grid_topology,
    max_disjoint_paths,
    node_disjoint_paths,
)
from repro.ess.topology import link_key


def bfs_reachable(adj, src, dst, removed=frozenset()):
    if src in removed or dst in removed:
        return False
    seen, queue = {src}, [src]
    while queue:
        node = queue.pop()
        if node == dst:
            return True
        for nxt in adj[node]:
            if nxt not in seen and nxt not in removed:
                seen.add(nxt)
                queue.append(nxt)
    return False


def brute_min_vertex_cut(graph: ApGraph, src: str, dst: str) -> int:
    """Smallest set of intermediate APs whose removal cuts src from dst.

    Only meaningful for non-adjacent pairs (no vertex set separates
    neighbours).  Exponential — call on graphs with <= ~8 nodes.
    """
    adj = {ap: graph.neighbors(ap) for ap in graph.aps()}
    if not bfs_reachable(adj, src, dst):
        return 0
    middle = [ap for ap in graph.aps() if ap not in (src, dst)]
    for size in range(len(middle) + 1):
        for cut in itertools.combinations(middle, size):
            if not bfs_reachable(adj, src, dst, frozenset(cut)):
                return size
    raise AssertionError("adjacent pair passed to brute_min_vertex_cut")


def random_graph(rng: random.Random, n: int, p: float) -> ApGraph:
    graph = ApGraph()
    names = [f"n{i}" for i in range(n)]
    for name in names:
        graph.add_ap(name)
    for a, b in itertools.combinations(names, 2):
        if rng.random() < p:
            graph.add_link(a, b)
    return graph


class TestLink:
    def test_validation(self):
        with pytest.raises(ValueError):
            Link(capacity=0)
        with pytest.raises(ValueError):
            Link(latency=-0.1)

    def test_link_key_is_orientation_free(self):
        assert link_key("b", "a") == link_key("a", "b") == ("a", "b")


class TestApGraph:
    def test_add_and_query(self):
        g = ApGraph()
        g.add_link("a", "b", capacity=10.0, latency=0.5)
        assert g.aps() == ["a", "b"]
        assert g.neighbors("a") == ["b"]
        assert g.has_link("b", "a")
        assert g.link("a", "b").latency == 0.5
        assert g.links() == [("a", "b", Link(capacity=10.0, latency=0.5))]

    def test_rejects_self_link_and_empty_id(self):
        g = ApGraph()
        with pytest.raises(ValueError):
            g.add_link("a", "a")
        with pytest.raises(ValueError):
            g.add_ap("")

    def test_path_latency_sums_links(self):
        g = ApGraph()
        g.add_link("a", "b", latency=0.25)
        g.add_link("b", "c", latency=0.75)
        assert g.path_latency(["a", "b", "c"]) == pytest.approx(1.0)

    def test_missing_link_raises(self):
        g = ApGraph()
        g.add_link("a", "b")
        with pytest.raises(KeyError):
            g.link("a", "z")


class TestGridTopology:
    def test_3x3_shape(self):
        g = grid_topology(3, 3)
        assert len(g.aps()) == 9
        # 4-neighbour mesh: rows*(cols-1) + cols*(rows-1) links
        assert len(g.links()) == 12
        corner = grid_ap_id(0, 0)
        assert g.neighbors(corner) == [grid_ap_id(0, 1), grid_ap_id(1, 0)]

    def test_grid_is_2_connected_between_all_pairs(self):
        g = grid_topology(2, 3)
        for src, dst in itertools.combinations(g.aps(), 2):
            assert max_disjoint_paths(g, src, dst) >= 2

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            grid_topology(0, 3)


class TestNodeDisjointPaths:
    def test_paths_are_valid_and_terminate_correctly(self):
        g = grid_topology(3, 3)
        src, dst = grid_ap_id(0, 0), grid_ap_id(2, 2)
        for path in node_disjoint_paths(g, src, dst):
            assert path[0] == src and path[-1] == dst
            assert len(path) == len(set(path))  # simple
            for a, b in zip(path, path[1:]):
                assert g.has_link(a, b)

    def test_k_limits_the_set(self):
        g = grid_topology(3, 3)
        src, dst = grid_ap_id(0, 1), grid_ap_id(2, 1)
        assert len(node_disjoint_paths(g, src, dst, k=1)) == 1
        assert len(node_disjoint_paths(g, src, dst, k=2)) == 2

    def test_primary_is_lowest_latency(self):
        g = ApGraph()
        g.add_link("s", "m1", latency=0.1)
        g.add_link("m1", "t", latency=0.1)
        g.add_link("s", "m2", latency=1.0)
        g.add_link("m2", "t", latency=1.0)
        paths = node_disjoint_paths(g, "s", "t")
        assert paths[0] == ["s", "m1", "t"]
        assert paths[1] == ["s", "m2", "t"]

    def test_disconnected_pair_yields_empty_set(self):
        g = ApGraph()
        g.add_link("a", "b")
        g.add_link("x", "y")
        assert node_disjoint_paths(g, "a", "x") == []

    def test_butterfly_needs_max_flow(self):
        # two triangles sharing a hub: the s-t Menger number is 1 (the
        # hub), but a greedy shortest-path-with-removal could also find
        # only 1 — instead check a diamond where greedy removal of the
        # shortest path's interior must not block the second path
        g = ApGraph()
        g.add_link("s", "a")
        g.add_link("a", "t")
        g.add_link("s", "b")
        g.add_link("b", "c")
        g.add_link("c", "t")
        g.add_link("a", "b")  # tempting shortcut through both paths
        assert max_disjoint_paths(g, "s", "t") == 2

    def test_errors(self):
        g = grid_topology(2, 2)
        with pytest.raises(ValueError):
            node_disjoint_paths(g, "ap/0x0", "ap/0x0")
        with pytest.raises(ValueError):
            node_disjoint_paths(g, "ap/0x0", "ap/1x1", k=0)
        with pytest.raises(KeyError):
            node_disjoint_paths(g, "ap/0x0", "nope")

    # -- property tests vs brute force ------------------------------------
    def test_pairwise_node_disjoint_on_random_graphs(self):
        rng = random.Random(20260808)
        for trial in range(60):
            g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.2, 0.7))
            aps = g.aps()
            src, dst = rng.sample(aps, 2)
            paths = node_disjoint_paths(g, src, dst)
            for p1, p2 in itertools.combinations(paths, 2):
                shared = set(p1[1:-1]) & set(p2[1:-1])
                assert not shared, (g.to_dict(), src, dst, p1, p2)

    def test_count_matches_brute_force_min_vertex_cut(self):
        rng = random.Random(7)
        checked = 0
        for trial in range(80):
            g = random_graph(rng, rng.randint(4, 7), rng.uniform(0.2, 0.6))
            aps = g.aps()
            src, dst = rng.sample(aps, 2)
            if g.has_link(src, dst):
                continue  # Menger needs non-adjacent endpoints
            expect = brute_min_vertex_cut(g, src, dst)
            assert max_disjoint_paths(g, src, dst) == expect, (
                g.to_dict(), src, dst,
            )
            checked += 1
        assert checked >= 30  # the filter must not eat the test

    def test_deterministic(self):
        rng = random.Random(99)
        for trial in range(20):
            seed = rng.randint(0, 10**9)
            g1 = random_graph(random.Random(seed), 7, 0.4)
            g2 = random_graph(random.Random(seed), 7, 0.4)
            src, dst = "n0", "n6"
            assert node_disjoint_paths(g1, src, dst) == node_disjoint_paths(
                g2, src, dst
            )
