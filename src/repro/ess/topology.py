"""AP interconnect topology: a pure-Python graph with disjoint paths.

The Extended Service Set wires its access points into a backhaul graph
(the "distribution system" of 802.11 parlance).  Handoff signalling
between APs rides this graph, so its fault tolerance is governed by the
classic survivability question the repo's nominal source paper asks of
hierarchical hypercubes: *how many node-disjoint paths connect two
nodes?*  Two paths that share no intermediate AP cannot be severed by
any single AP or link failure, so routing a handoff over a primary path
with a node-disjoint alternate pre-computed gives one-fault failover
with zero re-convergence delay.

No networkx dependency: :class:`ApGraph` is a sorted adjacency dict,
and the disjoint-path finder is Menger via maximum flow on the
vertex-split transform (every AP becomes an ``in -> out`` arc of unit
capacity, so augmenting paths can share no intermediate AP).  By the
max-flow/min-cut duality this finds *exactly* ``min(k, vertex
connectivity)`` paths — the iterative shortest-path-with-removal
heuristic would miss feasible sets on butterfly-shaped graphs.

Everything iterates in sorted order, so path sets are deterministic
functions of the graph alone.
"""

from __future__ import annotations

import dataclasses
import typing

__all__ = [
    "Link",
    "ApGraph",
    "grid_topology",
    "node_disjoint_paths",
    "max_disjoint_paths",
]


@dataclasses.dataclass(frozen=True)
class Link:
    """One undirected backhaul link's attributes."""

    #: handoff-signalling capacity (events per epoch; informational)
    capacity: float = 100.0
    #: one-way signalling latency in seconds
    latency: float = 0.001

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"link capacity must be > 0, got {self.capacity}")
        if self.latency < 0:
            raise ValueError(f"link latency must be >= 0, got {self.latency}")


def link_key(a: str, b: str) -> tuple[str, str]:
    """Canonical undirected identity of the ``a``–``b`` link."""
    return (a, b) if a <= b else (b, a)


class ApGraph:
    """Undirected AP interconnect with per-link attributes.

    A plain adjacency mapping ``ap -> {neighbour -> Link}``; mutation
    is add-only (topologies are built once, then routed over).  Link
    *health* is runtime state and lives in the router, not here.
    """

    def __init__(self) -> None:
        self._adj: dict[str, dict[str, Link]] = {}

    # -- construction ------------------------------------------------------
    def add_ap(self, ap_id: str) -> None:
        if not ap_id:
            raise ValueError("ap_id must be non-empty")
        self._adj.setdefault(ap_id, {})

    def add_link(
        self, a: str, b: str, capacity: float = 100.0, latency: float = 0.001
    ) -> None:
        if a == b:
            raise ValueError(f"self-link {a!r}-{b!r} not allowed")
        self.add_ap(a)
        self.add_ap(b)
        link = Link(capacity=capacity, latency=latency)
        self._adj[a][b] = link
        self._adj[b][a] = link

    # -- queries -----------------------------------------------------------
    def aps(self) -> list[str]:
        return sorted(self._adj)

    def neighbors(self, ap_id: str) -> list[str]:
        return sorted(self._adj[ap_id])

    def has_ap(self, ap_id: str) -> bool:
        return ap_id in self._adj

    def has_link(self, a: str, b: str) -> bool:
        return a in self._adj and b in self._adj[a]

    def link(self, a: str, b: str) -> Link:
        try:
            return self._adj[a][b]
        except KeyError:
            raise KeyError(f"no link {a!r}-{b!r}") from None

    def links(self) -> list[tuple[str, str, Link]]:
        """Every undirected link once, canonically ordered."""
        out = []
        for a in self.aps():
            for b, link in sorted(self._adj[a].items()):
                if a < b:
                    out.append((a, b, link))
        return out

    def path_latency(self, path: typing.Sequence[str]) -> float:
        return sum(self.link(a, b).latency for a, b in zip(path, path[1:]))

    def to_dict(self) -> dict[str, typing.Any]:
        """JSON-ready shape (used by the ESS report)."""
        return {
            "aps": self.aps(),
            "links": [
                {"a": a, "b": b, "capacity": l.capacity, "latency": l.latency}
                for a, b, l in self.links()
            ],
        }


def grid_ap_id(row: int, col: int) -> str:
    return f"ap/{row}x{col}"


def grid_topology(
    rows: int,
    cols: int,
    capacity: float = 100.0,
    latency: float = 0.001,
) -> ApGraph:
    """A ``rows x cols`` microcell mesh (4-neighbour backhaul links).

    Any grid with both dimensions >= 2 is 2-connected, so every AP pair
    has at least two node-disjoint backhaul paths — single-fault
    failover is always available.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"grid must be >= 1x1, got {rows}x{cols}")
    graph = ApGraph()
    for r in range(rows):
        for c in range(cols):
            graph.add_ap(grid_ap_id(r, c))
            if r > 0:
                graph.add_link(
                    grid_ap_id(r - 1, c), grid_ap_id(r, c), capacity, latency
                )
            if c > 0:
                graph.add_link(
                    grid_ap_id(r, c - 1), grid_ap_id(r, c), capacity, latency
                )
    return graph


# -- node-disjoint paths via vertex-split max flow --------------------------
def _split_adjacency(
    graph: ApGraph, src: str, dst: str
) -> dict[tuple[str, int], dict[tuple[str, int], int]]:
    """Unit-capacity digraph of the vertex-split transform.

    Nodes are ``(ap, 0)`` = in-side and ``(ap, 1)`` = out-side.  The
    ``in -> out`` arc carries capacity 1 (∞ for the endpoints), each
    undirected link becomes two unit arcs ``a_out -> b_in``.
    """
    inf = len(graph.aps()) + 1  # effectively unbounded for unit arcs
    cap: dict[tuple[str, int], dict[tuple[str, int], int]] = {}
    for ap in graph.aps():
        through = inf if ap in (src, dst) else 1
        cap.setdefault((ap, 0), {})[(ap, 1)] = through
        cap.setdefault((ap, 1), {})
        for nxt in graph.neighbors(ap):
            cap[(ap, 1)][(nxt, 0)] = 1
            cap.setdefault((nxt, 0), {})
    return cap


def node_disjoint_paths(
    graph: ApGraph, src: str, dst: str, k: int | None = None
) -> list[list[str]]:
    """Up to ``k`` pairwise node-disjoint ``src -> dst`` paths.

    Paths share no intermediate AP (endpoints excepted).  With
    ``k=None`` the full maximum set is returned — by Menger's theorem
    its size equals the minimum vertex cut separating ``src`` from
    ``dst`` (unbounded when they are adjacent, since no vertex set
    separates neighbours).  Augmenting paths are found by BFS over
    sorted adjacency, so output is deterministic; the final set is
    ordered by (latency, hop count, path) — element 0 is the primary
    route, the rest are its failover alternates.
    """
    if src == dst:
        raise ValueError(f"src and dst must differ, got {src!r}")
    if not graph.has_ap(src) or not graph.has_ap(dst):
        raise KeyError(f"unknown endpoint {src!r} or {dst!r}")
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cap = _split_adjacency(graph, src, dst)
    flow: dict[tuple, dict[tuple, int]] = {u: {} for u in cap}
    source, sink = (src, 1), (dst, 0)
    found = 0
    limit = k if k is not None else len(graph.aps())
    while found < limit:
        # BFS (Edmonds–Karp) for an augmenting path in the residual graph
        parents: dict[tuple, tuple] = {source: source}
        queue = [source]
        while queue and sink not in parents:
            nxt_queue = []
            for u in queue:
                candidates = set(cap[u]) | set(flow[u])
                residual = [
                    v
                    for v in candidates
                    if v not in parents
                    and cap[u].get(v, 0) - flow[u].get(v, 0) > 0
                ]
                for v in sorted(residual):
                    parents[v] = u
                    nxt_queue.append(v)
            queue = nxt_queue
        if sink not in parents:
            break
        node = sink
        while node != source:
            prev = parents[node]
            flow[prev][node] = flow[prev].get(node, 0) + 1
            flow[node][prev] = flow[node].get(prev, 0) - 1
            node = prev
        found += 1
    # decompose the integral flow into vertex-disjoint paths, consuming
    # each unit arc as it is walked (unit through-capacities guarantee
    # the walks are simple and pairwise disjoint over intermediates)
    paths: list[list[str]] = []
    for _ in range(found):
        path = [src]
        node = source
        while node != sink:
            nxt = min(v for v, f in flow[node].items() if f > 0)
            flow[node][nxt] -= 1
            flow[nxt][node] += 1
            if nxt[0] != path[-1]:
                path.append(nxt[0])
            node = nxt
        paths.append(path)
    paths.sort(key=lambda p: (graph.path_latency(p), len(p), p))
    return paths


def max_disjoint_paths(graph: ApGraph, src: str, dst: str) -> int:
    """Size of the maximum node-disjoint path set (Menger number)."""
    return len(node_disjoint_paths(graph, src, dst))
