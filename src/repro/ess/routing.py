"""Health-aware backhaul routing over pre-computed disjoint path sets.

The router is the runtime face of :mod:`repro.ess.topology`: for every
AP pair it lazily computes (and caches) up to ``k`` node-disjoint
paths, then answers each handoff-signalling request with the first
path whose links are all healthy.  Because alternates share no
intermediate AP with the primary, any single link or AP fault leaves
at least one alternate intact on a 2-connected topology — the failover
requires no recomputation, just walking down the pre-computed list.

Link and AP health are driven from the outside (the coordinator
applies :class:`~repro.faults.plan.LinkFault` and
:class:`~repro.faults.plan.ApFault` windows at epoch boundaries).  A
faulted AP poisons every path it appears on — endpoints included, so
routing toward a dark AP is unroutable by construction while transit
traffic between healthy APs fails over to the node-disjoint alternate.
Per-pair and per-link traffic, failover and unroutable counts land in
a :class:`~repro.obs.registry.MetricsRegistry`.
"""

from __future__ import annotations

import dataclasses
import typing

from ..obs.registry import MetricsRegistry
from .topology import ApGraph, link_key, node_disjoint_paths

__all__ = ["RouteResult", "BackhaulRouter"]


@dataclasses.dataclass(frozen=True)
class RouteResult:
    """One successfully routed handoff request."""

    path: tuple[str, ...]
    #: index into the disjoint path set (0 = primary)
    path_index: int
    #: one-way signalling latency along the chosen path
    latency: float

    @property
    def failover(self) -> bool:
        return self.path_index > 0


class BackhaulRouter:
    """Routes AP-to-AP handoff signalling with disjoint-path failover.

    Parameters
    ----------
    graph:
        The AP interconnect.
    k:
        Disjoint paths kept per pair (primary + ``k - 1`` alternates).
    metrics:
        Optional registry receiving ``backhaul_*`` counters.
    """

    def __init__(
        self,
        graph: ApGraph,
        k: int = 2,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.graph = graph
        self.k = k
        self.metrics = metrics
        self._paths: dict[tuple[str, str], tuple[tuple[str, ...], ...]] = {}
        #: canonically-keyed links currently considered down
        self.faulted_links: set[tuple[str, str]] = set()
        #: APs currently dark (whole-node outages); every path through
        #: one — endpoints included — is unhealthy
        self.faulted_aps: set[str] = set()
        self.routed = 0
        self.failovers = 0
        self.unroutable = 0

    # -- link / AP health --------------------------------------------------
    def path_is_healthy(self, path: typing.Sequence[str]) -> bool:
        if self.faulted_aps and any(ap in self.faulted_aps for ap in path):
            return False
        return all(
            link_key(a, b) not in self.faulted_links
            for a, b in zip(path, path[1:])
        )

    # -- routing -----------------------------------------------------------
    def paths(self, src: str, dst: str) -> tuple[tuple[str, ...], ...]:
        """The cached disjoint path set for ``src -> dst``.

        Sets are computed on the canonical orientation and reversed on
        demand, so both directions of a pair share one computation.
        """
        if src == dst:
            raise ValueError(f"src and dst must differ, got {src!r}")
        canon = (src, dst) if src <= dst else (dst, src)
        found = self._paths.get(canon)
        if found is None:
            found = tuple(
                tuple(p)
                for p in node_disjoint_paths(self.graph, *canon, k=self.k)
            )
            self._paths[canon] = found
        if canon == (src, dst):
            return found
        return tuple(tuple(reversed(p)) for p in found)

    def route(self, src: str, dst: str) -> RouteResult | None:
        """First healthy path from the disjoint set, or ``None``.

        ``None`` means every pre-computed disjoint path crosses a
        faulted link — the handoff request cannot be signalled and the
        caller must drop the call (counted as a backhaul drop).
        """
        result = None
        for index, path in enumerate(self.paths(src, dst)):
            if self.path_is_healthy(path):
                result = RouteResult(
                    path=path,
                    path_index=index,
                    latency=self.graph.path_latency(path),
                )
                break
        self._account(src, dst, result)
        return result

    # -- accounting --------------------------------------------------------
    def _account(self, src: str, dst: str, result: RouteResult | None) -> None:
        m = self.metrics
        if result is None:
            self.unroutable += 1
            if m is not None:
                m.counter("backhaul_unroutable", src=src, dst=dst).inc()
            return
        self.routed += 1
        if result.failover:
            self.failovers += 1
        if m is not None:
            m.counter("backhaul_routed", src=src, dst=dst).inc()
            if result.failover:
                m.counter("backhaul_failover", src=src, dst=dst).inc()
            for a, b in zip(result.path, result.path[1:]):
                ka, kb = link_key(a, b)
                m.counter("backhaul_link_handoffs", link=f"{ka}|{kb}").inc()

    def summary(self) -> dict[str, typing.Any]:
        """JSON-ready routing totals for the ESS report."""
        return {
            "routed": self.routed,
            "failovers": self.failovers,
            "unroutable": self.unroutable,
            "faulted_links": sorted(
                f"{a}|{b}" for a, b in self.faulted_links
            ),
            "faulted_aps": sorted(self.faulted_aps),
            "disjoint_paths_per_pair": self.k,
        }
