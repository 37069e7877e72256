"""Multi-BSS Extended Service Set: topology, roaming, sharded epochs.

The single-BSS layers below simulate one microcell in frame-level
detail; this package scales *out*: a grid of microcells whose APs are
wired into a backhaul graph, stations owned by one BSS at a time and
roaming to geometric neighbours, and handoff signalling routed AP-to-AP
over **node-disjoint backhaul paths** — the survivability structure the
repo's nominal source paper studies on hierarchical hypercubes, applied
here to the AP interconnect (primary path + pre-computed disjoint
alternates, single-fault failover with no re-convergence).

* :mod:`repro.ess.topology` — pure-Python AP graph; max-flow
  (vertex-split) node-disjoint path finder; deterministic Dijkstra;
* :mod:`repro.ess.routing` — health-aware router with failover and
  per-link metrics;
* :mod:`repro.ess.cells` — call-level microcell model (ownership,
  admission with overlap grace, roam-step dynamics);
* :mod:`repro.ess.coordinator` — the epoch-sharded runner, cross-BSS
  conservation snapshots, the optional frame-level tier dispatched
  through :mod:`repro.exec`, and the JSON report behind
  ``python -m repro ess``.
"""

from .cells import Cell, CellConfig, HandoffDeparture, RoamingCall
from .coordinator import (
    ESS_REPORT_SCHEMA,
    FIDELITIES,
    EssConfig,
    EssCoordinator,
    run_ess,
)
from .routing import BackhaulRouter, RouteResult
from .topology import (
    ApGraph,
    Link,
    grid_ap_id,
    grid_topology,
    max_disjoint_paths,
    node_disjoint_paths,
    shortest_path,
)

__all__ = [
    "ApGraph",
    "Link",
    "grid_ap_id",
    "grid_topology",
    "node_disjoint_paths",
    "max_disjoint_paths",
    "shortest_path",
    "BackhaulRouter",
    "RouteResult",
    "Cell",
    "CellConfig",
    "RoamingCall",
    "HandoffDeparture",
    "EssConfig",
    "EssCoordinator",
    "run_ess",
    "ESS_REPORT_SCHEMA",
    "FIDELITIES",
]
