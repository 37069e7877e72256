"""The ESS coordinator: sharded epochs, backhaul exchange, global ledger.

One :class:`EssCoordinator` owns a grid of microcells
(:class:`~repro.ess.cells.Cell`), their AP interconnect
(:class:`~repro.ess.topology.ApGraph`) and the health-aware
:class:`~repro.ess.routing.BackhaulRouter`.  Time advances in
*epochs*: within an epoch every cell evolves independently (which is
what makes the grid partitionable), and handoff departures collected
during epoch *e* are routed over the backhaul and delivered into their
target cells at the start of epoch *e + 1* (offset by the routed
path's signalling latency).  A handoff whose every node-disjoint path
crosses a faulted link is dropped — the *backhaul drop* the report and
the chaos-style CI gate watch.

After every epoch the coordinator takes an
:class:`~repro.validate.ess.EssLedgerSnapshot` and the cross-BSS
conservation invariant is checked: calls created = completed + dropped
+ resident + in-transit, globally.

Two fidelity tiers:

* ``"calls"`` (default) — the call-level layer above is the whole
  story: fast, exact conservation, scales to hundreds of cells;
* ``"frames"`` — additionally shards one frame-level
  :class:`~repro.network.bss.BssScenario` per (cell, epoch) across the
  :mod:`repro.exec` executor (parallel, content-addressed-cached),
  with the epoch's routed inbound handoffs injected on schedule via
  :class:`~repro.network.mobility.EssCellContext`; per-cell QoS
  (delay/utilization) comes from these runs.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing
import zlib

from ..faults.plan import ApFault, LinkFault
from ..network.mobility import EssCellContext
from ..obs.jsonutil import JsonRecord
from ..obs.registry import MetricsRegistry
from ..sim.rng import RandomStreams
from ..validate.ess import (
    EssLedgerSnapshot,
    cell_ledger_violations,
    conservation_violations,
)
from .cells import Cell, CellConfig, RoamingCall
from .routing import BackhaulRouter
from .topology import grid_ap_id, grid_topology

__all__ = [
    "ESS_REPORT_SCHEMA",
    "FIDELITIES",
    "EssConfig",
    "EssCoordinator",
    "run_ess",
]

ESS_REPORT_SCHEMA = "repro/ess-report/2"

FIDELITIES = ("calls", "frames")


@dataclasses.dataclass(frozen=True)
class EssConfig(JsonRecord):
    """Everything one ESS run needs (serializable, seed-deterministic)."""

    rows: int = 3
    cols: int = 3
    seed: int = 1
    epochs: int = 8
    epoch_length: float = 30.0
    #: fresh-call arrival rate per cell per traffic class (calls/s)
    new_call_rate: float = 0.08
    mean_holding: float = 60.0
    #: mean exponential cell-residence time (s); halve it to make
    #: stations roam twice as often
    mean_residence: float = 45.0
    #: concurrent-call admission limit per cell (new calls)
    capacity: int = 12
    #: microcell overlap fraction — inbound handoffs may occupy the
    #: overlap region, so they admit up to ``capacity * (1 + overlap)``
    overlap: float = 0.25
    #: node-disjoint backhaul paths kept per AP pair (primary + spares)
    disjoint_paths: int = 2
    link_capacity: float = 100.0
    link_latency: float = 0.001
    #: backhaul outage windows (:class:`~repro.faults.plan.LinkFault`)
    backhaul_faults: tuple[LinkFault, ...] = ()
    #: whole-AP outage windows (:class:`~repro.faults.plan.ApFault`);
    #: a dark AP's cell sheds its calls and refuses arrivals, and the
    #: router fails transit traffic over to disjoint alternates
    ap_faults: tuple[ApFault, ...] = ()
    #: ``"calls"`` or ``"frames"`` (see module docstring)
    fidelity: str = "calls"
    #: per-(cell, epoch) frame-level sim length, frames fidelity only
    frames_time: float = 8.0
    #: scheme the frame-level cell runs use
    scheme: str = "proposed"

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be >= 1x1, got {self.rows}x{self.cols}")
        if self.rows * self.cols < 2:
            raise ValueError("an ESS needs at least two cells")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.epoch_length <= 0:
            raise ValueError(
                f"epoch_length must be > 0, got {self.epoch_length}"
            )
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap must be in [0, 1], got {self.overlap}")
        if self.disjoint_paths < 1:
            raise ValueError(
                f"disjoint_paths must be >= 1, got {self.disjoint_paths}"
            )
        if self.fidelity not in FIDELITIES:
            raise ValueError(
                f"fidelity must be one of {FIDELITIES}, got {self.fidelity!r}"
            )
        if self.frames_time <= 2.0:
            raise ValueError(
                f"frames_time must be > 2 s, got {self.frames_time}"
            )
        if not isinstance(self.backhaul_faults, tuple):
            object.__setattr__(
                self, "backhaul_faults", tuple(self.backhaul_faults)
            )
        if not isinstance(self.ap_faults, tuple):
            object.__setattr__(self, "ap_faults", tuple(self.ap_faults))
        if self.backhaul_faults or self.ap_faults:
            graph = grid_topology(self.rows, self.cols)
            for fault in self.backhaul_faults:
                if not graph.has_link(fault.a, fault.b):
                    raise ValueError(
                        f"backhaul fault names a link the topology lacks: "
                        f"{fault.a!r}-{fault.b!r}"
                    )
            for ap_fault in self.ap_faults:
                if not graph.has_ap(ap_fault.ap):
                    raise ValueError(
                        f"AP fault names an AP the topology lacks: "
                        f"{ap_fault.ap!r}"
                    )
        # CellConfig re-validates rates/holding/capacity
        self.cell_config()

    # -- derived views ----------------------------------------------------
    @property
    def horizon(self) -> float:
        return self.epochs * self.epoch_length

    def cell_config(self) -> CellConfig:
        capacity = self.capacity
        return CellConfig(
            new_call_rate=self.new_call_rate,
            mean_holding=self.mean_holding,
            mean_residence=self.mean_residence,
            capacity=capacity,
            handoff_capacity=int(capacity * (1.0 + self.overlap)),
        )


def _frames_seed(seed: int, cell: str, epoch: int) -> int:
    """Stable per-(cell, epoch) seed for the frame-level sub-runs."""
    return zlib.crc32(f"{seed}/{cell}/{epoch}".encode("utf-8")) & 0x7FFFFFFF


class EssCoordinator:
    """Runs one ESS scenario; see the module docstring."""

    def __init__(self, config: EssConfig) -> None:
        self.config = config
        self.graph = grid_topology(
            config.rows,
            config.cols,
            capacity=config.link_capacity,
            latency=config.link_latency,
        )
        self.metrics = MetricsRegistry(subsystem="ess", seed=config.seed)
        self.router = BackhaulRouter(
            self.graph, k=config.disjoint_paths, metrics=self.metrics
        )
        self.streams = RandomStreams(config.seed)
        call_ids = itertools.count(1)
        cell_cfg = config.cell_config()
        self.cells: dict[str, Cell] = {}
        for ap_id in self.graph.aps():
            self.cells[ap_id] = Cell(
                ap_id,
                self.graph.neighbors(ap_id),
                cell_cfg,
                self.streams,
                call_ids,
            )
        #: deliveries scheduled per epoch: (time, dst, call)
        self._inbox: dict[int, list[tuple[float, str, RoamingCall]]] = {}
        #: routed inbound log per (cell, epoch) — feeds the frames tier
        self._delivered: dict[tuple[str, int], list[tuple[float, str]]] = {}
        self.handoffs_sent = 0
        self.snapshots: list[EssLedgerSnapshot] = []
        self._ran = False

    # -- the epoch loop ----------------------------------------------------
    def run(self) -> None:
        """Advance every epoch; idempotence guarded (build once, run once)."""
        if self._ran:
            raise RuntimeError("EssCoordinator.run() may only be called once")
        self._ran = True
        cfg = self.config
        for epoch in range(cfg.epochs):
            t0 = epoch * cfg.epoch_length
            t1 = t0 + cfg.epoch_length
            self._apply_faults(t0, t1)
            for time, dst, call in self._inbox.pop(epoch, ()):
                self.cells[dst].deliver_handoff(time, call)
            departures = []
            for cell_id in sorted(self.cells):
                departures.extend(self.cells[cell_id].advance(t0, t1))
            # global chronological order, stable across cell iteration
            departures.sort(key=lambda d: (d.time, d.call.call_id))
            for dep in departures:
                result = self.router.route(dep.src, dep.dst)
                if result is None:
                    continue  # backhaul drop, accounted by the router
                deliver_at = t1 + result.latency
                self._inbox.setdefault(epoch + 1, []).append(
                    (deliver_at, dep.dst, dep.call)
                )
                self._delivered.setdefault((dep.dst, epoch + 1), []).append(
                    (result.latency, dep.call.kind)
                )
                self.handoffs_sent += 1
            self.snapshots.append(self._ledger_snapshot(epoch))
            self._record_epoch_metrics(t1)

    def _apply_faults(self, t0: float, t1: float) -> None:
        """Honour link and AP outage windows at epoch granularity.

        A cell whose AP goes dark sheds its residents at the epoch
        boundary (ledgered as ``shed_ap_down``), refuses arrivals for
        the whole epoch, and the router treats every path through the
        AP as unhealthy — graceful degradation, never an exception.
        """
        self.router.faulted_links = {
            fault.key()
            for fault in self.config.backhaul_faults
            if fault.active_during(t0, t1)
        }
        dark = {
            fault.ap
            for fault in self.config.ap_faults
            if fault.active_during(t0, t1)
        }
        self.router.faulted_aps = dark
        for cell_id in sorted(self.cells):
            self.cells[cell_id].set_down(cell_id in dark, t0)

    def _ledger_snapshot(self, epoch: int) -> EssLedgerSnapshot:
        cells = self.cells.values()
        handoffs_seen = sum(c.handoff_in for c in cells)
        return EssLedgerSnapshot(
            epoch=epoch,
            created=sum(c.admitted_new for c in cells),
            completed=sum(c.completed for c in cells),
            dropped_admission=sum(
                c.handoff_dropped_admission for c in cells
            ),
            dropped_backhaul=self.router.unroutable,
            resident=sum(c.occupancy for c in cells),
            in_transit=self.handoffs_sent - handoffs_seen,
            dropped_ap_down=sum(
                c.shed_ap_down + c.handoff_dropped_ap_down for c in cells
            ),
        )

    def _record_epoch_metrics(self, now: float) -> None:
        for cell_id in sorted(self.cells):
            cell = self.cells[cell_id]
            self.metrics.gauge("ess_resident", cell=cell_id).set(
                cell.occupancy
            )
        self.metrics.snapshots.append(self.metrics.snapshot(now=now))

    # -- frame-level sharding (fidelity="frames") --------------------------
    def frames_grid(self) -> list[typing.Any]:
        """One frame-level ``ScenarioConfig`` per (cell, epoch).

        Inbound handoffs the backhaul routed into a cell during an
        epoch are replayed inside the cell's run at offsets scaled into
        the measured window, via :class:`EssCellContext`; the Poisson
        handoff streams are zeroed so scheduled arrivals are the only
        handoff traffic.
        """
        from ..network.bss import ScenarioConfig

        cfg = self.config
        warmup = min(2.0, cfg.frames_time / 4)
        measured = cfg.frames_time - warmup
        grid = []
        for epoch in range(cfg.epochs):
            for cell_id in sorted(self.cells):
                arrivals = tuple(
                    (
                        warmup
                        + (latency / cfg.epoch_length) * measured,
                        kind,
                    )
                    for latency, kind in sorted(
                        self._delivered.get((cell_id, epoch), ())
                    )
                )
                grid.append(
                    ScenarioConfig(
                        scheme=cfg.scheme,
                        seed=_frames_seed(cfg.seed, cell_id, epoch),
                        sim_time=cfg.frames_time,
                        warmup=warmup,
                        load=1.0,
                        new_voice_rate=cfg.new_call_rate,
                        new_video_rate=cfg.new_call_rate,
                        handoff_voice_rate=0.0,
                        handoff_video_rate=0.0,
                        mean_holding=cfg.mean_holding,
                        n_data_stations=2,
                        ess=EssCellContext(
                            cell=cell_id,
                            epoch=epoch,
                            epoch_start=epoch * cfg.epoch_length,
                            handoff_arrivals=arrivals,
                        ),
                    )
                )
        return grid

    def frames_summary(
        self, rows: typing.Sequence[dict]
    ) -> dict[str, dict[str, typing.Any]]:
        """Aggregate executor rows back into per-cell QoS."""
        per_cell: dict[str, dict[str, typing.Any]] = {}
        for row in rows:
            cell_id = row["ess"]["cell"]
            agg = per_cell.setdefault(
                cell_id,
                {
                    "epochs": 0,
                    "handoffs_injected": 0,
                    "worst_video_delay": 0.0,
                    "goodput_utilization": 0.0,
                    "channel_busy_fraction": 0.0,
                },
            )
            agg["epochs"] += 1
            agg["handoffs_injected"] += row["ess"]["handoffs_injected"]
            worst = row.get("worst_video_delay") or 0.0
            agg["worst_video_delay"] = max(agg["worst_video_delay"], worst)
            agg["goodput_utilization"] += row["goodput_utilization"]
            agg["channel_busy_fraction"] += row["channel_busy_fraction"]
        for agg in per_cell.values():
            n = agg["epochs"]
            agg["goodput_utilization"] /= n
            agg["channel_busy_fraction"] /= n
        return per_cell

    # -- reporting ---------------------------------------------------------
    def report(
        self, frames_rows: typing.Sequence[dict] | None = None
    ) -> dict[str, typing.Any]:
        cfg = self.config
        horizon = cfg.horizon
        per_cell = {
            cell_id: self.cells[cell_id].ledger(horizon)
            for cell_id in sorted(self.cells)
        }
        violations = conservation_violations(self.snapshots)
        for cell_id, ledger in per_cell.items():
            violations.extend(cell_ledger_violations(cell_id, ledger))
        final = self.snapshots[-1]
        handoff_attempts = sum(c.handoff_out for c in self.cells.values())
        dropped_total = final.dropped_total
        report: dict[str, typing.Any] = {
            "schema": ESS_REPORT_SCHEMA,
            "config": cfg.to_dict(),
            "topology": self.graph.to_dict(),
            "totals": {
                "created": final.created,
                "completed": final.completed,
                "blocked": sum(c.blocked for c in self.cells.values()),
                "dropped_admission": final.dropped_admission,
                "dropped_backhaul": final.dropped_backhaul,
                "dropped_ap_down": final.dropped_ap_down,
                "dropped_total": dropped_total,
                "resident_final": final.resident,
                "in_transit_final": final.in_transit,
                "handoff_attempts": handoff_attempts,
                "handoff_drop_rate": (
                    dropped_total / handoff_attempts if handoff_attempts else 0.0
                ),
            },
            "backhaul": {
                **self.router.summary(),
                "per_link_handoffs": {
                    key: value
                    for key, value in self.metrics.snapshot()[
                        "counters"
                    ].items()
                    if key.startswith("backhaul_link_handoffs")
                },
            },
            "per_cell": per_cell,
            "conservation": {
                "epochs_checked": len(self.snapshots),
                "violations": violations,
            },
            "passed": not violations,
        }
        if frames_rows is not None:
            report["frames"] = self.frames_summary(frames_rows)
        return report


def run_ess(
    config: EssConfig,
    executor: typing.Any | None = None,
) -> dict[str, typing.Any]:
    """Run one ESS scenario end to end and return its JSON-ready report.

    ``executor`` (a :class:`~repro.exec.executor.SweepExecutor`) is
    only consulted in ``fidelity="frames"`` — the per-(cell, epoch)
    frame-level grid is dispatched through it, so workers, caching,
    resume and cost-aware scheduling all apply to ESS sharding exactly
    as to figure sweeps.  Shards vary widely in cost (a cell-epoch with
    many handoff arrivals simulates far more traffic); the scheduler's
    cost prior includes a per-handoff-arrival term, so heavy shards
    dispatch first instead of straggling at the tail of the epoch.
    """
    coordinator = EssCoordinator(config)
    coordinator.run()
    frames_rows = None
    if config.fidelity == "frames":
        if executor is None:
            from ..exec import ExecutorConfig, SweepExecutor

            executor = SweepExecutor(ExecutorConfig())
        frames_rows = executor.run(coordinator.frames_grid())
    return coordinator.report(frames_rows)
