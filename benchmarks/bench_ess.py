"""ESS grid throughput: how fast the call-level coordinator shards.

Runs one pinned-seed ESS scenario (calls fidelity — the tier meant to
scale to hundreds of cells) twice: once for a byte-identity determinism
check, once timed.  Writes cells/sec and handoff events/sec to
``benchmarks/results/ess_grid.json``.  Wall throughput is
machine-relative, so it is recorded, not gated; the pinned event
*counts* recorded alongside are not, and the assertions below pin them.
"""

import json
import time

from repro.exec import canonical_json
from repro.ess import EssConfig, EssCoordinator
from repro.faults import LinkFault

from conftest import RESULTS_DIR, save_artifact

#: pinned workload: a 4x4 grid under heavy roaming with one mid-run
#: backhaul outage, so the bench exercises routing + failover too
ESS_BENCH_CONFIG = EssConfig(
    rows=4, cols=4, seed=20260808, epochs=6, epoch_length=20.0,
    new_call_rate=0.2, mean_holding=40.0, mean_residence=12.0,
    backhaul_faults=(LinkFault("ap/1x1", "ap/1x2", start=40.0, end=80.0),),
)


def _run():
    coordinator = EssCoordinator(ESS_BENCH_CONFIG)
    start = time.perf_counter()
    coordinator.run()
    wall = time.perf_counter() - start
    return coordinator, wall


def test_ess_grid_throughput():
    first, _ = _run()
    second, wall = _run()
    # byte-identical reports: the coordinator is a pure function of its
    # config, which is what makes its counts pinnable
    assert canonical_json(first.report()) == canonical_json(second.report())
    report = second.report()
    assert report["passed"], report["conservation"]["violations"]

    cfg = ESS_BENCH_CONFIG
    cell_epochs = cfg.rows * cfg.cols * cfg.epochs
    handoffs = report["totals"]["handoff_attempts"]
    # pinned-seed counts: machine-independent, they change only with the
    # model (the outage must exercise failover)
    assert report["totals"]["created"] == 665
    assert handoffs == 989
    assert report["backhaul"]["failovers"] == 12

    payload = {
        "config": {
            "grid": f"{cfg.rows}x{cfg.cols}",
            "epochs": cfg.epochs,
            "epoch_length_s": cfg.epoch_length,
            "seed": cfg.seed,
        },
        "counts": {
            "created": report["totals"]["created"],
            "handoff_attempts": handoffs,
            "backhaul_failovers": report["backhaul"]["failovers"],
        },
        # machine-relative throughput (not gated)
        "wall_s": round(wall, 4),
        "cells_per_sec": round(cell_epochs / wall) if wall > 0 else 0,
        "handoff_events_per_sec": round(handoffs / wall) if wall > 0 else 0,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "ess_grid.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    save_artifact(
        "ess_grid.txt",
        "\n".join(
            [
                f"ESS grid bench - {payload['config']['grid']}, "
                f"{cfg.epochs} epochs, seed {cfg.seed}",
                f"  created={payload['counts']['created']} "
                f"handoffs={handoffs} "
                f"failovers={payload['counts']['backhaul_failovers']}",
                f"  wall={payload['wall_s']}s "
                f"cells/s={payload['cells_per_sec']} "
                f"handoffs/s={payload['handoff_events_per_sec']}",
            ]
        ),
    )
