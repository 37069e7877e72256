"""End-to-end ESS runs: sharded epochs, failover, conservation, frames.

The faulted-backhaul scenario here is the acceptance criterion of the
ESS layer: on a 3x3 grid with one backhaul link down, handoffs that
would have used it must fail over to the pre-computed node-disjoint
alternate, with the global call ledger balancing at every epoch
boundary.  The CI ``ess-smoke`` job runs the same scenario through the
CLI.
"""

import dataclasses

import pytest

from repro.ess import (
    ESS_REPORT_SCHEMA,
    EssConfig,
    EssCoordinator,
    run_ess,
)
from repro.exec import ExecutorConfig, SweepExecutor, canonical_json
from repro.faults import LinkFault
from repro.obs.jsonutil import write_json
from repro.validate import EssLedgerSnapshot, conservation_violations

FAULTED = EssConfig(
    rows=3, cols=3, seed=1, epochs=4, epoch_length=15.0,
    new_call_rate=0.15, mean_residence=20.0,
    backhaul_faults=(LinkFault("ap/1x0", "ap/1x1"),),
)


class TestEssConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EssConfig(rows=1, cols=1)  # an ESS needs two cells
        with pytest.raises(ValueError):
            EssConfig(epochs=0)
        with pytest.raises(ValueError):
            EssConfig(overlap=1.5)
        with pytest.raises(ValueError):
            EssConfig(fidelity="packets")
        with pytest.raises(ValueError):
            EssConfig(frames_time=1.0)

    def test_unknown_fault_link_rejected(self):
        # the config refuses it, before any coordinator is built
        with pytest.raises(ValueError, match="link the topology lacks"):
            EssConfig(
                rows=2, cols=2,
                backhaul_faults=(LinkFault("ap/0x0", "ap/1x1"),),  # diagonal
            )

    def test_overlap_scales_handoff_capacity(self):
        cfg = EssConfig(capacity=12, overlap=0.25)
        assert cfg.cell_config().handoff_capacity == 15
        cfg = EssConfig(capacity=12, overlap=0.0)
        assert cfg.cell_config().handoff_capacity == 12

    def test_round_trips_through_dict(self):
        rebuilt = EssConfig.from_dict(FAULTED.to_dict())
        assert rebuilt == FAULTED
        assert isinstance(rebuilt.backhaul_faults[0], LinkFault)


class TestFaultedFailover:
    """The acceptance scenario: faulted link -> disjoint-path failover."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_ess(FAULTED)

    def test_passes_with_zero_conservation_violations(self, report):
        assert report["passed"] is True
        assert report["conservation"]["violations"] == []
        assert report["conservation"]["epochs_checked"] == FAULTED.epochs

    def test_handoffs_fail_over_to_disjoint_alternate(self, report):
        backhaul = report["backhaul"]
        assert backhaul["failovers"] > 0
        assert backhaul["unroutable"] == 0  # 3x3 grid is 2-connected
        assert backhaul["faulted_links"] == ["ap/1x0|ap/1x1"]

    def test_faulted_link_carries_no_handoffs(self, report):
        per_link = report["backhaul"]["per_link_handoffs"]
        assert not any("ap/1x0|ap/1x1" in key for key in per_link)
        assert sum(per_link.values()) > 0

    def test_report_shape(self, report):
        assert report["schema"] == ESS_REPORT_SCHEMA
        assert set(report["per_cell"]) == {
            f"ap/{r}x{c}" for r in range(3) for c in range(3)
        }
        totals = report["totals"]
        assert totals["created"] > 0
        assert totals["handoff_attempts"] > 0
        assert 0.0 <= totals["handoff_drop_rate"] <= 1.0

    def test_deterministic_byte_for_byte(self, report):
        again = run_ess(FAULTED)
        assert canonical_json(again) == canonical_json(report)

    def test_fault_free_run_never_fails_over(self):
        clean = dataclasses.replace(FAULTED, backhaul_faults=())
        report = run_ess(clean)
        assert report["passed"] is True
        assert report["backhaul"]["failovers"] == 0
        assert report["backhaul"]["faulted_links"] == []

    def test_fault_window_expires(self):
        windowed = dataclasses.replace(
            FAULTED,
            backhaul_faults=(LinkFault("ap/1x0", "ap/1x1", start=0.0, end=15.0),),
        )
        report = run_ess(windowed)
        per_link = report["backhaul"]["per_link_handoffs"]
        # the link resumes carrying traffic after its outage window
        assert any("ap/1x0|ap/1x1" in key for key in per_link)


class TestCoordinator:
    def test_run_is_once_only(self):
        coord = EssCoordinator(EssConfig(rows=2, cols=2, epochs=1))
        coord.run()
        with pytest.raises(RuntimeError):
            coord.run()

    def test_snapshots_one_per_epoch(self):
        coord = EssCoordinator(EssConfig(rows=2, cols=2, epochs=3))
        coord.run()
        assert [s.epoch for s in coord.snapshots] == [0, 1, 2]
        assert conservation_violations(coord.snapshots) == []

    def test_metrics_epoch_snapshots(self):
        coord = EssCoordinator(EssConfig(rows=2, cols=2, epochs=3))
        coord.run()
        assert len(coord.metrics.snapshots) == 3


class TestFramesFidelity:
    def test_frames_tier_runs_through_the_executor(self, tmp_path):
        cfg = EssConfig(
            rows=2, cols=2, seed=3, epochs=2, epoch_length=10.0,
            fidelity="frames", frames_time=4.0,
        )
        executor = SweepExecutor(
            ExecutorConfig(cache_dir=str(tmp_path / "cache"))
        )
        report = run_ess(cfg, executor=executor)
        assert report["passed"] is True
        assert executor.summary()["total_points"] == 4 * 2  # cells x epochs
        frames = report["frames"]
        assert set(frames) == {"ap/0x0", "ap/0x1", "ap/1x0", "ap/1x1"}
        for agg in frames.values():
            assert agg["epochs"] == 2
        # the frame tier replays what the call tier routed
        injected = sum(a["handoffs_injected"] for a in frames.values())
        assert injected <= report["backhaul"]["routed"]

    def test_frames_shards_are_cacheable(self, tmp_path):
        cfg = EssConfig(
            rows=2, cols=2, seed=3, epochs=1, epoch_length=10.0,
            fidelity="frames", frames_time=4.0,
        )
        exec_cfg = ExecutorConfig(cache_dir=str(tmp_path / "cache"))
        first = SweepExecutor(exec_cfg)
        run_ess(cfg, executor=first)
        assert first.summary()["executed"] == 4
        replay = SweepExecutor(exec_cfg)
        report = run_ess(cfg, executor=replay)
        assert replay.summary()["cache_hits"] == 4
        assert replay.summary()["executed"] == 0
        assert report["passed"] is True


class TestValidateHelpers:
    def test_snapshot_violation_messages(self):
        ok = EssLedgerSnapshot(
            epoch=0, created=10, completed=4, dropped_admission=1,
            dropped_backhaul=1, resident=3, in_transit=1,
        )
        assert ok.violation() is None
        broken = dataclasses.replace(ok, created=11)
        assert "conservation broken" in broken.violation()
        # balances (4 + (-1 + 2) + 3 + 1 == 9) but a term is negative
        negative = dataclasses.replace(ok, created=9, dropped_admission=-1,
                                       dropped_backhaul=2)
        assert "negative" in negative.violation()

    def test_save_report_writes_json(self, tmp_path):
        report = run_ess(EssConfig(rows=2, cols=2, epochs=1))
        path = write_json(tmp_path / "sub" / "report.json", report)
        assert path.exists()
        import json

        loaded = json.loads(path.read_text())
        assert loaded["schema"] == ESS_REPORT_SCHEMA
