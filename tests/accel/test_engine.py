"""Batched engine tier: golden row, determinism, key format, accounting,
refusal of the configs the fast path cannot model.

The batched tier has its **own** committed golden fixture — it is a
different numerical path from the exact engine (counter-keyed RNG,
per-round vectorized draws) and must never be compared byte-for-byte
against exact rows.  What it must do is reproduce *itself* exactly,
leave exact keys/fixtures untouched, and model the same physics
closely enough that its event accounting lands near the exact run.

Regenerate the fixture deliberately with::

    PYTHONPATH=src python - <<'EOF'
    from repro.exec import SweepExecutor, canonical_json
    from tests.accel.test_engine import batched_golden_config
    row = SweepExecutor().run([batched_golden_config()])[0]
    print(canonical_json(row))
    EOF
"""

import dataclasses
import json
import pathlib

import pytest

from repro.accel import run_scenario
from repro.accel.engine import fast_path_refusal
from repro.exec import SweepExecutor, canonical_json, config_key
from repro.faults.plan import FaultPlan
from repro.network.bss import BssScenario, ScenarioConfig
from repro.network.mobility import EssCellContext
from repro.obs.trace import TraceConfig

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_batched_row.json"


def batched_golden_config(**overrides) -> ScenarioConfig:
    """The ``batched_end_to_end`` benchmark point (pure-DCF, saturating)."""
    base = dict(
        scheme="conventional",
        seed=7,
        sim_time=10.0,
        warmup=1.0,
        load=6.0,
        n_data_stations=4,
        new_voice_rate=0.0,
        new_video_rate=0.0,
        handoff_voice_rate=0.0,
        handoff_video_rate=0.0,
        engine="batched",
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture(scope="module")
def golden_bytes() -> str:
    return GOLDEN_PATH.read_text().strip()


class TestBatchedGoldenRow:
    def test_fixture_is_valid_canonical_json(self, golden_bytes):
        row = json.loads(golden_bytes)
        assert canonical_json(row) == golden_bytes
        assert row["engine"] == "batched"
        assert row["scheme"] == "conventional" and row["seed"] == 7

    def test_executor_run_reproduces_fixture(self, golden_bytes):
        rows = SweepExecutor().run([batched_golden_config()])
        assert len(rows) == 1
        assert canonical_json(rows[0]) == golden_bytes

    def test_direct_run_is_deterministic(self):
        a = run_scenario(batched_golden_config())
        b = run_scenario(batched_golden_config())
        assert canonical_json(a) == canonical_json(b)

    def test_seed_changes_the_row(self, golden_bytes):
        row = run_scenario(batched_golden_config(seed=8))
        assert canonical_json(row) != golden_bytes


class TestKeyFormat:
    """Format 6 applies to accel points only; exact keys are untouched."""

    def test_batched_key_differs_from_exact(self):
        batched = batched_golden_config()
        exact = dataclasses.replace(batched, engine="exact")
        assert config_key(batched) != config_key(exact)

    def test_exact_to_dict_omits_engine(self):
        exact = dataclasses.replace(batched_golden_config(), engine="exact")
        assert "engine" not in exact.to_dict()
        assert "engine" in batched_golden_config().to_dict()

    def test_exact_key_matches_pre_accel_construction(self):
        # a config built without naming engine at all hashes the same
        # as one explicitly exact: existing caches stay valid
        kwargs = dict(
            scheme="proposed", seed=1, sim_time=12.0, warmup=2.0,
        )
        assert config_key(ScenarioConfig(**kwargs)) == config_key(
            ScenarioConfig(**kwargs, engine="exact")
        )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            batched_golden_config(engine="warp")


class TestEventAccounting:
    def test_modeled_events_near_exact_run(self):
        """The fast path's modeled fire count tracks the exact engine.

        The accounting table in :mod:`repro.accel.engine` maps modeled
        exchanges onto the fires the exact engine would dispatch; the
        two runs draw different RNG streams so the counts differ, but
        a gap beyond ~40% would mean the accounting (or the physics)
        has drifted.
        """
        batched = run_scenario(batched_golden_config())
        exact = BssScenario(
            dataclasses.replace(batched_golden_config(), engine="exact")
        ).run()
        ratio = batched["events_processed"] / exact["events_processed"]
        assert 0.6 < ratio < 1.4

    def test_throughput_tracks_exact_run(self):
        batched = run_scenario(batched_golden_config())
        exact = BssScenario(
            dataclasses.replace(batched_golden_config(), engine="exact")
        ).run()
        # saturated homogeneous DCF: both engines should deliver
        # statistically comparable MSDU counts
        ratio = batched["data_delivered"] / exact["data_delivered"]
        assert 0.8 < ratio < 1.25


class TestDispatch:
    def test_fast_path_covers_the_golden_point(self):
        assert fast_path_refusal(batched_golden_config()) is None

    def test_exact_rows_carry_no_engine_tag(self):
        cfg = dataclasses.replace(
            batched_golden_config(sim_time=3.0), engine="exact"
        )
        row = BssScenario(cfg).run()
        assert "engine" not in row


class TestRefusal:
    """``engine="batched"`` is the fast path and nothing else: a config
    it cannot model is refused when it is built, naming the condition."""

    @pytest.mark.parametrize(
        ("overrides", "condition"),
        [
            (dict(new_voice_rate=0.3), "real-time call rate"),
            (dict(handoff_video_rate=0.1), "real-time call rate"),
            (dict(scheme="proposed"), "scheme 'proposed'"),
            (dict(faults=FaultPlan()), "fault plan"),
            (dict(trace=TraceConfig()), "trace"),
            (dict(ess=EssCellContext(cell="ap/0x0")), "ESS context"),
            (dict(monitor_invariants=True), "invariant monitors"),
            (dict(mobility="neighborhood"), "mobility 'neighborhood'"),
            (dict(n_data_stations=0), "zero data stations"),
        ],
        ids=[
            "call-rate", "handoff-rate", "scheme", "faults", "trace",
            "ess", "monitors", "mobility", "no-data-stations",
        ],
    )
    def test_unmodelable_config_is_refused(self, overrides, condition):
        with pytest.raises(ValueError, match=condition):
            batched_golden_config(**overrides)
        # the same shape stays a valid exact config
        batched_golden_config(engine="exact", **overrides)

    def test_refused_on_replace_too(self):
        with pytest.raises(ValueError, match="real-time call rate"):
            dataclasses.replace(batched_golden_config(), new_video_rate=0.2)

    def test_hybrid_engine_is_rejected(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            batched_golden_config(engine="hybrid")
