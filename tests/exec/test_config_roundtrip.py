"""ScenarioConfig serialization: lossless round-trip and stable keys."""

import dataclasses
import json
import random

import numpy as np
import pytest

from repro.exec import KEY_FORMAT, config_key
from repro.experiments.config import sweep_config
from repro.validate.chaos import chaos_grid
from repro.network.bss import ScenarioConfig
from repro.obs.trace import TraceConfig
from repro.redteam.genome import DecodeSettings, random_genome
from repro.traffic.video import VideoParams
from repro.traffic.voice import VoiceParams


def _custom_config() -> ScenarioConfig:
    return ScenarioConfig(
        scheme="proposed-multipoll",
        seed=7,
        sim_time=30.0,
        warmup=3.0,
        load=1.5,
        multipoll_size=6,
        txop_packets=2,
        n_data_stations=2,
        voice=VoiceParams(rate=20.0, max_jitter=0.025, mean_on=1.0),
        video=VideoParams(avg_rate=50.0, burstiness=5.0, max_delay=0.040),
        adaptive_cw=False,
        alphas=(2, 6, 8),
        beta=1,
    )


class TestRoundTrip:
    def test_default_config_roundtrips(self):
        cfg = ScenarioConfig()
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg

    def test_custom_config_roundtrips_through_json(self):
        cfg = _custom_config()
        rebuilt = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert rebuilt == cfg
        # nested params come back as real dataclasses, not dicts
        assert isinstance(rebuilt.voice, VoiceParams)
        assert isinstance(rebuilt.video, VideoParams)
        assert isinstance(rebuilt.alphas, tuple)

    def test_to_dict_covers_every_field(self):
        # exact configs serialize without `engine` (pre-accel dicts and
        # format-5 cache keys stay valid); batched configs carry it
        every_field = {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert set(ScenarioConfig().to_dict()) == every_field - {"engine"}
        batched = ScenarioConfig(
            scheme="conventional",
            new_voice_rate=0.0,
            new_video_rate=0.0,
            handoff_voice_rate=0.0,
            handoff_video_rate=0.0,
            engine="batched",
        )
        assert set(batched.to_dict()) == every_field

    def test_from_dict_validates(self):
        d = ScenarioConfig().to_dict()
        d["scheme"] = "bogus"
        with pytest.raises(ValueError):
            ScenarioConfig.from_dict(d)

    @pytest.mark.parametrize(
        "field, value",
        [("faults", "garbage"), ("voice", [1, 2]), ("trace", "x"),
         ("ess", "x"), ("alphas", "448")],
    )
    def test_from_dict_refuses_wrong_typed_field(self, field, value):
        d = dict(ScenarioConfig().to_dict(), **{field: value})
        with pytest.raises((TypeError, ValueError)):
            ScenarioConfig.from_dict(d)

    def test_from_dict_refuses_unknown_keys(self):
        with pytest.raises(TypeError):
            ScenarioConfig.from_dict(dict(ScenarioConfig().to_dict(), bogus=1))


class TestConfigKey:
    def test_same_config_same_key(self):
        assert config_key(_custom_config()) == config_key(_custom_config())

    def test_key_changes_with_any_sweep_axis(self):
        base = ScenarioConfig()
        for change in (
            {"scheme": "conventional"},
            {"load": 2.0},
            {"seed": 5},
            {"sim_time": 90.0},
            {"monitor_invariants": True},
        ):
            varied = dataclasses.replace(base, **change)
            assert config_key(varied) != config_key(base), change

    def test_key_survives_json_roundtrip(self):
        cfg = _custom_config()
        rebuilt = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert config_key(rebuilt) == config_key(cfg)

    def test_key_is_hex_sha256_and_format_versioned(self):
        key = config_key(ScenarioConfig())
        assert len(key) == 64
        int(key, 16)  # raises if not hex
        # 5: ScenarioConfig grew the ess EssCellContext field
        assert KEY_FORMAT == 5


class TestOneKeyPerConfig:
    """An int passed to a float field is stored as a float, so an
    int-built point keys, caches and reports like its float twin."""

    def test_float_fields_store_ints_as_floats(self):
        from repro.faults.plan import (
            FaultPlan,
            FrameLossRule,
            GilbertElliottParams,
            StationFault,
        )
        from repro.network.mobility import EssCellContext

        cfg = ScenarioConfig(
            load=2, sim_time=30, warmup=3, ber=0,
            voice=VoiceParams(rate=20, max_jitter=1, mean_on=1),
            video=VideoParams(avg_rate=50, burstiness=5, max_delay=1),
            faults=FaultPlan(
                gilbert_elliott=GilbertElliottParams(1, 1, ber_good=0),
                frame_loss=(FrameLossRule("cf_poll", 1, start=1, end=2),),
                station_faults=(StationFault(at=5, duration=1),),
            ),
            ess=EssCellContext(cell="ap/0x0", epoch_start=30),
        )
        records = (
            cfg, cfg.voice, cfg.video, cfg.faults.gilbert_elliott,
            *cfg.faults.frame_loss, *cfg.faults.station_faults, cfg.ess,
        )
        for record in records:
            for f in dataclasses.fields(record):
                if f.type in ("float", "float | None"):
                    value = getattr(record, f.name)
                    assert value is None or type(value) is float, f.name
        # ints in int fields and bools stay as they are
        assert type(cfg.seed) is int and type(cfg.voice.packet_bits) is int
        assert ScenarioConfig(monitor_invariants=True).monitor_invariants is True
        assert type(ScenarioConfig(seed=np.int64(3)).seed) is np.int64

    @pytest.mark.parametrize(
        "int_built, float_built",
        [
            (ScenarioConfig(load=1), ScenarioConfig(load=1.0)),
            (ScenarioConfig(load=np.int64(2)), ScenarioConfig(load=2.0)),
            (
                ScenarioConfig(load=2, sim_time=60, warmup=5, mean_holding=40),
                ScenarioConfig(
                    load=2.0, sim_time=60.0, warmup=5.0, mean_holding=40.0
                ),
            ),
            (sweep_config("proposed", 1, 1), sweep_config("proposed", 1.0, 1)),
            (
                sweep_config("conventional", 3, 2, sim_time=90, warmup=8),
                sweep_config("conventional", 3.0, 2, sim_time=90.0, warmup=8.0),
            ),
        ],
        ids=[
            "load", "numpy-load", "several-fields", "sweep_config",
            "sweep_config-times",
        ],
    )
    def test_int_and_float_built_points_share_a_key(self, int_built, float_built):
        assert int_built == float_built
        assert config_key(int_built) == config_key(float_built)

    @pytest.mark.parametrize(
        "build",
        [
            lambda load, t, w: ScenarioConfig(load=load, sim_time=t, warmup=w),
            lambda load, t, w: sweep_config("proposed", load, 1, t, w),
        ],
        ids=["ScenarioConfig", "sweep_config"],
    )
    def test_int_and_float_built_points_give_the_same_row_bytes(self, build):
        from repro.exec import canonical_json, normalize_row
        from repro.network.bss import BssScenario

        rows = [
            canonical_json(normalize_row(BssScenario(cfg).run()))
            for cfg in (build(1, 3, 1), build(1.0, 3.0, 1.0))
        ]
        assert rows[0] == rows[1]
        assert '"load":1.0' in rows[0] and '"sim_time":3.0' in rows[0]


class TestKeyBytes:
    """Literal keys: cached rows, journals and fixtures are addressed by
    these bytes, so a serialization change must show up here."""

    def test_default_config_key(self):
        assert config_key(ScenarioConfig()) == (
            "c26e8b1010fd95da5836f8ca1784524bd85d8e7509325a6baab5769f21b36a39"
        )

    def test_batched_config_key(self):
        cfg = ScenarioConfig(
            scheme="conventional",
            new_voice_rate=0.0,
            new_video_rate=0.0,
            handoff_voice_rate=0.0,
            handoff_video_rate=0.0,
            engine="batched",
        )
        assert config_key(cfg) == (
            "594c39c909abc0edf77a55431dde838717d8129895987803bf327ca7fb4f6905"
        )

    def test_traced_config_key(self):
        assert config_key(ScenarioConfig(trace=TraceConfig())) == (
            "6657abff26e1fde4e03503565efbc0b0504300d0e569b787f4812735a732eb2d"
        )

    def test_faulted_config_key(self):
        mix, cfg = next(
            (mix, cfg)
            for mix, cfg in chaos_grid("smoke")
            if cfg.faults.injects_anything
        )
        assert mix == "bursty-channel"
        assert config_key(cfg) == (
            "f9b4626456b20e4d094aadc9d2a73a265ea031dd260cb3bcf0aa403317673358"
        )

    def test_genome_keys(self):
        rng = random.Random(0)
        bss = random_genome(rng, DecodeSettings(), "bss")
        ess = random_genome(rng, DecodeSettings(), "ess")
        assert (bss.key(), ess.key()) == ("ba1d36ffc4a4", "352f15094cd8")
