"""ScenarioConfig serialization: lossless round-trip and stable keys."""

import dataclasses
import json
import random

import pytest

from repro.exec import KEY_FORMAT, config_key
from repro.faults.chaos import chaos_grid
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
