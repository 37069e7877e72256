"""Every station's DCF counters, pinned on four full scenario runs.

The backoff counters (``idle_slots_observed``, ``busy_freezes``) are
not visible in any result row, so a change to how the DCF counts its
backoff could leave the rows intact and the counters short.  These
pins hold every field of every station's :class:`DcfStats`, including
the real-time calls that departed mid-run.
"""

import pytest

from repro.experiments import sweep_config
from repro.mac import DcfTransmitter
from repro.mac.dcf import DcfStats
from repro.network import BssScenario, ScenarioConfig

#: perfbench's ``contention_exact`` config (conventional, 8 saturated
#: data stations, no calls)
CONTENTION = ScenarioConfig(
    scheme="conventional", seed=7, sim_time=5.0, warmup=1.0,
    n_data_stations=8, load=6.0, new_voice_rate=0.0, new_video_rate=0.0,
    handoff_voice_rate=0.0, handoff_video_rate=0.0,
)

#: the same saturated BSS under the paper's scheme, with the default
#: call mix: the shared adaptive CW counts every station's idle slots
SATURATED = ScenarioConfig(
    scheme="proposed", seed=7, sim_time=5.0, warmup=1.0,
    n_data_stations=8, load=6.0,
)

# fields in DcfStats order: enqueued, attempts, successes, failures,
# drops, idle_slots_observed, busy_freezes
PINS = {
    "contention_exact": (CONTENTION, {
        "data/0": (440, 567, 407, 160, 0, 14662, 6048),
        "data/1": (459, 606, 448, 158, 0, 14662, 5933),
        "data/2": (468, 633, 461, 172, 0, 15717, 6291),
        "data/3": (430, 583, 429, 154, 0, 14214, 5739),
        "data/4": (456, 648, 456, 192, 0, 15793, 6315),
        "data/5": (497, 621, 467, 153, 0, 14628, 5856),
        "data/6": (451, 597, 446, 151, 0, 13232, 5335),
        "data/7": (472, 636, 471, 165, 0, 13942, 5630),
    }),
    # a figure_sweep point: the proposed scheme's adaptive CW observes
    # the idle slots its DCFs count on the slot clocks
    "proposed-3.0": (sweep_config("proposed", 3.0, 1, sim_time=6.0, warmup=0.75), {
        "data/0": (286, 320, 285, 34, 0, 2344, 142),
        "data/1": (302, 324, 302, 22, 0, 2049, 117),
        "data/2": (265, 282, 265, 17, 0, 2008, 118),
        "data/3": (277, 301, 277, 24, 0, 2064, 129),
        "ho-voice/8": (1, 1, 1, 0, 0, 1, 1),
        "ho-voice/9": (1, 1, 1, 0, 0, 0, 0),
        "ho-voice/10": (1, 1, 1, 0, 0, 1, 1),
        "video/4": (3, 3, 3, 0, 0, 0, 0),
        "voice/1": (1, 1, 1, 0, 0, 0, 0),
        "voice/2": (2, 2, 2, 0, 0, 0, 0),
        "voice/3": (2, 2, 2, 0, 0, 13, 3),
        "voice/5": (2, 2, 2, 0, 0, 12, 1),
        "voice/6": (1, 1, 1, 0, 0, 0, 0),
        "voice/7": (2, 2, 2, 0, 0, 0, 0),
        "voice/11": (1, 1, 1, 0, 0, 0, 0),
    }),
    "proposed-saturated": (SATURATED, {
        "data/0": (440, 468, 400, 68, 0, 35165, 5907),
        "data/1": (459, 454, 378, 76, 0, 35966, 6066),
        "data/2": (468, 458, 394, 64, 0, 35438, 5957),
        "data/3": (430, 452, 380, 72, 0, 35164, 5914),
        "data/4": (456, 477, 413, 64, 0, 36638, 6107),
        "data/5": (497, 466, 394, 72, 0, 36740, 6196),
        "data/6": (451, 460, 379, 80, 0, 35371, 5954),
        "data/7": (472, 476, 399, 77, 0, 36135, 6073),
        "ho-video/1": (103, 113, 103, 10, 0, 3540, 653),
        "ho-voice/2": (2, 2, 2, 0, 0, 42, 6),
        "ho-video/3": (4, 5, 4, 1, 0, 138, 29),
        "video/4": (13, 16, 13, 3, 0, 827, 160),
    }),
    # the same point under the conventional scheme: plain BEB, with
    # beacons, CF-Ends and departing calls on the channel
    "conventional-3.0": (sweep_config("conventional", 3.0, 1, sim_time=6.0, warmup=0.75), {
        "data/0": (286, 334, 285, 48, 0, 5770, 828),
        "data/1": (302, 345, 302, 43, 0, 5164, 777),
        "data/2": (265, 318, 265, 53, 0, 5702, 876),
        "data/3": (277, 321, 277, 44, 0, 5095, 808),
        "ho-voice/8": (1, 1, 1, 0, 0, 13, 3),
        "ho-voice/9": (1, 1, 1, 0, 0, 27, 4),
        "ho-voice/10": (1, 1, 1, 0, 0, 15, 0),
        "video/4": (2, 2, 2, 0, 0, 42, 10),
        "voice/1": (1, 1, 1, 0, 0, 0, 0),
        "voice/2": (2, 2, 2, 0, 0, 24, 4),
        "voice/3": (2, 2, 2, 0, 0, 23, 4),
        "voice/5": (2, 3, 2, 1, 0, 30, 6),
        "voice/6": (1, 1, 1, 0, 0, 24, 8),
        "voice/7": (2, 2, 2, 0, 0, 25, 1),
        "voice/11": (1, 1, 1, 0, 0, 16, 3),
    }),
}


#: the shared adaptive CW after the run: ``(updates, repr(cw_estimate))``
POLICY_PINS = {
    "proposed-saturated": (4780, "142.75668731672323"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_every_station_dcf_stats_hold(name, monkeypatch):
    config, expected = PINS[name]
    dcfs = []
    init = DcfTransmitter.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        dcfs.append(self)

    monkeypatch.setattr(DcfTransmitter, "__init__", recording_init)
    BssScenario(config).run()
    stats = {dcf.station_id: dcf.stats for dcf in dcfs}
    assert stats == {sid: DcfStats(*fields) for sid, fields in expected.items()}
    if name in POLICY_PINS:
        (policy,) = {dcf.policy for dcf in dcfs}
        assert (policy.updates, repr(policy.cw_estimate)) == POLICY_PINS[name]
