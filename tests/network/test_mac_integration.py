"""Whole-MAC integration invariants: CFP protection and BER monotonicity."""

import pytest

from repro.mac.frames import FrameType
from repro.network import BssScenario, ScenarioConfig
from repro.phy.channel import Channel


def run_with_transmission_log(scheme="proposed", **cfg_kw):
    """Run a scenario recording every transmission with its frame type."""
    defaults = dict(
        seed=6, sim_time=15.0, warmup=0.0,
        new_voice_rate=0.4, new_video_rate=0.2,
        handoff_voice_rate=0.2, handoff_video_rate=0.1,
        mean_holding=10.0, n_data_stations=3,
    )
    defaults.update(cfg_kw)
    sc = BssScenario(ScenarioConfig(scheme=scheme, **defaults))
    log = []
    original = Channel.transmit

    def spy(self, frame, duration, sender, on_done=None):
        if self is sc.channel:
            log.append((sc.sim.now, sc.sim.now + duration,
                        getattr(frame, "ftype", None)))
        return original(self, frame, duration, sender, on_done)

    Channel.transmit = spy
    try:
        results = sc.run()
    finally:
        Channel.transmit = original
    return sc, results, log


CONTENTION_TYPES = {FrameType.DATA, FrameType.REQUEST}
CFP_TYPES = {FrameType.CF_POLL, FrameType.CF_MULTIPOLL, FrameType.CF_DATA}


def cfp_windows(log):
    """(beacon_start, cf_end_finish) intervals from the transmission log."""
    windows = []
    start = None
    for t0, t1, ftype in log:
        if ftype == FrameType.BEACON:
            start = t0
        elif ftype == FrameType.CF_END and start is not None:
            windows.append((start, t1))
            start = None
    if start is not None:
        # a CFP still open when the simulation clock stopped
        windows.append((start, float("inf")))
    return windows


def test_no_contention_traffic_starts_inside_cfp():
    """The NAV + IFS structure must keep DCF silent during every CFP."""
    _, _, log = run_with_transmission_log()
    windows = cfp_windows(log)
    assert windows, "no CFP observed"
    violations = [
        (t0, ftype)
        for t0, _, ftype in log
        if ftype in CONTENTION_TYPES
        and any(w0 <= t0 < w1 for w0, w1 in windows)
    ]
    assert violations == []


def test_cf_data_only_inside_cfp():
    """Polled responses never appear outside a contention-free period."""
    _, _, log = run_with_transmission_log()
    windows = cfp_windows(log)
    for t0, _, ftype in log:
        if ftype == FrameType.CF_DATA:
            assert any(w0 <= t0 < w1 for w0, w1 in windows)


def test_transmissions_cover_all_expected_types():
    _, _, log = run_with_transmission_log()
    seen = {ftype for _, _, ftype in log}
    for expected in (FrameType.BEACON, FrameType.CF_POLL, FrameType.CF_DATA,
                     FrameType.CF_END, FrameType.DATA, FrameType.REQUEST,
                     FrameType.ACK):
        assert expected in seen, f"never saw {expected}"


@pytest.mark.parametrize("scheme", ["proposed", "conventional"])
def test_loss_rate_monotone_in_ber(scheme):
    """Raising the channel BER must not improve delivery."""
    def loss_fraction(ber):
        cfg = ScenarioConfig(
            scheme=scheme, seed=4, sim_time=12.0, warmup=1.0, ber=ber,
            new_voice_rate=0.4, new_video_rate=0.2,
            handoff_voice_rate=0.0, handoff_video_rate=0.0,
            mean_holding=10.0, n_data_stations=2,
        )
        r = BssScenario(cfg).run()
        delivered = sum(r[f"{k}_delivered"] for k in ("voice", "video", "data"))
        lost = sum(r[f"{k}_losses"] for k in ("voice", "video", "data"))
        return lost / max(1, delivered + lost)

    clean = loss_fraction(0.0)
    noisy = loss_fraction(2e-4)
    assert noisy >= clean
    assert noisy > 0.01  # at 2e-4 a 4 kbit frame dies ~ half the time
