"""Per-figure data generators for the paper's evaluation section.

Figure 5 runs its own static-population experiment (admitted sources
vs. their analytical bounds); Figures 6-11 are different projections of
one shared scheme x load sweep, so callers typically run
:func:`repro.experiments.runner.run_sweep` once and feed the rows to
each ``figN`` function.
"""

from __future__ import annotations

import typing

from ..core.qos_ap import QosAccessPoint, QosApConfig
from ..mac.backoff import StandardBEB
from ..mac.dcf import DcfTransmitter
from ..mac.nav import Nav
from ..mac.station import RealTimeStation
from ..metrics.collectors import MetricsCollector
from ..network.bss import DEFAULT_VIDEO, DEFAULT_VOICE, RT_PACKET_BITS
from ..phy.channel import Channel
from ..phy.error_model import BitErrorModel
from ..phy.timing import PhyTiming
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from ..traffic.base import TrafficKind
from ..traffic.video import MaglarisVideoSource
from ..traffic.voice import OnOffVoiceSource
from .runner import average_over_seeds

__all__ = [
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "FIGURE_METRICS",
]


# --------------------------------------------------------------- figure 5 ----
_FIG5_WARMUP = 1.0  # sim seconds every Fig. 5 run discards


def _static_bss(
    n_voice: int, n_video: int, seed: int, sim_time: float
) -> dict[str, typing.Any]:
    """A BSS with a fixed admitted population (no churn, no handoff)."""
    sim = Simulator()
    timing = PhyTiming()
    streams = RandomStreams(seed)
    channel = Channel(sim, BitErrorModel(1e-5, streams.get("phy/errors")))
    nav = Nav()
    collector = MetricsCollector(warmup=_FIG5_WARMUP)
    ap = QosAccessPoint(
        sim,
        channel,
        timing,
        nav,
        config=QosApConfig(rt_packet_bits=RT_PACKET_BITS, adaptation_interval=0.0),
    )

    admitted_voice = admitted_video = 0
    for i in range(n_voice):
        sid = f"voice/{i}"
        session = ap.admission.try_admit_voice(sid, DEFAULT_VOICE)
        if session is None:
            continue
        admitted_voice += 1
        dcf = DcfTransmitter(
            sim, channel, timing, StandardBEB(8), streams.get(f"dcf/{sid}"),
            sid, nav,
        )
        sta = RealTimeStation(
            sim, sid, dcf, "ap", TrafficKind.VOICE, DEFAULT_VOICE,
            on_packet_outcome=collector.packet_outcome,
        )
        ap.register_station(sta)
        ap.policy.add_session(session)
        sta.grant()
        source = OnOffVoiceSource(
            sim, sid, sta.packet_arrival, streams.get(f"traffic/{sid}"),
            DEFAULT_VOICE, start_talking=True,
        )
        sta.activity_probe = lambda src=source: src.talking
        source.start()
    for j in range(n_video):
        sid = f"video/{j}"
        session = ap.admission.try_admit_video(sid, DEFAULT_VIDEO)
        if session is None:
            continue
        admitted_video += 1
        dcf = DcfTransmitter(
            sim, channel, timing, StandardBEB(8), streams.get(f"dcf/{sid}"),
            sid, nav,
        )
        sta = RealTimeStation(
            sim, sid, dcf, "ap", TrafficKind.VIDEO, DEFAULT_VIDEO,
            on_packet_outcome=collector.packet_outcome,
        )
        ap.register_station(sta)
        ap.policy.add_session(session)
        sta.grant()
        MaglarisVideoSource(
            sim, sid, sta.packet_arrival, streams.get(f"traffic/{sid}"),
            DEFAULT_VIDEO,
        ).start()

    sim.run(until=sim_time)
    voice_bounds = ap.admission.voice_bounds()
    video_bounds = ap.admission.video_bounds()
    return {
        "n_voice": admitted_voice,
        "n_video": admitted_video,
        "analytic_max_jitter": max(voice_bounds) if voice_bounds else 0.0,
        "simulated_max_jitter": collector.worst_jitter(),
        "analytic_max_delay": max(video_bounds) if video_bounds else 0.0,
        "simulated_max_delay": collector.worst_delay("video"),
    }


def fig5(
    populations: typing.Sequence[tuple[int, int]] = ((1, 1), (2, 1), (3, 2), (4, 2)),
    seed: int = 1,
    sim_time: float = 30.0,
) -> list[dict]:
    """Fig. 5: analytical bounds vs simulated maxima for admitted sources.

    The paper's point: the analytical jitter/delay bounds are
    worst-case and therefore conservative — the simulated maxima sit
    strictly below them, tracking the same growth with population.
    A ``sim_time`` within the warm-up would measure nothing, so it is
    refused before any population runs.
    """
    if not sim_time > _FIG5_WARMUP:
        raise ValueError(
            f"sim_time must exceed Fig. 5's {_FIG5_WARMUP:g} s warm-up, "
            f"got {sim_time:g}"
        )
    return [
        _static_bss(nv, nd, seed=seed, sim_time=sim_time)
        for nv, nd in populations
    ]


# ---------------------------------------------------------- figures 6-11 ----
#: metric(s) each sweep figure projects out
FIGURE_METRICS: dict[str, list[str]] = {
    "fig6": ["dropping_probability"],
    "fig7": ["blocking_probability"],
    "fig8": ["voice_delay_mean", "voice_delay_var"],
    "fig9": ["video_delay_mean", "video_delay_var"],
    "fig10": ["data_delay_mean", "data_delay_var"],
    "fig11": ["channel_busy_fraction", "goodput_utilization"],
}


def _sweep_figure(rows: typing.Sequence[dict], name: str) -> list[dict]:
    return average_over_seeds(rows, FIGURE_METRICS[name])


def fig6(rows: typing.Sequence[dict]) -> list[dict]:
    """Fig. 6: handoff dropping probability vs offered load."""
    return _sweep_figure(rows, "fig6")


def fig7(rows: typing.Sequence[dict]) -> list[dict]:
    """Fig. 7: new-call blocking probability vs offered load."""
    return _sweep_figure(rows, "fig7")


def fig8(rows: typing.Sequence[dict]) -> list[dict]:
    """Fig. 8: average (and variance of) voice access delay."""
    return _sweep_figure(rows, "fig8")


def fig9(rows: typing.Sequence[dict]) -> list[dict]:
    """Fig. 9: average (and variance of) video access delay."""
    return _sweep_figure(rows, "fig9")


def fig10(rows: typing.Sequence[dict]) -> list[dict]:
    """Fig. 10: average data access delay (the scheme's low priority)."""
    return _sweep_figure(rows, "fig10")


def fig11(rows: typing.Sequence[dict]) -> list[dict]:
    """Fig. 11: average bandwidth utilization vs offered load."""
    return _sweep_figure(rows, "fig11")
