"""Evaluation defaults — the reproduction's Table II.

The scraped paper lost the body of its Table II ("default attribute
values used in the simulation"); the values here combine what the text
states explicitly (voice on/off means 1.35 s / 1.5 s, 3-minute calls,
video delay bound 50 ms, data MSDUs exponential with mean 1024 octets,
CFP/superframe 50/75 ms, Maglaris AR coefficients) with standard
802.11b DSSS PHY constants for the rest.  Sweep-level knobs (shorter
holding times, scaled arrival rates) keep a full figure reproduction
inside a laptop budget; they rescale both schemes identically, so the
comparisons the figures make are preserved.
"""

from __future__ import annotations

from ..network.bss import DEFAULT_VIDEO, DEFAULT_VOICE, RT_PACKET_BITS, ScenarioConfig
from ..phy.timing import PhyTiming

__all__ = [
    "TABLE2",
    "EVALUATION_LOADS",
    "EVALUATION_SEEDS",
    "BENCH_LOADS",
    "sweep_config",
]

#: the parameter table the paper's Table II corresponds to
TABLE2: list[tuple[str, str, str]] = [
    ("channel rate", "11 Mb/s", "802.11b DSSS"),
    ("PLCP preamble+header", "192 us @ 1 Mb/s", "long preamble"),
    ("slot time", "20 us", "802.11b"),
    ("SIFS / PIFS / DIFS", "10 / 30 / 50 us", "802.11b"),
    ("bit error rate", "1e-5", "paper's P_succ = (1-BER)^L model"),
    ("MAC header + FCS", "34 octets", ""),
    ("ACK frame", "14 octets", ""),
    ("real-time MPDU payload", "512 octets", "all RT packets equal-sized"),
    ("data MSDU length", "exp(mean 1024 octets)", "paper Section III-A"),
    ("MTU", "1500 octets", "fragmentation threshold"),
    ("voice codec rate r", "25 packets/s", ""),
    ("voice jitter bound delta", "30 ms", ""),
    ("voice talk spurt (on)", "exp(mean 1.35 s)", "paper Section III-A"),
    ("voice silence (off)", "exp(mean 1.5 s)", "paper Section III-A"),
    ("video declared rate rho", "60 packets/s", ""),
    ("video burstiness sigma", "6 packets", ""),
    ("video delay bound D", "50 ms", "paper Section III-B"),
    ("video frame rate", "25 frames/s", "Maglaris AR(1) source"),
    ("AR(1) coefficients", "a=0.8781 b=0.1108 E[w]=0.572", "Maglaris et al."),
    ("call holding time", "exp(mean 40 s)", "paper: 3 min; scaled for sweeps"),
    ("handoff deadline", "500 ms", ""),
    ("superframe (conventional)", "75 ms", "paper Section III-B"),
    ("CFP maximum (conventional)", "50 ms", "paper Section III-B"),
    ("priority window partition", "alpha=(4,4,8), beta=0", "paper Table I"),
    ("traffic mix", "voice : video : data = 1 : 1 : 1", "paper Section III-B"),
]

#: the load multipliers every figure-6..11 sweep runs over
EVALUATION_LOADS: tuple[float, ...] = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)

#: replication seeds (figures average across them)
EVALUATION_SEEDS: tuple[int, ...] = (1, 2, 3)

#: the scaled-down benchmark grid: every other evaluation load — the
#: single source the bench drivers and smoke sweeps import from
BENCH_LOADS: tuple[float, ...] = EVALUATION_LOADS[1::2]


def sweep_config(
    scheme: str,
    load: float,
    seed: int,
    sim_time: float = 60.0,
    warmup: float = 5.0,
) -> ScenarioConfig:
    """The canonical evaluation point for Figs. 6-11."""
    return ScenarioConfig(
        scheme=scheme,
        seed=seed,
        sim_time=sim_time,
        warmup=warmup,
        load=load,
        new_voice_rate=0.3,
        new_video_rate=0.2,
        handoff_voice_rate=0.15,
        handoff_video_rate=0.1,
        mean_holding=20.0,
        n_data_stations=4,
        data_msdus_per_station=12.0,
        voice=DEFAULT_VOICE,
        video=DEFAULT_VIDEO,
    )


def phy_overheads(timing: PhyTiming | None = None) -> dict[str, float]:
    """Derived per-frame costs, for documentation and sanity checks."""
    t = timing or PhyTiming()
    return {
        "rt_exchange_time": (
            t.poll_time() + t.sifs + t.frame_airtime(RT_PACKET_BITS) + t.sifs
        ),
        "data_exchange_time": t.data_exchange_time(1024 * 8),
        "beacon_time": t.beacon_time(),
        "poll_time": t.poll_time(),
    }
