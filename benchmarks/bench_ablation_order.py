"""Ablation — Theorem 2's voice service order.

Design claim: scanning voice token buffers in ascending-rate order
minimizes the average voice waiting time; the reversed order must not
beat it.  Verified both analytically (the SPT waiting-time identity)
and in simulation with heterogeneous voice rates.
"""

from repro.core import total_waiting_time
from repro.experiments import format_table
from repro.mac.backoff import StandardBEB
from repro.metrics import MetricsCollector
from repro.network.bss import RT_PACKET_BITS
from repro.traffic import VoiceParams

from conftest import save_artifact


def run_order(order: str, sim_time: float = 40.0) -> dict:
    """A static population of heterogeneous-rate voice sources."""
    from repro.core import QosAccessPoint, QosApConfig
    from repro.mac import DcfTransmitter, Nav, RealTimeStation
    from repro.phy import BitErrorModel, Channel, PhyTiming
    from repro.sim import RandomStreams, Simulator
    from repro.traffic import OnOffVoiceSource, TrafficKind

    sim = Simulator()
    timing = PhyTiming()
    streams = RandomStreams(31)
    channel = Channel(sim, BitErrorModel(0.0, streams.get("ch")))
    nav = Nav()
    collector = MetricsCollector(warmup=2.0)
    ap = QosAccessPoint(
        sim, channel, timing, nav,
        config=QosApConfig(adaptation_interval=0.0, voice_order=order),
    )
    rates = (10.0, 20.0, 40.0, 80.0)
    for i, rate in enumerate(rates):
        sid = f"voice/{i}"
        qos = VoiceParams(rate=rate, max_jitter=0.5, packet_bits=RT_PACKET_BITS,
                          mean_on=1e9)  # always talking: steady demand
        session = ap.admission.try_admit_voice(sid, qos)
        assert session is not None
        dcf = DcfTransmitter(
            sim, channel, timing, StandardBEB(8), streams.get(f"dcf/{sid}"),
            sid, nav,
        )
        sta = RealTimeStation(
            sim, sid, dcf, "ap", TrafficKind.VOICE, qos,
            on_packet_outcome=collector.packet_outcome,
        )
        ap.register_station(sta)
        ap.policy.add_session(session)
        sta.grant()
        source = OnOffVoiceSource(
            sim, sid, sta.packet_arrival, streams.get(f"traffic/{sid}"),
            qos, start_talking=True,
        )
        sta.activity_probe = lambda src=source: src.talking
        source.start()
    sim.run(until=sim_time)
    from repro.traffic import TrafficKind as TK

    return {
        "voice order": order,
        "mean voice delay (ms)": collector.access_delay[TK.VOICE].mean * 1000,
        "delivered": collector.delivered[TK.VOICE].value,
    }


def test_theorem2_analytic_identity(benchmark):
    demands = [5.0, 1.0, 3.0, 2.0]
    spt = benchmark(total_waiting_time, sorted(demands))
    assert spt <= total_waiting_time(demands)
    assert spt <= total_waiting_time(sorted(demands, reverse=True))


def test_ablation_voice_order(benchmark):
    results = benchmark.pedantic(
        lambda: [run_order("ascending"), run_order("descending")],
        rounds=1,
        iterations=1,
    )
    ascending, descending = results
    # Theorem 2: the ascending (SPT) order minimizes average waiting
    assert (
        ascending["mean voice delay (ms)"]
        <= descending["mean voice delay (ms)"] * 1.05
    )
    save_artifact(
        "ablation_order.txt",
        format_table(
            results,
            ["voice order", "mean voice delay (ms)", "delivered"],
            title="Ablation - Theorem 2 voice scan order "
                  "(rates 10/20/40/80 pkt/s)",
        ),
    )
