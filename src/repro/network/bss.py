"""Scenario assembly: one BSS under either scheme, ready to run.

This is the top-level entry point the examples, experiments and
benchmarks use: configure a :class:`ScenarioConfig`, build a
:class:`BssScenario`, call :meth:`BssScenario.run`, read the results
dict.  The three schemes of the paper's evaluation are selectable:

* ``"proposed"`` — the QoS AP with single CF-Polls;
* ``"proposed-multipoll"`` — the QoS AP with CF-MultiPoll batches;
* ``"conventional"`` — plain 802.11 DCF + round-robin PCF.

Common-random-number discipline: every stochastic component draws from
a stream named after its role, so two schemes run with the same seed
see identical call arrivals, talk spurts, video frame sizes and data
traffic — paired comparison with no extra variance.
"""

from __future__ import annotations

import dataclasses
import typing

from ..baseline.conventional import ConventionalAccessPoint
from ..core.adaptive_cw import AdaptiveCW
from ..core.priority_backoff import PriorityBackoff
from ..core.qos_ap import QosAccessPoint, QosApConfig
from ..faults.plan import FaultPlan
from ..mac.backoff import StandardBEB
from ..mac.dcf import DcfTransmitter
from ..mac.nav import Nav
from ..mac.station import DataStation
from ..metrics.collectors import MetricsCollector
from ..obs.jsonutil import JsonRecord, store_floats, to_jsonable
from ..obs.registry import MetricsRegistry
from ..obs.trace import TraceConfig, TraceRecorder
from ..phy.channel import Channel
from ..phy.error_model import BitErrorModel
from ..phy.timing import PhyTiming
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from ..traffic.base import RT_PACKET_BITS, TrafficKind
from ..traffic.data import PoissonDataSource
from ..traffic.video import VideoParams
from ..traffic.voice import VoiceParams
from .calls import CallGenerator, CallMixConfig
from .mobility import EssCellContext

__all__ = [
    "ScenarioConfig",
    "BssScenario",
    "SCHEMES",
    "ENGINES",
    # re-exported from the traffic layer, where it is defined
    "RT_PACKET_BITS",
]

SCHEMES = ("proposed", "proposed-multipoll", "conventional")

#: engine tiers (see repro.accel and DESIGN.md "Engine tiers")
ENGINES = ("exact", "batched")

DEFAULT_VOICE = VoiceParams(rate=25.0, max_jitter=0.030)
DEFAULT_VIDEO = VideoParams(avg_rate=60.0, burstiness=6.0, max_delay=0.050)


@dataclasses.dataclass(frozen=True)
class ScenarioConfig(JsonRecord):
    """Everything needed to reproduce one simulated point."""

    scheme: str = "proposed"
    seed: int = 1
    sim_time: float = 60.0
    warmup: float = 5.0
    #: scales call-arrival intensities and data traffic together
    load: float = 1.0
    ber: float = 1e-5
    #: per-superframe CF-MultiPoll batch (only for proposed-multipoll)
    multipoll_size: int = 4
    #: HCF-style TXOP packets per poll (applies to the proposed schemes)
    txop_packets: int = 1
    # traffic mix (rates at load = 1)
    n_data_stations: int = 4
    data_msdus_per_station: float = 12.0
    new_voice_rate: float = 0.05
    new_video_rate: float = 0.05
    handoff_voice_rate: float = 0.025
    handoff_video_rate: float = 0.025
    mean_holding: float = 40.0
    handoff_deadline: float = 0.5
    handoff_time: float = 0.005
    voice: VoiceParams = DEFAULT_VOICE
    video: VideoParams = DEFAULT_VIDEO
    #: handoff arrival model: the paper's "poisson" is the only one (the
    #: ESS layer models real neighbour cells).  The field stays because
    #: it is in every cache key and every served surface_id
    mobility: str = "poisson"
    # ablation switches
    adaptive_cw: bool = True
    adaptive_bandwidth: bool = True
    voice_order: str = "ascending"
    #: attach the runtime invariant monitors (repro.validate.invariants)
    #: and report ``invariant_violations`` in the results dict
    monitor_invariants: bool = False
    #: fault-injection plan (repro.faults).  None (the default) keeps
    #: the seed's idealized fault-free behavior bit-for-bit; attaching
    #: any plan — even an empty one — also arms the hardened protocol
    #: semantics (strict CF-End delivery with NAV-expiry fallback) and
    #: adds a ``faults`` degradation sub-dict to the results
    faults: FaultPlan | None = None
    #: structured-event tracing (repro.obs).  None (the default) keeps
    #: tracing entirely off: no recorder is built, instrumented hot
    #: paths see ``trace is None``, and results are bit-for-bit the
    #: seed's.  Any config — even all-categories — only *adds* an
    #: ``obs`` sub-dict to the results
    trace: TraceConfig | None = None
    #: ESS cell context (repro.ess).  None (the default) keeps the
    #: scenario a plain single BSS, byte-identical to the seed's; a
    #: context schedules the backhaul-routed inbound handoffs of one
    #: (cell, epoch) shard at their offsets and adds an ``ess``
    #: sub-dict to the results
    ess: "EssCellContext | None" = None
    #: priority partition of the contention window (paper Table I)
    alphas: tuple[int, ...] = (4, 4, 8)
    beta: int = 0
    #: engine tier (repro.accel): "exact" (the default, byte-for-byte
    #: the seed's per-frame simulation) or "batched" (the round-
    #: synchronous pure-DCF fast path; statistically equivalent, own
    #: golden fixture; configs it cannot model are refused here).
    #: "exact" is omitted from :meth:`to_dict` so exact cache keys and
    #: journals never change.
    engine: str = "exact"

    def __post_init__(self) -> None:
        store_floats(self)
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.mobility != "poisson":
            raise ValueError(
                f"mobility must be 'poisson', got {self.mobility!r}"
            )
        if self.sim_time <= self.warmup:
            raise ValueError("sim_time must exceed warmup")
        if self.load <= 0:
            raise ValueError(f"load must be > 0, got {self.load}")
        if self.engine == "batched":
            # imported lazily: repro.accel sits above this module
            from ..accel.engine import fast_path_refusal

            reason = fast_path_refusal(self)
            if reason is not None:
                raise ValueError(
                    f"engine='batched' cannot model this config: {reason} "
                    "(see DESIGN.md 'Engine tiers')"
                )

    def to_dict(self) -> dict[str, typing.Any]:
        """JSON-ready representation (nested params become dicts).

        The output is stable under ``json.dumps``/``json.loads`` and is
        the canonical input to the execution subsystem's content hash
        (:func:`repro.exec.hashing.config_key`) and sweep journals.
        """
        d = to_jsonable(self)
        if self.engine == "exact":
            # exact points keep the pre-accel dict shape, so their
            # content-addressed keys (KEY_FORMAT 5) and cached rows
            # stay byte-identical; from_dict defaults engine back in
            del d["engine"]
        return d

    def offered_load_bps(self) -> float:
        """Approximate offered traffic in bits/s (for plots' x-axis)."""
        voice_call_bps = self.voice.average_rate * self.voice.packet_bits
        video_call_bps = self.video.avg_rate * self.video.packet_bits
        voice_calls = (
            (self.new_voice_rate + self.handoff_voice_rate)
            * self.load
            * self.mean_holding
        )
        video_calls = (
            (self.new_video_rate + self.handoff_video_rate)
            * self.load
            * self.mean_holding
        )
        data_bps = (
            self.n_data_stations
            * self.data_msdus_per_station
            * self.load
            * 1024
            * 8
        )
        return voice_calls * voice_call_bps + video_calls * video_call_bps + data_bps

    def normalized_load(self, timing: PhyTiming | None = None) -> float:
        """Offered load as a fraction of the channel bit rate."""
        t = timing or PhyTiming()
        return self.offered_load_bps() / t.data_rate


class BssScenario:
    """One fully wired BSS; build once, :meth:`run` once."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.timing = PhyTiming()
        self.streams = RandomStreams(config.seed)
        plan = config.faults
        #: scenario-wide instrument registry (always built — creating
        #: instruments costs nothing on the event path)
        self.metrics = MetricsRegistry(scheme=config.scheme, seed=config.seed)
        #: trace recorder, or None when the config leaves tracing off
        self.trace = (
            TraceRecorder(config.trace) if config.trace is not None else None
        )
        # Fault injectors draw from their own streams (faults/*) so a
        # plan-free run sees exactly the seed's draw sequences.
        error_model = BitErrorModel(config.ber, self.streams.blocks("phy/errors"))
        if plan is not None and plan.gilbert_elliott is not None:
            from ..faults.gilbert import GilbertElliottModel

            error_model = GilbertElliottModel(
                plan.gilbert_elliott, self.streams.blocks("faults/channel")
            )
        self.channel = Channel(self.sim, error_model)
        self.frame_injector = None
        if plan is not None and plan.frame_loss:
            from ..faults.injector import FrameLossInjector

            self.frame_injector = FrameLossInjector(
                plan.frame_loss, self.streams.blocks("faults/frames")
            )
            self.channel.fault_injector = self.frame_injector
        self.invariants = None
        if config.monitor_invariants:
            # imported lazily: repro.validate rides the experiments
            # layer, which sits above this module
            from ..validate.invariants import InvariantSuite

            # under injected faults, QoS budget breaches are expected
            # degradation, reported separately — not invariant failures
            self.invariants = InvariantSuite(self.sim, qos_gate=plan is None)
            self.invariants.attach_channel(self.channel)
        self.nav = (
            self.invariants.monitored_nav() if self.invariants else Nav()
        )
        self.collector = MetricsCollector(
            warmup=config.warmup, metrics=self.metrics
        )

        self._shared_policy = self._build_policy()
        self.ap = self._build_ap()
        if plan is not None:
            # hardened semantics: honor CF-End delivery, fall back to
            # NAV expiry when it is lost (see mac/nav.py)
            self.ap.coordinator.strict_cf_end = True
        if self.invariants is not None and hasattr(self.ap, "policy"):
            self.invariants.attach_ap(self.ap)
        self.fault_driver = None
        if plan is not None and plan.station_faults:
            from ..faults.stations import StationFaultDriver

            self.fault_driver = StationFaultDriver(
                self.sim,
                self.ap.stations,
                plan.station_faults,
                self.streams.get("faults/stations"),
            )
        self.call_generator = CallGenerator(
            self.sim,
            self.ap,
            self.channel,
            self.timing,
            self.nav,
            lambda: self._shared_policy,
            self.streams,
            self._call_mix(),
            self.collector,
        )
        self.data_stations: list[DataStation] = []
        self._build_data_stations()
        #: fired count of the ESS context's scheduled inbound handoffs
        self._ess_handoffs_injected = 0
        if config.ess is not None:
            for offset, kind in config.ess.handoff_arrivals:
                self.sim.call_in(
                    offset, self._inject_ess_handoff, TrafficKind(kind)
                )
        if self.trace is not None:
            self._wire_trace(self.trace)
        # utilization-window bookkeeping for the adaptation feedback
        self._last_busy = 0.0
        self._last_feedback_time = 0.0

    def _inject_ess_handoff(self, kind: TrafficKind) -> None:
        self._ess_handoffs_injected += 1
        self.call_generator.inject_handoff(kind)

    def _wire_trace(self, trace) -> None:
        """Hand the recorder to each instrumented component whose
        category is wanted; everything else keeps ``trace = None`` so
        its hot path stays a single dead branch."""
        if trace.wants("frame"):
            self.channel.trace = trace
        if trace.wants("cfp"):
            self.ap.coordinator.trace = trace
        if trace.wants("token") and hasattr(self.ap, "policy"):
            self.ap.policy.trace = trace
        if trace.wants("admission") and hasattr(self.ap, "policy"):
            self.ap.trace = trace
        if trace.wants("backoff"):
            # call stations are created on the fly; the generator
            # stamps the recorder onto each new transmitter
            self.call_generator.trace = trace
            for station in self.data_stations:
                station.dcf.trace = trace
        if trace.wants("fault"):
            if self.frame_injector is not None:
                self.frame_injector.trace = trace
            if self.fault_driver is not None:
                self.fault_driver.trace = trace
        if trace.config.snapshot_interval > 0:
            self.metrics.start_snapshots(
                self.sim, trace.config.snapshot_interval
            )

    # -- construction helpers ----------------------------------------------------
    def _build_policy(self):
        cfg = self.config
        if cfg.scheme == "conventional":
            return StandardBEB(cw_min=32, cw_max=1024)
        if cfg.adaptive_cw:
            return AdaptiveCW(
                self.timing, alphas=cfg.alphas, beta=cfg.beta
            )
        return PriorityBackoff(alphas=cfg.alphas, beta=cfg.beta)

    def _build_ap(self):
        cfg = self.config
        if cfg.scheme == "conventional":
            return ConventionalAccessPoint(
                self.sim,
                self.channel,
                self.timing,
                self.nav,
                metrics=self.metrics,
            )
        multipoll = cfg.multipoll_size if cfg.scheme == "proposed-multipoll" else 1
        ap_cfg = QosApConfig(
            multipoll_size=multipoll,
            adaptation_interval=1.0 if cfg.adaptive_bandwidth else 0.0,
            voice_order=cfg.voice_order,
            txop_packets=cfg.txop_packets,
        )
        return QosAccessPoint(
            self.sim,
            self.channel,
            self.timing,
            self.nav,
            config=ap_cfg,
            feedback=self._feedback if cfg.adaptive_bandwidth else None,
            metrics=self.metrics,
        )

    def _call_mix(self) -> CallMixConfig:
        cfg = self.config
        return CallMixConfig(
            voice=cfg.voice,
            video=cfg.video,
            new_voice_rate=cfg.new_voice_rate * cfg.load,
            new_video_rate=cfg.new_video_rate * cfg.load,
            handoff_voice_rate=cfg.handoff_voice_rate * cfg.load,
            handoff_video_rate=cfg.handoff_video_rate * cfg.load,
            mean_holding=cfg.mean_holding,
            handoff_deadline=cfg.handoff_deadline,
            handoff_time=cfg.handoff_time,
        )

    def _build_data_stations(self) -> None:
        cfg = self.config
        for i in range(cfg.n_data_stations):
            sid = f"data/{i}"
            dcf = DcfTransmitter(
                self.sim,
                self.channel,
                self.timing,
                self._shared_policy,
                self.streams.blocks(f"dcf/{sid}"),
                sid,
                self.nav,
            )
            station = DataStation(
                self.sim,
                sid,
                dcf,
                self.ap.ap_id,
                on_packet_outcome=self.collector.packet_outcome,
            )
            source = PoissonDataSource(
                self.sim,
                sid,
                station.packet_arrival,
                self.streams.blocks(f"traffic/{sid}"),
                arrival_rate=cfg.data_msdus_per_station * cfg.load,
            )
            source.start()
            self.data_stations.append(station)

    # -- adaptation feedback --------------------------------------------------------
    def _window_utilization(self) -> float:
        now = self.sim.now
        busy = self.channel.busy_time
        if self.channel._busy_started is not None:
            busy += now - self.channel._busy_started
        span = now - self._last_feedback_time
        util = (busy - self._last_busy) / span if span > 0 else 0.0
        self._last_busy = busy
        self._last_feedback_time = now
        return min(1.0, max(0.0, util))

    def _feedback(self) -> tuple[float, float, float]:
        return self.collector.adaptation_sample(self._window_utilization())

    # -- fault telemetry ----------------------------------------------------
    def _fault_summary(self) -> dict[str, typing.Any]:
        """Degradation telemetry for a faulted run (results["faults"])."""
        ap = self.ap
        stats = ap.coordinator.stats
        # only the proposed AP evicts sessions
        evicting = isinstance(ap, QosAccessPoint)
        out: dict[str, typing.Any] = {
            "poll_retries": stats.poll_retries.value,
            "polls_lost": stats.polls_lost.value,
            "ghost_polls": stats.ghost_polls.value,
            "unreachable_nulls": stats.unreachable_nulls.value,
            "cf_ends_lost": stats.cf_ends_lost.value,
            "evictions": ap.evictions.value if evicting else 0,
            "readmissions": ap.readmissions.value if evicting else 0,
            "reclaimed_bandwidth": (
                ap.reclaimed_bandwidth.value if evicting else 0.0
            ),
        }
        if self.fault_driver is not None:
            out.update(
                station_crashes=self.fault_driver.crashes,
                station_freezes=self.fault_driver.freezes,
                station_recoveries=self.fault_driver.recoveries,
                station_faults_skipped=self.fault_driver.skipped,
            )
        if self.frame_injector is not None:
            out["frames_injected"] = dict(self.frame_injector.injected)
        model = self.channel.error_model
        if hasattr(model, "frames_in_bad"):
            out["channel_bad_fraction"] = model.frames_in_bad / max(
                1, model.frames_seen
            )
        if self.invariants is not None:
            out["qos_breaches"] = list(self.invariants.qos_breaches)
        return out

    # -- execution ---------------------------------------------------------------------
    def run(self) -> dict[str, typing.Any]:
        """Run to ``sim_time`` and summarize everything the figures need."""
        self.call_generator.start()
        self.sim.run(until=self.config.sim_time)
        return self.collect_results()

    def collect_results(self) -> dict[str, typing.Any]:
        """Summarize the run as one result row."""
        cfg = self.config
        measured = cfg.sim_time - cfg.warmup
        results = self.collector.summary()
        gen = self.call_generator
        results.update(
            {
                "scheme": cfg.scheme,
                "load": cfg.load,
                "normalized_load": cfg.normalized_load(self.timing),
                "seed": cfg.seed,
                "sim_time": cfg.sim_time,
                "warmup": cfg.warmup,
                "events_processed": self.sim.events_processed,
                "call_attempts_new": gen.attempts["new"],
                "call_attempts_handoff": gen.attempts["handoff"],
                "calls_admitted_new": gen.admitted["new"],
                "calls_admitted_handoff": gen.admitted["handoff"],
                "calls_blocked": gen.blocked,
                "calls_dropped": gen.dropped,
                "channel_busy_fraction": self.channel.utilization(cfg.sim_time),
                "goodput_utilization": self.collector.utilization(
                    measured, self.timing.data_rate
                ),
                "worst_video_delay": self.collector.worst_delay("video")
                or self.collector.worst_delay("ho-video"),
            }
        )
        if hasattr(self.ap, "admission"):
            results["analytic_voice_bounds"] = self.ap.admission.voice_bounds()
            results["analytic_video_bounds"] = self.ap.admission.video_bounds()
        if self.invariants is not None:
            results["invariant_violations"] = self.invariants.finalize(
                self.collector, cfg.sim_time
            )
        if cfg.faults is not None:
            # after finalize, so the QoS-breach degradation is included
            results["faults"] = self._fault_summary()
        if cfg.ess is not None:
            # only present on ESS cell shards, so single-BSS rows stay
            # byte-identical to the seed's
            results["ess"] = {
                "cell": cfg.ess.cell,
                "epoch": cfg.ess.epoch,
                "handoffs_scheduled": len(cfg.ess.handoff_arrivals),
                "handoffs_injected": self._ess_handoffs_injected,
            }
        if self.trace is not None:
            # only present on traced configs, so trace-free result rows
            # stay byte-identical to the seed's
            results["obs"] = {
                "trace_emitted": self.trace.emitted,
                "trace_buffered": len(self.trace),
                "trace_dropped": self.trace.dropped,
                "trace_counts": self.trace.counts_by_category(),
                "metrics_snapshots": len(self.metrics.snapshots),
            }
        return results
