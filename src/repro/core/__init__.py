"""The paper's contribution: priority backoff, adaptive CW, token-based
transmit permission, theorem-based admission, adaptive bandwidth, and
the QoS access point that composes them."""

from .adaptive_cw import AdaptiveCW
from .admission import AdmissionController, Session, rt_exchange_time
from .bandwidth import AdaptiveBandwidthManager
from .edcf import AifsDifferentiation, CwDifferentiation
from .erlang import erlang_b, erlang_b_inverse_capacity, offered_load
from .capacity import (
    bianchi_tau,
    estimate_stations,
    failure_probability,
    optimal_attempt_probability,
    optimal_cw,
    saturation_throughput,
)
from .priority_backoff import PriorityBackoff
from .qos_ap import QosAccessPoint, QosApConfig
from .schedulability import (
    VideoFlow,
    VoiceFlow,
    optimal_voice_order,
    total_waiting_time,
    video_delay_bound,
    video_rate_latency,
    video_schedulable,
    voice_response_bound,
    voice_schedulable,
)
from .token_policy import TokenPolicy, TokenState

__all__ = [
    "PriorityBackoff",
    "CwDifferentiation",
    "AifsDifferentiation",
    "erlang_b",
    "erlang_b_inverse_capacity",
    "offered_load",
    "AdaptiveCW",
    "bianchi_tau",
    "failure_probability",
    "saturation_throughput",
    "optimal_attempt_probability",
    "optimal_cw",
    "estimate_stations",
    "VoiceFlow",
    "VideoFlow",
    "voice_response_bound",
    "voice_schedulable",
    "video_rate_latency",
    "video_delay_bound",
    "video_schedulable",
    "optimal_voice_order",
    "total_waiting_time",
    "AdmissionController",
    "Session",
    "rt_exchange_time",
    "TokenPolicy",
    "TokenState",
    "AdaptiveBandwidthManager",
    "QosAccessPoint",
    "QosApConfig",
]
