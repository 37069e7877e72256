"""Traffic substrate: data/voice/video sources and leaky-bucket tools."""

from .base import RT_PACKET_BITS, Packet, TrafficKind, TrafficSource
from .data import PoissonDataSource
from .leaky_bucket import LeakyBucket, conforms, tightest_sigma
from .video import MaglarisVideoSource, VideoParams
from .voice import OnOffVoiceSource, VoiceParams

__all__ = [
    "RT_PACKET_BITS",
    "Packet",
    "TrafficKind",
    "TrafficSource",
    "PoissonDataSource",
    "OnOffVoiceSource",
    "VoiceParams",
    "MaglarisVideoSource",
    "VideoParams",
    "LeakyBucket",
    "tightest_sigma",
    "conforms",
]
