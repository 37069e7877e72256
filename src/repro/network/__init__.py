"""Call-level dynamics, roaming calls, and full-BSS scenario assembly."""

from .bss import RT_PACKET_BITS, SCHEMES, BssScenario, ScenarioConfig
from .calls import ActiveCall, CallGenerator, CallMixConfig
from .mobility import ROAM_KINDS, EssCellContext, draw_roam_step

__all__ = [
    "CallGenerator",
    "CallMixConfig",
    "ActiveCall",
    "BssScenario",
    "ScenarioConfig",
    "SCHEMES",
    "RT_PACKET_BITS",
    "EssCellContext",
    "draw_roam_step",
    "ROAM_KINDS",
]
