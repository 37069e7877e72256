"""Deterministic fault injection for the simulated BSS.

The subsystem splits into a *description* layer and three *execution*
layers:

* :mod:`repro.faults.plan` — :class:`FaultPlan` and its parts: the
  serializable description that rides inside a
  :class:`~repro.network.bss.ScenarioConfig` (and hence inside the
  execution subsystem's content-addressed cache keys);
* :mod:`repro.faults.gilbert` — the two-state Gilbert–Elliott bursty
  channel error model (drop-in for
  :class:`~repro.phy.error_model.BitErrorModel`);
* :mod:`repro.faults.injector` — frame-type-targeted loss (lose
  CF-Polls, ACKs, CF-End specifically);
* :mod:`repro.faults.stations` — scheduled station crash/freeze/recover
  faults.

Every injector draws from its own seeded RNG stream (``faults/channel``,
``faults/frames``, ``faults/stations``) so faulted runs are bit-for-bit
reproducible and fault-free runs see exactly the seed's draw sequences.

The package is part of the model: it imports only ``mac``, ``obs``,
``sim`` and ``traffic``.  The ``python -m repro chaos`` soak harness
that sweeps named fault mixes lives in :mod:`repro.validate.chaos`.
"""

from .gilbert import GilbertElliottModel
from .injector import FrameLossInjector
from .plan import (
    FAULT_KINDS,
    FAULT_MODES,
    ApFault,
    FaultPlan,
    FrameLossRule,
    GilbertElliottParams,
    LinkFault,
    StationFault,
)
from .stations import StationFaultDriver

__all__ = [
    "FaultPlan",
    "GilbertElliottParams",
    "FrameLossRule",
    "StationFault",
    "LinkFault",
    "ApFault",
    "FAULT_MODES",
    "FAULT_KINDS",
    "GilbertElliottModel",
    "FrameLossInjector",
    "StationFaultDriver",
]
