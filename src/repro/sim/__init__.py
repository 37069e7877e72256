"""Discrete-event simulation kernel (substrate).

The paper's evaluation was built on the commercial Simscript II.5 tool;
this package is the from-scratch replacement: a deterministic
process-oriented DES kernel with one agenda of timers, generator
processes that yield numeric delays, interrupts and named random
streams — exactly what the 802.11 stack uses — plus the
``step_observer`` hook the validation monitors attach.
"""

from .engine import Simulator, TimerHandle
from .process import Interrupt, Process
from .rng import RandomStreams

__all__ = [
    "Simulator",
    "TimerHandle",
    "Process",
    "Interrupt",
    "RandomStreams",
]
