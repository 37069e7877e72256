"""Discrete-event simulation kernel (substrate).

The paper's evaluation was built on the commercial Simscript II.5 tool;
this package is the from-scratch replacement: a deterministic
process-oriented DES kernel with timers, events, generator processes,
interrupts and named random streams — exactly what the 802.11 stack
uses — plus the ``step_observer`` hook the validation monitors attach.
"""

from .engine import Simulator, StopSimulation, TimerHandle
from .events import Event, EventAlreadyTriggered, Timeout
from .process import Interrupt, Process
from .rng import RandomStreams

__all__ = [
    "Simulator",
    "StopSimulation",
    "TimerHandle",
    "Event",
    "Timeout",
    "EventAlreadyTriggered",
    "Process",
    "Interrupt",
    "RandomStreams",
]
