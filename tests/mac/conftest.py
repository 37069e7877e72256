"""Shared fixtures/helpers for MAC tests."""

import numpy as np
import pytest

from repro.mac import BackoffPolicy, Nav
from repro.phy import BitErrorModel, Channel, PhyTiming
from repro.sim import RandomStreams, Simulator


class DrawOnlyBackoff(BackoffPolicy):
    """Deterministic policy: pops preset slot counts (then repeats last).

    It observes no idle slots, so no busy transition reports any.
    """

    def __init__(self, slots):
        self.slots = list(slots)
        self.draws = []
        self.outcomes = []

    def draw_slots(self, level, stage, rng):
        value = self.slots.pop(0) if len(self.slots) > 1 else self.slots[0]
        self.draws.append((level, stage, value))
        return value

    def observe_outcome(self, success):
        self.outcomes.append(success)


class FixedBackoff(DrawOnlyBackoff):
    """:class:`DrawOnlyBackoff` that also records its slot observations.

    Each busy transition reports the slots its countdown counted.
    """

    def __init__(self, slots):
        super().__init__(slots)
        self.observed = []

    def observe_slots(self, idle_slots, busy_events):
        self.observed.append((idle_slots, busy_events))


class MacWorld:
    """A simulator + channel + timing bundle with helpers."""

    def __init__(self, ber=0.0, seed=0):
        self.sim = Simulator()
        self.timing = PhyTiming()
        self.streams = RandomStreams(seed)
        self.channel = Channel(
            self.sim, BitErrorModel(ber, self.streams.get("channel"))
        )
        self.nav = Nav()

    def rng(self, name):
        return self.streams.get(name)


@pytest.fixture
def world():
    return MacWorld()


@pytest.fixture
def noisy_world():
    return MacWorld(ber=2e-4, seed=3)
