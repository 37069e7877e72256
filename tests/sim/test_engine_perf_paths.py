"""Hot-path invariants of the overhauled kernel.

Covers what the inlined run() loop must preserve: tombstone compaction
under cancel/reschedule storms, same-timestamp batching vs the
(priority, insertion order) contract, deadline checks routed through a
tombstoned agenda head, live-fire-only ``events_processed`` accounting,
and process wake-ups on the timer agenda (what a process observes must
not change under load or interrupts).
"""

import numpy as np
import pytest

from repro.sim import Simulator
from repro.sim.engine import _COMPACT_MIN_TOMBSTONES


class TestTombstoneCompaction:
    def test_storm_fires_exactly_the_survivors_in_order(self):
        rng = np.random.default_rng(1234)
        sim = Simulator()
        fired = []
        handles = []
        for i in range(5_000):
            t = float(rng.uniform(0.0, 100.0))
            handles.append((t, i, sim.call_at(t, fired.append, (t, i))))
        order = rng.permutation(len(handles))
        cancelled = set(int(k) for k in order[:4_000])
        for k in cancelled:
            handles[k][2].cancel()
        sim.run()
        expected = sorted(
            (t, i) for t, i, _h in handles
            if i not in cancelled
        )
        assert fired == expected
        assert sim.events_processed == 1_000

    def test_compaction_keeps_heap_small_under_churn(self):
        sim = Simulator()
        for round_ in range(50):
            handles = [
                sim.call_at(sim.now + 1.0 + i * 1e-3, lambda: None)
                for i in range(200)
            ]
            for handle in handles[:-1]:
                handle.cancel()
            # cancelled mass crosses the threshold, so the agenda never
            # accumulates round after round of tombstones
            assert len(sim._heap) <= 2 * (round_ + 1) + 2 * _COMPACT_MIN_TOMBSTONES
            sim.run(until=sim.now + 0.5)
        sim.run()

    def test_cancel_during_run_compacts_safely(self):
        # compaction must happen in place: run() holds a local alias of
        # the heap, and a cancellation storm fired *from a callback*
        # triggers compaction mid-loop
        sim = Simulator()
        fired = []
        victims = [
            sim.call_at(10.0 + i * 1e-6, fired.append, i) for i in range(200)
        ]

        def massacre():
            for v in victims[1:]:
                v.cancel()

        sim.call_at(5.0, massacre)
        sim.run()
        assert fired == [0]
        assert sim.events_processed == 2  # massacre + the one survivor

    def test_reschedule_pattern_preserves_semantics(self):
        # cancel-then-reschedule (the DCF freeze/resume idiom) at scale
        rng = np.random.default_rng(7)
        sim = Simulator()
        fired = []
        state = {}

        def fire(key):
            fired.append((sim.now, key))

        for i in range(300):
            state[i] = sim.call_at(float(rng.uniform(1, 5)), fire, i)
        for _ in range(10):
            for i in rng.permutation(300)[:200]:
                i = int(i)
                state[i].cancel()
                state[i] = sim.call_at(
                    sim.now + float(rng.uniform(1, 5)), fire, i
                )
        sim.run()
        assert len(fired) == 300
        assert fired == sorted(fired, key=lambda pair: pair[0])
        assert sim.events_processed == 300


class TestSameTimestampBatching:
    def test_priority_then_insertion_order_within_batch(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, seen.append, "c", priority=1)
        sim.call_at(1.0, seen.append, "a", priority=-1)
        sim.call_at(1.0, seen.append, "b", priority=0)
        sim.call_at(1.0, seen.append, "d", priority=1)
        sim.run()
        assert seen == ["a", "b", "c", "d"]

    def test_batch_spawned_same_instant_work_runs_in_the_batch(self):
        sim = Simulator()
        seen = []

        def spawn():
            seen.append("parent")
            sim.call_at(sim.now, seen.append, "child")

        sim.call_at(2.0, spawn)
        sim.call_at(2.0, seen.append, "sibling")
        sim.run()
        assert seen == ["parent", "sibling", "child"]
        assert sim.now == 2.0

    def test_storm_matches_single_step_reference(self):
        # the batched fast loop and the instrumented step()-by-step
        # path must produce identical firing orders
        def build(sim, log):
            rng = np.random.default_rng(99)
            times = rng.integers(0, 20, size=400) * 0.5
            prios = rng.integers(-2, 3, size=400)
            for i in range(400):
                sim.call_at(
                    float(times[i]), log.append, i, priority=int(prios[i])
                )

        fast_sim, fast_log = Simulator(), []
        build(fast_sim, fast_log)
        fast_sim.run()

        slow_sim, slow_log = Simulator(), []
        build(slow_sim, slow_log)
        slow_sim.step_observer = lambda t: None  # force instrumented path
        slow_sim.run()

        assert fast_log == slow_log
        assert fast_sim.events_processed == slow_sim.events_processed == 400


class TestDeadlineOverTombstones:
    def test_cancelled_head_does_not_mask_the_deadline(self):
        # regression: the deadline check must look at the next *live*
        # entry — a tombstone in front of it is popped, not compared
        sim = Simulator()
        seen = []
        doomed = sim.call_at(1.0, seen.append, "doomed")
        sim.call_at(2.0, seen.append, "live")
        doomed.cancel()
        sim.run(until=1.5)
        assert seen == []
        assert sim.now == 1.5
        assert sim.peek() == 2.0
        sim.run()
        assert seen == ["live"]

    def test_tombstones_beyond_deadline_are_left_alone(self):
        sim = Simulator()
        handle = sim.call_at(10.0, lambda: None)
        handle.cancel()
        sim.run(until=1.0)
        assert sim.now == 1.0
        assert sim.peek() == float("inf")

    def test_deadline_exactly_on_live_entry_after_tombstones(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.call_at(3.0, seen.append, i).cancel()
        sim.call_at(3.0, seen.append, "live")
        sim.run(until=3.0)
        assert seen == ["live"]


class TestEventsProcessedAccounting:
    def test_counts_live_fires_only(self):
        sim = Simulator()
        handles = [sim.call_at(1.0 + i, lambda: None) for i in range(10)]
        for handle in handles[:4]:
            handle.cancel()
        sim.run()
        assert sim.events_processed == 6

    def test_cancelled_after_fire_does_not_underflow(self):
        sim = Simulator()
        handle = sim.call_at(1.0, lambda: None)
        sim.run()
        handle.cancel()  # no heap entry behind it anymore
        sim.call_at(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2

    def test_profiled_run_counts_identically(self):
        plain = Simulator()
        for i in range(20):
            h = plain.call_at(1.0 + i, lambda: None)
            if i % 3 == 0:
                h.cancel()
        plain.run()

        # a step_observer sends the run through the instrumented loop
        observed = []
        instrumented = Simulator()
        instrumented.step_observer = observed.append
        for i in range(20):
            h = instrumented.call_at(1.0 + i, lambda: None)
            if i % 3 == 0:
                h.cancel()
        instrumented.run()

        assert instrumented.events_processed == plain.events_processed
        assert len(observed) == plain.events_processed


class TestTimeoutFreeList:
    """Numeric yields at volume, and interrupts that leave stale wake-ups."""

    def test_numeric_yields_recycle_but_never_lie(self):
        sim = Simulator()
        observed = []

        def worker(period, steps):
            for _ in range(steps):
                yield period
                observed.append(sim.now)

        sim.process(worker(0.5, 1_000))
        sim.run()
        assert len(observed) == 1_000
        assert observed[0] == pytest.approx(0.5)
        assert observed[-1] == pytest.approx(500.0)

    def test_interrupt_storm_does_not_corrupt_the_pool(self):
        from repro.sim.process import Interrupt

        sim = Simulator()
        outcomes = []

        def sleeper():
            try:
                yield 10.0
                outcomes.append("slept")
            except Interrupt:
                outcomes.append("interrupted")
                yield 0.5
                outcomes.append("recovered")

        procs = [sim.process(sleeper()) for _ in range(50)]
        for k, proc in enumerate(procs):
            if k % 2 == 0:
                sim.call_at(1.0 + k * 1e-3, proc.interrupt)
        sim.run()
        assert outcomes.count("interrupted") == 25
        assert outcomes.count("recovered") == 25
        assert outcomes.count("slept") == 25
