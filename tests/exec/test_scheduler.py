"""Property tests for the cost-aware scheduler — pure model, no processes.

Randomized point-cost vectors are list-scheduled through
``simulate_schedule`` and checked against the two scheduler
invariants:

* **LPT bound** — longest-first makespan never exceeds Graham's
  ``(4/3 - 1/(3m)) x OPT`` guarantee (OPT brute-forced on small
  instances) and the order-free ``total/m + max`` greedy bound on
  large random ones;
* **greedy dispatch** — no worker-second is idle while the queue is
  non-empty.

Plus unit coverage of the cost model's prior and its online
refinement reordering the pending tail.
"""

import itertools
import random
import types

import pytest

from repro.exec import CostModel, PointScheduler, simulate_schedule
from repro.network.bss import ScenarioConfig


def _brute_force_opt(costs, workers):
    """Exact minimum makespan by enumerating all worker assignments."""
    best = sum(costs)
    for assignment in itertools.product(range(workers), repeat=len(costs)):
        loads = [0.0] * workers
        for cost, worker in zip(costs, assignment):
            loads[worker] += cost
        best = min(best, max(loads))
    return best


def _random_costs(rng, n, scale=10.0):
    return [rng.uniform(0.01, scale) for _ in range(n)]


class TestMakespanBounds:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("workers", [2, 3])
    def test_lpt_within_graham_bound_of_optimum(self, seed, workers):
        rng = random.Random(seed)
        costs = _random_costs(rng, rng.randint(1, 8))
        opt = _brute_force_opt(costs, workers)
        result = simulate_schedule(costs, workers)
        bound = (4.0 / 3.0 - 1.0 / (3.0 * workers)) * opt
        assert result["makespan"] <= bound + 1e-9

    @pytest.mark.parametrize("seed", range(30))
    def test_greedy_bound_on_large_random_instances(self, seed):
        rng = random.Random(1000 + seed)
        workers = rng.randint(2, 8)
        costs = _random_costs(rng, rng.randint(1, 200))
        result = simulate_schedule(costs, workers)
        bound = sum(costs) / workers + max(costs)
        assert result["makespan"] <= bound + 1e-9

    def test_lpt_beats_fifo_on_the_classic_straggler_tail(self):
        # a long point submitted last would straggle grid order (a
        # makespan of 6); LPT front-loads it and the short points pack
        # the other worker
        costs = [1.0, 1.0, 1.0, 1.0, 4.0]
        lpt = simulate_schedule(costs, 2)["makespan"]
        assert lpt == pytest.approx(4.0)


class TestGreedyDispatch:
    @pytest.mark.parametrize("seed", range(30))
    def test_no_idle_worker_while_queue_nonempty(self, seed):
        rng = random.Random(2000 + seed)
        workers = rng.randint(1, 6)
        costs = _random_costs(rng, rng.randint(0, 60))
        result = simulate_schedule(costs, workers)
        assert result["idle_before_empty"] == pytest.approx(0.0)

    def test_idle_metric_detects_a_non_greedy_schedule(self):
        # sanity: the invariant metric is not vacuous — hand-build a
        # schedule where worker 1 sits idle while a point waits
        import repro.exec.scheduler as sched

        result = sched.simulate_schedule([2.0, 1.0], workers=1)
        # force both points onto one worker with a gap
        result["assignments"] = [(0, 0, 0.0, 2.0), (1, 0, 3.0, 4.0)]
        # recompute by hand: queue empties at t=3, worker idle 2..3
        t_empty = 3.0
        idle = 0.0
        cursor = 0.0
        for _i, _w, start, end in result["assignments"]:
            idle += max(0.0, min(start, t_empty) - cursor)
            cursor = max(cursor, end)
        assert idle == pytest.approx(1.0)


def _config(scheme="proposed", load=1.0, sim_time=10.0, ess=None):
    return types.SimpleNamespace(
        scheme=scheme, load=load, sim_time=sim_time, ess=ess
    )


class TestCostModel:
    def test_prior_scales_with_load_and_duration(self):
        model = CostModel()
        assert model.prior(_config(load=3.0)) > model.prior(_config(load=0.5))
        assert model.prior(_config(sim_time=60.0)) > model.prior(
            _config(sim_time=10.0)
        )

    def test_prior_counts_ess_handoff_arrivals(self):
        model = CostModel()
        shard = _config(
            ess=types.SimpleNamespace(handoff_arrivals=((1.0, "voice"),) * 8)
        )
        assert model.prior(shard) > model.prior(_config())

    def test_prior_works_on_real_scenario_configs(self):
        model = CostModel()
        light = ScenarioConfig(seed=1, sim_time=10.0, warmup=1.0, load=0.5)
        heavy = ScenarioConfig(seed=1, sim_time=10.0, warmup=1.0, load=3.0)
        assert model.estimate(heavy) > model.estimate(light)

    def test_observation_refines_cross_scheme_ordering(self):
        model = CostModel()
        a = _config(scheme="proposed", load=1.0)
        b = _config(scheme="conventional", load=1.1)
        # prior says b is costlier...
        assert model.estimate(b) > model.estimate(a)
        # ...until observed walls say scheme "proposed" runs 10x slower
        for _ in range(5):
            model.observe(a, wall=10.0 * model.prior(a))
            model.observe(b, wall=1.0 * model.prior(b))
        assert model.estimate(a) > model.estimate(b)

    def test_zero_wall_and_zero_prior_observations_are_ignored(self):
        model = CostModel()
        model.observe(_config(), wall=0.0)
        model.observe(_config(sim_time=0.0, load=0.0), wall=1.0)
        assert model.observations == 1  # only the valid one counted


class TestPointScheduler:
    def test_cost_policy_pops_longest_expected_first(self):
        scheduler = PointScheduler()
        scheduler.add(0, _config(load=0.5))
        scheduler.add(1, _config(load=3.0))
        scheduler.add(2, _config(load=1.0))
        order = [scheduler.pop()[0] for _ in range(3)]
        assert order == [1, 2, 0]

    def test_ties_resolve_in_arrival_order(self):
        scheduler = PointScheduler()
        for i in range(4):
            scheduler.add(i, _config())
        assert [scheduler.pop()[0] for _ in range(4)] == [0, 1, 2, 3]

    def test_online_refinement_reorders_the_pending_tail(self):
        scheduler = PointScheduler()
        scheduler.add(0, _config(scheme="proposed", load=1.0))
        scheduler.add(1, _config(scheme="conventional", load=1.1))
        # completed "proposed" points came back 10x over their prior —
        # the still-pending proposed point must now dispatch first
        probe = _config(scheme="proposed")
        for _ in range(5):
            scheduler.observe(probe, wall=10.0 * scheduler.model.prior(probe))
        assert scheduler.pop()[0] == 0

    def test_duplicate_pending_index_rejected(self):
        scheduler = PointScheduler()
        scheduler.add(0, _config())
        with pytest.raises(ValueError):
            scheduler.add(0, _config())

    def test_pop_from_empty_raises(self):
        with pytest.raises(IndexError):
            PointScheduler().pop()

    def test_unknown_policy_rejected(self):
        # one dispatch order is left, so neither takes a policy
        with pytest.raises(TypeError):
            PointScheduler("fifo")
        with pytest.raises(TypeError):
            simulate_schedule([1.0], 2, policy="fifo")
        with pytest.raises(ValueError):
            simulate_schedule([1.0], 0)
