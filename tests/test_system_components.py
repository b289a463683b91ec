"""Unit tests for Coordinator, Selector, AggregatorNode and CohortDispatcher
in isolation."""

import pytest

from repro.core import TaskConfig, TrainingMode
from repro.sim import MetricsTrace, Simulator
from repro.system import SurrogateAdapter
from repro.system.adapters import TrainerAdapter
from repro.system.aggregator import AggregatorNode
from repro.system.client_runtime import CohortDispatcher, PendingTraining
from repro.system.coordinator import Coordinator
from repro.system.planes import PlaneContext, SinglePlane
from repro.system.selector import Selector
from repro.utils import EventLog, child_rng


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def log():
    return EventLog()


def make_runtime(sim, log, name="t", concurrency=10, goal=2, mode=TrainingMode.ASYNC):
    cfg = TaskConfig(name=name, mode=mode, concurrency=concurrency,
                     aggregation_goal=goal, model_size_bytes=1000)
    adapter = SurrogateAdapter(seed=0)
    return SinglePlane().build(PlaneContext(
        cfg, adapter, sim, MetricsTrace(), log, lambda: None,
        CohortDispatcher(adapter),
    ))


def make_coordinator(sim, log, n_aggs=2):
    coord = Coordinator(sim, log, child_rng(0, "coord-test"),
                        heartbeat_interval_s=5.0, heartbeat_miss_limit=2)
    nodes = [AggregatorNode(i, sim, log) for i in range(n_aggs)]
    for n in nodes:
        coord.register_aggregator(n)
    return coord, nodes


class TestCoordinatorPlacement:
    def test_task_placed_on_least_loaded(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        rt1 = make_runtime(sim, log, "big", concurrency=100)
        rt2 = make_runtime(sim, log, "small", concurrency=5)
        coord.register_task(rt1)
        coord.register_task(rt2)
        # The second task must land on the node NOT hosting the big task.
        assert rt1.node is not rt2.node

    def test_placement_bumps_sequence(self, sim, log):
        coord, _ = make_coordinator(sim, log)
        seq0 = coord.assignment_seq
        coord.register_task(make_runtime(sim, log))
        assert coord.assignment_seq == seq0 + 1

    def test_no_live_aggregator_raises(self, sim, log):
        coord, nodes = make_coordinator(sim, log, n_aggs=1)
        nodes[0].fail()
        with pytest.raises(RuntimeError):
            coord.register_task(make_runtime(sim, log))

    def test_invalid_heartbeat_params(self, sim, log):
        with pytest.raises(ValueError):
            Coordinator(sim, log, child_rng(0, "x"), heartbeat_interval_s=0)


class TestCoordinatorAssignment:
    def test_assignment_respects_demand(self, sim, log):
        coord, _ = make_coordinator(sim, log)
        rt = make_runtime(sim, log, concurrency=2)
        coord.register_task(rt)
        assert coord.assign_client() is rt
        assert coord.assign_client() is rt
        # Demand exhausted (2 pending assignments == concurrency).
        assert coord.assign_client() is None
        assert coord.assignments_made == 2
        assert coord.assignments_rejected == 1

    def test_pending_assignments_counted(self, sim, log):
        coord, _ = make_coordinator(sim, log)
        rt = make_runtime(sim, log, concurrency=5)
        coord.register_task(rt)
        coord.assign_client()
        assert rt.pending_assignments == 1
        assert rt.demand() == 4

    def test_compatibility_filter(self, sim, log):
        coord, _ = make_coordinator(sim, log)
        rt = make_runtime(sim, log, name="lm")
        coord.register_task(rt)
        assert coord.assign_client(compatible_tasks=["other"]) is None
        assert coord.assign_client(compatible_tasks=["lm"]) is rt

    def test_dead_coordinator_rejects(self, sim, log):
        coord, _ = make_coordinator(sim, log)
        coord.register_task(make_runtime(sim, log))
        coord.fail()
        assert coord.assign_client() is None
        assert not coord.accepting_assignments

    def test_recovery_period_blocks_then_allows(self, sim, log):
        coord, _ = make_coordinator(sim, log)
        coord.register_task(make_runtime(sim, log))
        coord.fail()
        coord.recover()
        assert coord.assign_client() is None  # inside the recovery window
        sim.schedule(60.0, lambda: None)
        sim.run_until_idle()
        assert coord.assign_client() is not None

    def test_task_on_dead_node_not_eligible(self, sim, log):
        coord, nodes = make_coordinator(sim, log, n_aggs=1)
        rt = make_runtime(sim, log)
        coord.register_task(rt)
        nodes[0].alive = False
        assert coord.assign_client() is None


class TestCoordinatorFailureSweep:
    def test_missed_heartbeats_trigger_reassignment(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        rt = make_runtime(sim, log)
        coord.register_task(rt)
        host = rt.node
        other = nodes[1 - host.node_id]
        # Time passes with no heartbeats from the host.
        sim.schedule(60.0, lambda: None)
        sim.run_until_idle()
        coord.on_heartbeat(other, {})
        moved = coord.sweep_failures()
        assert moved == [rt.config.name]
        assert rt.node is other
        assert not host.alive

    def test_healthy_nodes_untouched(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        rt = make_runtime(sim, log)
        coord.register_task(rt)
        for n in nodes:
            coord.on_heartbeat(n, {})
        assert coord.sweep_failures() == []
        assert rt.node.alive

    def test_sweep_skips_when_coordinator_dead(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        coord.register_task(make_runtime(sim, log))
        coord.fail()
        nodes[0].fail()
        assert coord.sweep_failures() == []


class TestOverloadRebalancing:
    def _overload(self, node, rt, depth):
        class FakeSession:
            device_id = 1

        for _ in range(depth):
            node.enqueue_update(rt, FakeSession(), None)

    def test_overloaded_node_sheds_lightest_task(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        # Both tasks land on different nodes; force them onto node 0.
        heavy = make_runtime(sim, log, "heavy", concurrency=100)
        light = make_runtime(sim, log, "light", concurrency=2)
        coord.register_task(heavy)
        host = heavy.node
        other = nodes[1 - host.node_id]
        coord.register_task(light)
        moved_to_host = light.node is host
        if not moved_to_host:
            # Make them cohabit for the test.
            light.node.drop_task("light")
            light.place_shard(0, host)
        host.update_process_time_s = 10.0
        self._overload(host, heavy, 20)
        moved = coord.rebalance_overloaded(queue_threshold_s=5.0)
        assert moved == ["light"]
        assert light.node is other
        assert heavy.node is host

    def test_planned_move_preserves_core_state(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        a = make_runtime(sim, log, "a", concurrency=50)
        b = make_runtime(sim, log, "b", concurrency=2)
        coord.register_task(a)
        host = a.node
        coord.register_task(b)
        if b.node is not host:
            b.node.drop_task("b")
            b.place_shard(0, host)
        b.core.register_download(7)  # in-flight client must survive the move
        host.update_process_time_s = 10.0
        self._overload(host, a, 20)
        coord.rebalance_overloaded(queue_threshold_s=5.0)
        assert b.core.in_flight_count() == 1  # planned move: nothing lost

    def test_no_rebalance_below_threshold(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        coord.register_task(make_runtime(sim, log, "a"))
        coord.register_task(make_runtime(sim, log, "b"))
        assert coord.rebalance_overloaded(queue_threshold_s=5.0) == []

    def test_single_task_node_never_sheds(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        rt = make_runtime(sim, log, "only")
        coord.register_task(rt)
        host = rt.node
        host.update_process_time_s = 10.0
        self._overload(host, rt, 50)
        assert coord.rebalance_overloaded(queue_threshold_s=5.0) == []
        assert rt.node is host


class TestSelector:
    def test_fresh_map_no_retry(self, sim, log):
        coord, _ = make_coordinator(sim, log)
        coord.register_task(make_runtime(sim, log))
        sel = Selector(0, sim, coord, log)
        sel.refresh_map()
        rt, extra = sel.route_checkin()
        assert rt is not None and extra == 0.0
        assert sel.stale_map_retries == 0

    def test_stale_map_costs_retry_then_refreshes(self, sim, log):
        coord, _ = make_coordinator(sim, log)
        sel = Selector(0, sim, coord, log)
        coord.register_task(make_runtime(sim, log))  # bumps the map seq
        assert sel.map_is_stale
        rt, extra = sel.route_checkin()
        assert extra > 0.0
        assert sel.stale_map_retries == 1
        assert not sel.map_is_stale
        _, extra2 = sel.route_checkin()
        assert extra2 == 0.0

    def test_routing_counter(self, sim, log):
        coord, _ = make_coordinator(sim, log)
        coord.register_task(make_runtime(sim, log))
        sel = Selector(0, sim, coord, log)
        sel.refresh_map()
        for _ in range(3):
            sel.route_checkin()
        assert sel.checkins_routed == 3


class TestAggregatorNode:
    def test_workload_estimate(self, sim, log):
        node = AggregatorNode(0, sim, log)
        rt = make_runtime(sim, log, concurrency=10)
        rt.place_shard(0, node)
        assert node.estimated_workload() == 10 * 1000

    def test_queueing_serializes_busy_drain_threads(self, sim, log):
        node = AggregatorNode(0, sim, log, drain_threads=1, update_process_time_s=1.0)
        rt = make_runtime(sim, log, goal=10)
        rt.place_shard(0, node)

        class FakeSession:
            device_id = 1

        # Two updates arriving together on one drain thread: the second waits.
        node.enqueue_update(rt, FakeSession(), None)
        node.enqueue_update(rt, FakeSession(), None)
        assert node.queue_depth_seconds() == pytest.approx(2.0)

    def test_parallel_drain_threads_absorb_burst(self, sim, log):
        node = AggregatorNode(0, sim, log, drain_threads=4, update_process_time_s=1.0)
        rt = make_runtime(sim, log, goal=10)
        rt.place_shard(0, node)

        class FakeSession:
            device_id = 1

        for _ in range(4):
            node.enqueue_update(rt, FakeSession(), None)
        assert node.queue_depth_seconds() == pytest.approx(1.0)

    def test_drop_task(self, sim, log):
        node = AggregatorNode(0, sim, log)
        rt = make_runtime(sim, log)
        rt.place_shard(0, node)
        assert node.drop_task(rt.config.name) is rt
        assert node.drop_task("missing") is None

    def test_invalid_args(self, sim, log):
        with pytest.raises(ValueError):
            AggregatorNode(0, sim, log, drain_threads=0)
        with pytest.raises(ValueError):
            AggregatorNode(0, sim, log, update_process_time_s=-1)

    def test_recover_resets_shards(self, sim, log):
        node = AggregatorNode(0, sim, log, drain_threads=1, update_process_time_s=1.0)
        rt = make_runtime(sim, log)
        rt.place_shard(0, node)

        class FakeSession:
            device_id = 1

        node.enqueue_update(rt, FakeSession(), None)
        node.fail()
        node.recover()
        assert node.alive
        assert node.queue_depth_seconds() == 0.0


class TestTaskRuntimeDemand:
    def test_async_demand_formula(self, sim, log):
        rt = make_runtime(sim, log, concurrency=10)
        assert rt.demand() == 10
        rt.pending_assignments = 3
        assert rt.demand() == 7

    def test_sync_demand_capped_by_concurrency(self, sim, log):
        rt = make_runtime(sim, log, concurrency=4, goal=10, mode=TrainingMode.SYNC)
        assert rt.demand() <= 4


class TestSystemConfigDrainThreadsRename:
    """``drain_threads`` is the per-node queue-drain pool size."""

    def test_drain_threads_is_the_field(self):
        from repro.system import SystemConfig

        cfg = SystemConfig(drain_threads=7)
        assert cfg.drain_threads == 7

    def test_drain_threads_validated(self):
        from repro.system import SystemConfig

        with pytest.raises(ValueError, match="drain_threads"):
            SystemConfig(drain_threads=0)

    def test_node_drain_threads_flow_from_config(self, sim, log):
        from repro.sim import DevicePopulation, PopulationConfig
        from repro.system import FederatedSimulation, SystemConfig

        pop = DevicePopulation(PopulationConfig(n_devices=50), seed=0)
        cfg = TaskConfig(name="t", mode=TrainingMode.ASYNC, concurrency=8,
                         aggregation_goal=4, model_size_bytes=1000)
        fs = FederatedSimulation(
            [(cfg, SurrogateAdapter(seed=0))], pop,
            system=SystemConfig(drain_threads=2), seed=0,
        )
        assert all(node.drain_threads == 2 for node in fs.aggregators)


class _RecordingAdapter(TrainerAdapter):
    """Each result is the participation number; records every batch."""

    state = None

    def __init__(self):
        self.batches: list[list[int]] = []

    def train(self, profile, initial_model, initial_version, participation):
        return participation

    def train_cohort(self, profiles, initial_models, initial_versions, participations):
        self.batches.append(list(participations))
        return super().train_cohort(profiles, initial_models, initial_versions,
                                    participations)

    def current_loss(self):
        return 0.0


def park(dispatcher, count):
    return [dispatcher.submit(None, None, 0, i) for i in range(count)]


class TestCohortDispatcher:
    def test_fifo_drain_includes_required(self):
        adapter = _RecordingAdapter()
        cohort = CohortDispatcher(adapter, max_cohort=3)
        items = park(cohort, 5)
        assert cohort.resolve(items[0]) == 0
        assert adapter.batches == [[0, 1, 2]]
        assert [p.result for p in items] == [0, 1, 2, None, None]
        assert len(cohort) == 2
        assert cohort.resolve(items[1]) == 1  # already computed: no new batch
        assert adapter.batches == [[0, 1, 2]]

    def test_required_beyond_limit_replaces_last_slot(self):
        adapter = _RecordingAdapter()
        cohort = CohortDispatcher(adapter, max_cohort=2)
        items = park(cohort, 5)
        assert cohort.resolve(items[4]) == 4
        assert adapter.batches == [[0, 4]]
        assert len(cohort) == 3  # items 1, 2, 3 remain
        cohort.resolve(items[3])
        assert adapter.batches == [[0, 4], [1, 3]]

    def test_default_cap_trains_one_by_one(self):
        adapter = _RecordingAdapter()
        cohort = CohortDispatcher(adapter)
        items = park(cohort, 3)
        for item in reversed(items):
            cohort.resolve(item)
        assert adapter.batches == [[2], [1], [0]]
        assert (cohort.batches_run, cohort.trainings_run) == (3, 3)

    def test_discard_removes_only_that_item(self):
        adapter = _RecordingAdapter()
        cohort = CohortDispatcher(adapter, max_cohort=4)
        a, b = park(cohort, 2)
        cohort.discard(a)
        cohort.discard(a)  # already gone: no-op
        assert len(cohort) == 1
        cohort.resolve(b)
        assert adapter.batches == [[1]]
        assert a.result is None

    def test_resolve_unparked_raises(self):
        cohort = CohortDispatcher(_RecordingAdapter())
        park(cohort, 1)
        with pytest.raises(ValueError):
            cohort.resolve(PendingTraining(None, None, 0, 9))

    def test_resolve_discarded_raises(self):
        cohort = CohortDispatcher(_RecordingAdapter())
        (item,) = park(cohort, 1)
        cohort.discard(item)
        with pytest.raises(ValueError):
            cohort.resolve(item)

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            CohortDispatcher(_RecordingAdapter(), max_cohort=0)

    def test_identity_not_equality(self):
        # Two trainings with equal inputs are tracked separately.
        adapter = _RecordingAdapter()
        cohort = CohortDispatcher(adapter, max_cohort=4)
        a = cohort.submit(None, None, 0, 7)
        b = cohort.submit(None, None, 0, 7)
        cohort.discard(a)
        assert len(cohort) == 1
        cohort.resolve(b)
        assert adapter.batches == [[7]]
        assert (a.result, b.result) == (None, 7)

    def test_runtime_built_without_one_gets_a_cap_1_dispatcher(self, sim, log):
        rt = make_runtime(sim, log)
        assert isinstance(rt.cohort, CohortDispatcher)
        assert rt.cohort.adapter is rt.adapter
        assert rt.cohort.max_cohort == 1
