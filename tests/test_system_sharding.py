"""System wiring of the sharded aggregation plane.

Covers shard placement across aggregator nodes, per-shard demand
reports, upload routing to the shard's host, shard failover through the
heartbeat/sweep machinery (partial state loss, slice re-routing,
re-placement and the no-capacity/recovery path), the rebalance
interaction, and the SystemConfig knobs.
"""

import numpy as np
import pytest

from repro.core import TaskConfig, TrainingMode
from repro.core.fedbuff import FedBuffAggregator
from repro.core.syncfl import SyncRoundAggregator
from repro.sim import MetricsTrace, Simulator
from repro.sim.faults import FaultInjector
from repro.sim.network import NetworkModel
from repro.sim.population import DevicePopulation, PopulationConfig
from repro.system import SurrogateAdapter
from repro.system.aggregator import AggregatorNode
from repro.system.client_runtime import ClientSession, CohortDispatcher
from repro.system.coordinator import Coordinator
from repro.system.orchestrator import FederatedSimulation, SystemConfig
from repro.system.planes import PlaneContext, ShardedPlane, SinglePlane
from repro.utils import EventLog, child_rng


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def log():
    return EventLog()


def plane_context(sim, log, cfg):
    adapter = SurrogateAdapter(seed=0)
    return PlaneContext(cfg, adapter, sim, MetricsTrace(), log, lambda: None,
                        CohortDispatcher(adapter))


def make_sharded_runtime(sim, log, name="t", concurrency=12, goal=4,
                         num_shards=4, shard_routing="hash"):
    cfg = TaskConfig(name=name, mode=TrainingMode.ASYNC, concurrency=concurrency,
                     aggregation_goal=goal, model_size_bytes=1000)
    return ShardedPlane(num_shards, shard_routing).build(plane_context(sim, log, cfg))


def make_coordinator(sim, log, n_aggs=2):
    coord = Coordinator(sim, log, child_rng(0, "sharding-test"),
                        heartbeat_interval_s=5.0, heartbeat_miss_limit=2)
    nodes = [AggregatorNode(i, sim, log) for i in range(n_aggs)]
    for n in nodes:
        coord.register_aggregator(n)
    return coord, nodes


def park_training(rt, session):
    """Park ``session``'s training the way its training-complete event does."""
    session._pending = rt.cohort.submit(session.profile, None, rt.core.version, 0)
    return session._pending


def attach_session(sim, rt, device_id):
    pop = DevicePopulation(PopulationConfig(n_devices=device_id + 1), seed=0)
    session = ClientSession(
        profile=pop.profile(device_id), task_rt=rt, sim=sim,
        network=NetworkModel(), population=pop, trace=rt.trace,
        participation=0, failure_detection_s=5.0,
        on_end=lambda s: rt.session_ended(s),
    )
    rt.pending_assignments += 1
    rt.attach_session(session)
    return session


class TestShardedRuntimeConstruction:
    def test_requires_async_mode(self, sim, log):
        cfg = TaskConfig(name="t", mode=TrainingMode.SYNC, concurrency=8,
                         aggregation_goal=4, model_size_bytes=1000)
        with pytest.raises(ValueError, match="ASYNC"):
            ShardedPlane(num_shards=2).core(plane_context(sim, log, cfg))

    def test_rejects_unknown_routing(self, sim, log):
        with pytest.raises(ValueError):
            make_sharded_runtime(sim, log, shard_routing="roulette")

    def test_place_shard_validates_shard_id(self, sim, log):
        rt = make_sharded_runtime(sim, log, num_shards=2)
        node = AggregatorNode(0, sim, log)
        with pytest.raises(ValueError):
            rt.place_shard(5, node)


class TestShardPlacement:
    def test_shards_spread_evenly_across_nodes(self, sim, log):
        coord, nodes = make_coordinator(sim, log, n_aggs=2)
        rt = make_sharded_runtime(sim, log, num_shards=4)
        coord.register_task(rt)
        assert sorted(coord.shard_placement["t"]) == [0, 1, 2, 3]
        per_node = [len(rt.hosted_shards(n)) for n in nodes]
        assert per_node == [2, 2]
        assert rt.node is rt.shard_nodes[0]  # root rides with shard 0
        assert coord.shard_placement["t"][0] == rt.shard_nodes[0].node_id
        # Both nodes host the task runtime object itself.
        assert all(n.tasks["t"] is rt for n in nodes)

    def test_workload_split_by_hosted_share(self, sim, log):
        coord, nodes = make_coordinator(sim, log, n_aggs=2)
        rt = make_sharded_runtime(sim, log, num_shards=4)
        coord.register_task(rt)
        full = rt.config.concurrency * rt.config.model_size_bytes
        assert nodes[0].estimated_workload() == pytest.approx(full / 2)
        assert sum(n.estimated_workload() for n in nodes) == pytest.approx(full)

    def test_per_shard_demand_entries_sum_to_task_demand(self, sim, log):
        coord, nodes = make_coordinator(sim, log, n_aggs=2)
        rt = make_sharded_runtime(sim, log, num_shards=4, concurrency=10)
        coord.register_task(rt)
        reports = {}
        for n in nodes:
            reports.update(n.demand_report())
        assert set(reports) == {"t/s0", "t/s1", "t/s2", "t/s3"}
        assert sum(reports.values()) == rt.demand() == 10
        # The split is even with the remainder on the lowest shard ids.
        assert sorted(reports.values(), reverse=True) == [3, 3, 2, 2]

    def test_is_routable_tracks_any_live_host(self, sim, log):
        coord, nodes = make_coordinator(sim, log, n_aggs=2)
        rt = make_sharded_runtime(sim, log, num_shards=2)
        coord.register_task(rt)
        assert rt.is_routable()
        nodes[0].fail()
        assert rt.is_routable()
        nodes[1].fail()
        assert not rt.is_routable()


class TestShardedUploadRouting:
    def test_upload_enqueues_on_the_shard_host(self, sim, log):
        coord, nodes = make_coordinator(sim, log, n_aggs=2)
        rt = make_sharded_runtime(sim, log, num_shards=2, goal=4)
        coord.register_task(rt)
        session = attach_session(sim, rt, 0)
        rt.core.register_download(session.device_id)
        shard = rt.core.shard_of(session.device_id)
        host = rt.shard_nodes[shard]
        other = nodes[1 - host.node_id]
        rt.upload_arrived(session, park_training(rt, session))
        assert host.updates_processed == 1
        assert other.updates_processed == 0
        sim.run_until_idle()
        assert rt.core.updates_received == 1
        assert session.finished

    def test_upload_to_dead_shard_host_aborts_session(self, sim, log):
        coord, nodes = make_coordinator(sim, log, n_aggs=2)
        rt = make_sharded_runtime(sim, log, num_shards=2, goal=4)
        coord.register_task(rt)
        session = attach_session(sim, rt, 0)
        rt.core.register_download(session.device_id)
        shard = rt.core.shard_of(session.device_id)
        rt.shard_nodes[shard].fail()
        rt.upload_arrived(session, park_training(rt, session))
        assert session.finished
        assert rt.core.updates_received == 0
        assert rt.core.in_flight_count() == 0


class TestShardFailover:
    def _standup(self, sim, log, num_shards=4):
        coord, nodes = make_coordinator(sim, log, n_aggs=2)
        rt = make_sharded_runtime(sim, log, num_shards=num_shards, goal=50,
                                  concurrency=50)
        coord.register_task(rt)
        return coord, nodes, rt

    def _clients_on(self, rt, node, count=20):
        """Attach sessions and register until >=2 land on node's shards."""
        on_node, elsewhere = [], []
        for device_id in range(count):
            session = attach_session(rt.sim, rt, device_id)
            rt.core.register_download(device_id)
            shard = rt.core.shard_of(device_id)
            if rt.shard_nodes[shard] is node:
                on_node.append(session)
            else:
                elsewhere.append(session)
        return on_node, elsewhere

    def test_dead_node_drops_only_its_shards(self, sim, log):
        coord, nodes, rt = self._standup(sim, log)
        victim = nodes[0]
        survivor = nodes[1]
        victims, survivors = self._clients_on(rt, victim)
        assert len(victims) > 1 and survivors
        # Fold one update into a victim shard so partial state is lost
        # (its uploader leaves the in-flight set, like the real path).
        vic = victims[0]
        rt.core.receive_update(
            rt.adapter.train(vic.profile, None, rt.core.version, 0)
        )
        assert rt.core.buffered_count == 1

        victim.fail()  # detected by the next sweep (alive flag is down)
        coord.on_heartbeat(survivor, survivor.demand_report())
        moved = coord.sweep_failures()

        assert moved == ["t"]
        # The dead node's shards moved to the survivor; all four live.
        assert all(n is survivor for n in rt.shard_nodes.values())
        assert rt.core.live_shards() == [0, 1, 2, 3]
        assert set(coord.shard_placement["t"].values()) == {survivor.node_id}
        # The victim shard's partial fold and in-flight sessions are gone
        # (vic already uploaded, so only the still-training ones abort)...
        assert rt.core.buffered_count == 0
        assert all(s.finished for s in victims[1:])
        # ...but the other shards' sessions keep running.
        assert all(not s.finished for s in survivors)
        assert rt.core.in_flight_count() == len(survivors)
        assert log.count("shard_failed") >= 1

    def test_no_capacity_leaves_shards_dead_and_rerouted(self, sim, log):
        coord, nodes, rt = self._standup(sim, log, num_shards=2)
        for node in nodes:
            node.fail()
        moved = coord.sweep_failures()
        assert moved == ["t"]
        assert rt.unplaced_shards() == [0, 1]
        assert rt.core.live_shards() == []
        assert not rt.is_routable()
        # The placement map must not keep claiming the dead hosts.
        assert coord.shard_placement["t"] == {}

        # A download landing during the plane-wide outage must not crash
        # the event: the client is registered unrouted and its upload is
        # rejected like the single aggregator's dead-host path.
        rt.core.register_download(77)
        assert rt.core.shard_of(77) is None
        session = attach_session(sim, rt, 77)
        rt.upload_arrived(session, park_training(rt, session))
        assert session.finished
        assert rt.core.updates_received == 0

        # A node recovers: the next sweep re-places and revives them.
        nodes[1].recover()
        coord.on_heartbeat(nodes[1], nodes[1].demand_report())
        moved = coord.sweep_failures()
        assert moved == ["t"]
        assert rt.unplaced_shards() == []
        assert rt.core.live_shards() == [0, 1]
        assert set(coord.shard_placement["t"].values()) == {1}
        assert rt.is_routable()
        # Fresh downloads route again after recovery.
        rt.core.register_download(123)
        assert rt.core.shard_of(123) is not None

    def test_assign_client_uses_routability(self, sim, log):
        coord, nodes, rt = self._standup(sim, log, num_shards=2)
        coord.tasks["t"] = rt
        assert coord.assign_client() is rt
        rt.pending_assignments = 0
        for node in nodes:
            node.fail()
        assert coord.assign_client() is None
        assert coord.assignments_rejected == 1


class TestShardedRebalance:
    def test_sharded_tasks_are_not_whole_task_move_candidates(self, sim, log):
        coord, nodes = make_coordinator(sim, log, n_aggs=2)
        rt = make_sharded_runtime(sim, log, name="shardy", num_shards=2)
        other = make_sharded_runtime(sim, log, name="shardy2", num_shards=2)
        coord.register_task(rt)
        coord.register_task(other)
        # Overload node 0's queue: both tasks there are sharded -> no move.
        class FakeSession:
            device_id = 0
        nodes[0].update_process_time_s = 1.0
        for _ in range(200):
            nodes[0].enqueue_update(rt, FakeSession(), None)
        assert nodes[0].queue_depth_seconds() > 30.0
        assert coord.rebalance_overloaded(queue_threshold_s=30.0) == []

    def test_rebalance_log_carries_threshold_and_depth(self, sim, log):
        coord, nodes = make_coordinator(sim, log, n_aggs=2)
        heavy_cfg = TaskConfig(name="heavy", mode=TrainingMode.ASYNC,
                               concurrency=100, aggregation_goal=4,
                               model_size_bytes=1000)
        light_cfg = TaskConfig(name="light", mode=TrainingMode.ASYNC,
                               concurrency=2, aggregation_goal=2,
                               model_size_bytes=1000)
        heavy = SinglePlane().build(plane_context(sim, log, heavy_cfg))
        light = SinglePlane().build(plane_context(sim, log, light_cfg))
        coord.register_task(heavy)
        host = heavy.node
        coord.register_task(light)
        if light.node is not host:
            light.node.drop_task("light")
            light.place_shard(0, host)

        class FakeSession:
            device_id = 0
        host.update_process_time_s = 1.0
        for _ in range(48):
            host.enqueue_update(heavy, FakeSession(), None)
        moved = coord.rebalance_overloaded(queue_threshold_s=10.0)
        assert moved == ["light"]
        [event] = log.of_kind("task_rebalanced")
        assert event.detail["queue_threshold_s"] == 10.0
        assert event.detail["queue_depth_s"] > 10.0
        assert "demand" in event.detail


class TestShardedSystemConfig:
    def test_knob_validation(self):
        with pytest.raises(ValueError):
            ShardedPlane(num_shards=0)
        with pytest.raises(ValueError):
            ShardedPlane(shard_routing="roulette")
        with pytest.raises(ValueError):
            ShardedPlane(executor="threads")
        with pytest.raises(ValueError):
            SystemConfig(rebalance_queue_threshold_s=0.0)
        plane = ShardedPlane(num_shards=8, shard_routing="load")
        assert plane.num_shards == 8
        cfg = SystemConfig(rebalance_queue_threshold_s=12.5)
        assert cfg.rebalance_queue_threshold_s == 12.5

    def test_default_config_builds_unsharded_runtime(self):
        pop = DevicePopulation(PopulationConfig(n_devices=50), seed=0)
        cfg = TaskConfig(name="t", mode=TrainingMode.ASYNC, concurrency=8,
                         aggregation_goal=4, model_size_bytes=1000)
        fs = FederatedSimulation([(cfg, SurrogateAdapter(seed=0))], pop, seed=0)
        rt = fs.task_runtimes["t"]
        assert type(rt.core) is FedBuffAggregator
        assert rt.core.num_shards == 1

    def test_mixed_workload_shards_only_eligible_tasks(self):
        """num_shards > 1 shards the async non-secure tasks and leaves
        SYNC tasks on the single-aggregator path instead of crashing."""
        pop = DevicePopulation(PopulationConfig(n_devices=100), seed=0)
        async_cfg = TaskConfig(name="a", mode=TrainingMode.ASYNC, concurrency=8,
                               aggregation_goal=4, model_size_bytes=1000)
        sync_cfg = TaskConfig(name="s", mode=TrainingMode.SYNC, concurrency=8,
                              aggregation_goal=4, model_size_bytes=1000)
        fs = FederatedSimulation(
            [(async_cfg, SurrogateAdapter(seed=0)),
             (sync_cfg, SurrogateAdapter(seed=1))],
            pop, seed=0, plane=ShardedPlane(num_shards=2),
        )
        assert type(fs.task_runtimes["a"].core) is FedBuffAggregator
        assert type(fs.task_runtimes["s"].core) is SyncRoundAggregator

    @pytest.mark.parametrize("routing", ["hash", "load"])
    def test_sharded_simulation_runs_and_converges(self, routing):
        pop = DevicePopulation(PopulationConfig(n_devices=400), seed=0)
        cfg = TaskConfig(name="t", mode=TrainingMode.ASYNC, concurrency=24,
                         aggregation_goal=6, model_size_bytes=100_000)
        fs = FederatedSimulation(
            [(cfg, SurrogateAdapter(seed=0))], pop, seed=0,
            system=SystemConfig(n_aggregators=3),
            plane=ShardedPlane(num_shards=4, shard_routing=routing),
        )
        res = fs.run(t_end=3e5, max_server_steps=15)
        stats = res.stats()
        assert stats.server_steps >= 15
        rt = fs.task_runtimes["t"]
        loads = rt.core.shard_loads()
        assert sum(loads) == stats.aggregated
        assert sum(1 for load in loads if load > 0) >= 2

    def test_sharded_simulation_survives_node_failure(self):
        pop = DevicePopulation(PopulationConfig(n_devices=400), seed=0)
        cfg = TaskConfig(name="t", mode=TrainingMode.ASYNC, concurrency=24,
                         aggregation_goal=6, model_size_bytes=100_000)
        fs = FederatedSimulation(
            [(cfg, SurrogateAdapter(seed=0))], pop, seed=0,
            system=SystemConfig(n_aggregators=3),
            plane=ShardedPlane(num_shards=4),
        )
        rt = fs.task_runtimes["t"]
        victim = rt.shard_nodes[0].node_id
        FaultInjector(fs, seed=fs.seed).schedule(
            "aggregator_crash", 100.0, node=victim
        )
        res = fs.run(t_end=4000.0)
        assert rt.core.shard_failovers >= 1
        assert rt.core.live_shards() == [0, 1, 2, 3]  # all re-placed
        assert res.stats().server_steps > 5
        assert victim not in {n.node_id for n in rt.shard_nodes.values()}

    def test_rebalance_threshold_flows_from_config(self):
        """The orchestrator's heartbeat loop passes the configured
        backpressure threshold to rebalance_overloaded."""
        pop = DevicePopulation(PopulationConfig(n_devices=100), seed=0)
        heavy = TaskConfig(name="heavy", mode=TrainingMode.ASYNC,
                           concurrency=30, aggregation_goal=4,
                           model_size_bytes=1_000_000)
        light = TaskConfig(name="light", mode=TrainingMode.ASYNC,
                           concurrency=4, aggregation_goal=2,
                           model_size_bytes=1000)
        fs = FederatedSimulation(
            [(heavy, SurrogateAdapter(seed=0)), (light, SurrogateAdapter(seed=1))],
            pop, seed=0,
            system=SystemConfig(
                n_aggregators=2,
                update_process_time_s=3.0,  # forces queue backlog
                rebalance_queue_threshold_s=1e-3,
            ),
        )
        # Co-host both tasks so the rebalancer has something to move.
        rts = fs.task_runtimes
        if rts["light"].node is not rts["heavy"].node:
            rts["light"].node.drop_task("light")
            rts["light"].place_shard(0, rts["heavy"].node)
        fs.run(t_end=600.0)
        events = fs.log.of_kind("task_rebalanced")
        assert events, "backlog never triggered a rebalance"
        assert all(e.detail["queue_threshold_s"] == 1e-3 for e in events)


def test_shard_load_skew_is_balanced_at_scale():
    """Hash routing spreads a large population near-evenly (the skew the
    shards sweep reports stays close to 1)."""
    from repro.core.sharding import HashShardRouting, _Shard

    shards = [_Shard() for _ in range(8)]
    routing = HashShardRouting()
    counts = np.zeros(8, dtype=int)
    for cid in range(4096):
        counts[routing.route(cid, shards)] += 1
    skew = counts.max() / (4096 / 8)
    assert skew < 1.2
