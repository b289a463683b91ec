"""Coordinator failure-recovery and overload-rebalancing behaviour.

Complements ``test_system_components.py`` with the scenarios the paper's
Appendix E.4 / Section 6.3 describe end to end: task reassignment under
node failure with *live* client sessions attached (state loss semantics),
and the exact queue-backpressure threshold at which
``rebalance_overloaded`` moves a task.
"""

import pytest

from repro.core import TaskConfig, TrainingMode
from repro.sim import MetricsTrace, Simulator
from repro.sim.network import NetworkModel
from repro.sim.population import DevicePopulation, PopulationConfig
from repro.system import SurrogateAdapter
from repro.system.aggregator import AggregatorNode
from repro.system.client_runtime import ClientSession, CohortDispatcher
from repro.system.coordinator import Coordinator
from repro.system.planes import PlaneContext, SinglePlane
from repro.utils import EventLog, child_rng


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def log():
    return EventLog()


def make_runtime(sim, log, name="t", concurrency=10, goal=4):
    cfg = TaskConfig(name=name, mode=TrainingMode.ASYNC, concurrency=concurrency,
                     aggregation_goal=goal, model_size_bytes=1000)
    adapter = SurrogateAdapter(seed=0)
    return SinglePlane().build(PlaneContext(
        cfg, adapter, sim, MetricsTrace(), log, lambda: None,
        CohortDispatcher(adapter),
    ))


def make_coordinator(sim, log, n_aggs=2):
    coord = Coordinator(sim, log, child_rng(0, "failover-test"),
                        heartbeat_interval_s=5.0, heartbeat_miss_limit=2)
    nodes = [AggregatorNode(i, sim, log) for i in range(n_aggs)]
    for n in nodes:
        coord.register_aggregator(n)
    return coord, nodes


def attach_session(sim, rt, device_id, trace=None):
    """Start a live client session against the runtime."""
    pop = DevicePopulation(PopulationConfig(n_devices=device_id + 1), seed=0)
    session = ClientSession(
        profile=pop.profile(device_id),
        task_rt=rt,
        sim=sim,
        network=NetworkModel(),
        population=pop,
        trace=trace if trace is not None else rt.trace,
        participation=0,
        failure_detection_s=5.0,
        on_end=lambda s: rt.session_ended(s),
    )
    rt.pending_assignments += 1
    rt.attach_session(session)
    return session


class TestReassignmentUnderNodeFailure:
    def test_live_sessions_aborted_and_buffer_dropped(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        rt = make_runtime(sim, log, goal=4)
        coord.register_task(rt)
        host = rt.node
        other = nodes[1 - host.node_id]

        s1 = attach_session(sim, rt, 0)
        s2 = attach_session(sim, rt, 1)
        # One update already buffered, both clients in flight beforehand.
        rt.core.register_download(s1.device_id)
        rt.core.register_download(s2.device_id)
        rt.core.receive_update(
            rt.adapter.train(s1.profile, None, rt.core.version, 0)
        )
        assert rt.core.buffered_count == 1
        assert rt.active_count() == 2

        # The host dies silently; only the healthy node heartbeats.
        host.fail()
        sim.schedule(60.0, lambda: None)
        sim.run_until_idle()
        coord.on_heartbeat(other, other.demand_report())
        moved = coord.sweep_failures()

        assert moved == ["t"]
        assert rt.node is other
        assert coord.shard_placement["t"] == {0: other.node_id}
        # Appendix E.4 semantics: buffered updates and sessions are lost...
        assert rt.core.buffered_count == 0
        assert rt.core.in_flight_count() == 0
        assert rt.active_count() == 0
        assert s1.finished and s2.finished
        assert rt.pending_assignments == 0
        # ...but the model state and version survive the move.
        assert rt.core.version == 0

    def test_expired_heartbeat_marks_node_dead(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        rt = make_runtime(sim, log)
        coord.register_task(rt)
        host = rt.node
        # Node is nominally alive but silent past the miss limit.
        assert host.alive
        sim.schedule(coord.heartbeat_interval_s * coord.heartbeat_miss_limit + 1,
                     lambda: None)
        sim.run_until_idle()
        coord.on_heartbeat(nodes[1 - host.node_id], {})
        moved = coord.sweep_failures()
        assert moved == [rt.config.name]
        assert not host.alive

    def test_no_live_target_leaves_task_unhosted(self, sim, log):
        """A deployment-wide outage must not crash the sweep: the task
        stays unhosted (no assignments) until capacity recovers."""
        coord, nodes = make_coordinator(sim, log)
        rt = make_runtime(sim, log)
        coord.register_task(rt)
        for node in nodes:
            node.fail()
        sim.schedule(60.0, lambda: None)
        sim.run_until_idle()
        moved = coord.sweep_failures()
        assert moved == [rt.config.name]
        assert rt.node is None
        assert not rt.is_routable()
        assert coord.assign_client() is None
        assert log.of_kind("tasks_unplaced")[-1].detail["tasks"] == ["t"]
        # Still no capacity: later sweeps keep it parked without raising.
        assert coord.sweep_failures() == []
        assert rt.node is None

    def test_reassignment_bumps_assignment_seq(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        rt = make_runtime(sim, log)
        coord.register_task(rt)
        seq0 = coord.assignment_seq
        host = rt.node
        host.fail()
        sim.schedule(60.0, lambda: None)
        sim.run_until_idle()
        coord.on_heartbeat(nodes[1 - host.node_id], {})
        coord.sweep_failures()
        assert coord.assignment_seq == seq0 + 1

    def test_dead_empty_node_is_skipped(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        nodes[1].fail()  # dead but hosts nothing
        sim.schedule(60.0, lambda: None)
        sim.run_until_idle()
        assert coord.sweep_failures() == []


class TestQueueDepthRebalancing:
    def _load_queue(self, node, rt, updates, process_time):
        class FakeSession:
            device_id = 0

        node.update_process_time_s = process_time
        for _ in range(updates):
            node.enqueue_update(rt, FakeSession(), None)

    def _two_task_host(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        heavy = make_runtime(sim, log, "heavy", concurrency=100)
        light = make_runtime(sim, log, "light", concurrency=2, goal=2)
        coord.register_task(heavy)
        host = heavy.node
        coord.register_task(light)
        if light.node is not host:
            light.node.drop_task("light")
            light.place_shard(0, host)
        return coord, nodes, host, heavy, light

    def test_queue_depth_at_threshold_does_not_move(self, sim, log):
        coord, nodes, host, heavy, light = self._two_task_host(sim, log)
        # 4 shards x 10 updates x 1s = exactly 10s of backlog per shard.
        self._load_queue(host, heavy, 40, 1.0)
        assert host.queue_depth_seconds() == pytest.approx(10.0)
        assert coord.rebalance_overloaded(queue_threshold_s=10.0) == []
        assert light.node is host

    def test_queue_depth_above_threshold_moves_lightest(self, sim, log):
        coord, nodes, host, heavy, light = self._two_task_host(sim, log)
        self._load_queue(host, heavy, 44, 1.0)  # 11s > 10s threshold
        assert host.queue_depth_seconds() > 10.0
        moved = coord.rebalance_overloaded(queue_threshold_s=10.0)
        assert moved == ["light"]
        assert light.node is nodes[1 - host.node_id]
        assert coord.shard_placement["light"] == {0: light.node.node_id}

    def test_queue_depth_decays_with_simulated_time(self, sim, log):
        coord, nodes, host, heavy, light = self._two_task_host(sim, log)
        self._load_queue(host, heavy, 44, 1.0)
        depth_before = host.queue_depth_seconds()
        # Give the shards simulated time to drain below the threshold.
        sim.run_until(sim.now + depth_before)
        assert host.queue_depth_seconds() == pytest.approx(0.0)
        assert coord.rebalance_overloaded(queue_threshold_s=10.0) == []

    def test_rebalance_skipped_when_coordinator_dead(self, sim, log):
        coord, nodes, host, heavy, light = self._two_task_host(sim, log)
        self._load_queue(host, heavy, 44, 1.0)
        coord.fail()
        assert coord.rebalance_overloaded(queue_threshold_s=10.0) == []
        assert light.node is host

    def test_planned_move_is_lossless_for_sessions(self, sim, log):
        coord, nodes, host, heavy, light = self._two_task_host(sim, log)
        session = attach_session(sim, light, 3)
        light.core.register_download(session.device_id)
        light.core.receive_update(
            light.adapter.train(session.profile, None, light.core.version, 0)
        )
        self._load_queue(host, heavy, 44, 1.0)
        moved = coord.rebalance_overloaded(queue_threshold_s=10.0)
        assert moved == ["light"]
        # Planned move (Section 6.3): nothing is lost, the session lives on.
        assert not session.finished
        assert light.active_count() == 1
        assert light.core.updates_received == 1


class TestRecoveryWindowEdges:
    """Boundary behaviour of heartbeat expiry and the recovery window."""

    def test_heartbeat_exactly_at_miss_limit_keeps_node_alive(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        rt = make_runtime(sim, log)
        coord.register_task(rt)
        host = rt.node
        other = nodes[1 - host.node_id]
        deadline = coord.heartbeat_interval_s * coord.heartbeat_miss_limit
        # Silence lasting *exactly* the miss limit is not yet a miss:
        # expiry requires now - last_heartbeat to strictly exceed it.
        sim.run_until(deadline)
        assert sim.now == pytest.approx(deadline)
        assert coord.sweep_failures() == []
        assert host.alive
        # A heartbeat landing exactly at the limit resets the clock...
        coord.on_heartbeat(host, host.demand_report())
        sim.run_until(deadline * 2)
        assert coord.sweep_failures() == []
        assert host.alive
        # ...and the first sweep strictly past the (new) deadline expires
        # it (the healthy sibling keeps heartbeating, as the orchestrator
        # loop would, and inherits the task).
        sim.schedule(deadline + 1e-9, lambda: None)
        sim.run_until_idle()
        coord.on_heartbeat(other, other.demand_report())
        assert coord.sweep_failures() == [rt.config.name]
        assert not host.alive
        assert rt.node is other

    def test_all_nodes_dead_then_one_recovers_replaces_task(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        rt = make_runtime(sim, log)
        coord.register_task(rt)
        for node in nodes:
            node.fail()
        # No live target: the task is parked unhosted, assignments pause.
        assert coord.sweep_failures() == [rt.config.name]
        assert rt.node is None
        assert not rt.is_routable()

        nodes[1].recover()
        # The recovered node must heartbeat before the next sweep, or its
        # stale last_heartbeat would expire it right back to dead.
        coord.on_heartbeat(nodes[1], nodes[1].demand_report())
        moved = coord.sweep_failures()
        assert moved == [rt.config.name]
        assert rt.node is nodes[1]
        assert coord.shard_placement[rt.config.name] == {0: nodes[1].node_id}
        assert rt.is_routable()

    def test_assignments_rejected_accounting_through_recovery(self, sim, log):
        coord, nodes = make_coordinator(sim, log)
        rt = make_runtime(sim, log, concurrency=10)
        coord.register_task(rt)
        assert coord.assign_client() is rt
        assert coord.assignments_made == 1
        rt.pending_assignments = 0

        # Dead coordinator: every attempt is rejected and counted.
        coord.fail()
        for _ in range(3):
            assert coord.assign_client() is None
        assert coord.assignments_rejected == 3

        # Recovered but inside the recovery window: still rejected.
        coord.recover()
        assert coord.alive and not coord.accepting_assignments
        assert coord.assign_client() is None
        assert coord.assignments_rejected == 4

        # One tick before the window closes: rejected; at the boundary
        # (now == recovering_until) assignments resume.
        sim.run_until(coord.recovery_period_s - 1.0)
        assert coord.assign_client() is None
        assert coord.assignments_rejected == 5
        sim.run_until(coord.recovery_period_s)
        assert coord.accepting_assignments
        assert coord.assign_client() is rt
        assert coord.assignments_made == 2
        assert coord.assignments_rejected == 5
