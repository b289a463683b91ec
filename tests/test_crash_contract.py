"""The crash contract: one failover path, whichever core a plane chose.

Every plane builds the one :class:`~repro.system.aggregator.FLTaskRuntime`
around its core, and every core speaks the shard protocol (an unsharded
core is the one-shard case).  So an aggregator crash does the same thing
on every plane (Appendix E.4: the Coordinator notices the dead node by
its heartbeats and moves its work; clients of the lost node fail):

* a task that keeps a live shard loses only the dropped shards'
  buffered updates and routed clients — its unrouted sessions survive;
* a task that loses every shard loses every session, in attachment
  order (routed or not), its buffered updates and its pending
  assignments;
* model state and version survive either way;
* a crash loses the node's hosted state even when the node is back
  before any failure sweep saw it down.

The end-to-end cases run each scenario once, on the plane that ships it
(``single`` and ``secure`` build their core at ``num_shards=1``), and pin
its digest: the flap against its golden corpus cell, the secure crash
against a recorded literal.
"""

from __future__ import annotations

import json

import pytest
from test_golden_digests import GOLDEN, ROOT, SCENARIO_HORIZONS_S

from repro.api import Deployment, ScenarioSpec
from repro.core import TaskConfig, TrainingMode
from repro.sim import MetricsTrace, Outcome, Simulator
from repro.sim.network import NetworkModel
from repro.sim.population import DevicePopulation, PopulationConfig
from repro.system import SurrogateAdapter, planes
from repro.system.aggregator import AggregatorNode
from repro.system.client_runtime import ClientSession, CohortDispatcher
from repro.system.coordinator import Coordinator
from repro.system.planes import PlaneContext
from repro.utils import EventLog, child_rng


# The secure crash cell's recorded digest.  The secure core's folds are
# exact mod 2^bits, so reassociating them must leave it unchanged.
SECURE_CRASH_DIGEST = "b0e35920cb76233d43131bea55ca61fdb33f52abe5a6d6d0c033ef22408d9845"


def _run(doc: dict, plane: str):
    return Deployment.from_spec(
        ScenarioSpec.from_dict(dict(doc, plane={"name": plane}))
    ).run()


class TestShippedPlanesFailOver:
    def test_aggregator_flap_matches_its_golden_digest(self):
        doc = json.loads(
            (ROOT / "examples" / "scenarios" / "aggregator_flap.json").read_text()
        )
        doc["execution"]["t_end_s"] = SCENARIO_HORIZONS_S["aggregator_flap"]
        golden = json.loads(GOLDEN.read_text())["digests"]["scenario/aggregator_flap"]
        result = _run(doc, "single")
        assert result.log.count("shard_failed") == 1  # later flaps hit an empty node
        assert result.sim_digest() == golden

    def test_secure_crash_matches_its_recorded_digest(self):
        # Node 0 dies at 33 s while a silently dropped device's failure
        # detection is still pending; that device is selected again
        # before the detection fires.
        doc = {
            "population": {"n_devices": 400, "seed": 0},
            "tasks": [{"name": "train", "mode": "async", "concurrency": 24,
                       "aggregation_goal": 6, "model_size_bytes": 1_000_000}],
            "execution": {"seed": 0, "t_end_s": 900.0, "max_server_steps": 40},
            "faults": {"events": [{"kind": "aggregator_crash", "at_s": 33.0,
                                   "node": 0, "recover_after_s": 60.0}]},
        }
        secure = _run(doc, "secure")
        assert secure.log.count("shard_failed") == 1
        assert secure.stats().server_steps == 40
        assert secure.sim_digest() == SECURE_CRASH_DIGEST


# -- unit cases: S = 2 on the Coordinator's sweep ------------------------------


def _coordinator(sim, log, n_aggs=2):
    coord = Coordinator(sim, log, child_rng(0, "crash-contract"),
                        heartbeat_interval_s=5.0, heartbeat_miss_limit=2)
    nodes = [AggregatorNode(i, sim, log) for i in range(n_aggs)]
    for node in nodes:
        coord.register_aggregator(node)
    return coord, nodes


def _runtime(sim, log, plane):
    cfg = TaskConfig(name="t", mode=TrainingMode.ASYNC, concurrency=50,
                     aggregation_goal=50, model_size_bytes=1000)
    adapter = SurrogateAdapter(seed=0)
    return plane.build(PlaneContext(cfg, adapter, sim, MetricsTrace(), log,
                                    lambda: None, CohortDispatcher(adapter)))


def _attach(rt, device_id):
    """Attach a session; it stays unrouted until its download registers."""
    pop = DevicePopulation(PopulationConfig(n_devices=device_id + 1), seed=0)
    session = ClientSession(
        profile=pop.profile(device_id), task_rt=rt, sim=rt.sim,
        network=NetworkModel(), population=pop, trace=rt.trace,
        participation=0, failure_detection_s=5.0,
        on_end=lambda s: rt.session_ended(s),
    )
    rt.pending_assignments += 1
    rt.attach_session(session)
    return session


def _routed(rt, device_id):
    session = _attach(rt, device_id)
    rt.core.register_download(device_id)
    return session


def _sweep_with_survivor(coord, survivor):
    coord.on_heartbeat(survivor, survivor.demand_report())
    return coord.sweep_failures()


class TestShardLoss:
    def test_task_losing_every_shard_loses_every_session(self):
        sim, log = Simulator(), EventLog()
        coord, nodes = _coordinator(sim, log)
        rt = _runtime(sim, log, planes.ShardedPlane(num_shards=2))
        coord.register_task(rt)
        victim, survivor = rt.node, nodes[1 - rt.node.node_id]
        for shard in rt.hosted_shards(survivor):  # both shards on the victim
            survivor.drop_task("t")
            rt.place_shard(shard, victim)
        routed = [_routed(rt, d) for d in range(6)]
        unrouted = [_attach(rt, d) for d in range(6, 9)]  # still downloading
        rt.pending_assignments = 2  # assigned, not yet confirmed
        rt.core.receive_update(
            rt.adapter.train(routed[0].profile, None, rt.core.version, 0)
        )
        assert rt.core.buffered_count == 1

        victim.fail()
        assert _sweep_with_survivor(coord, survivor) == ["t"]

        assert all(s.finished for s in routed + unrouted)
        aborted = [p.device_id for p in rt.trace.participations]
        assert aborted == list(range(9))  # attachment order
        assert rt.active_count() == 0 and rt.pending_assignments == 0
        assert rt.core.buffered_count == 0 and rt.core.in_flight_count() == 0
        assert log.count("shard_failed") == 2
        # Both shards re-placed on the survivor and revived empty.
        assert rt.shard_nodes == {0: survivor, 1: survivor}
        assert rt.core.live_shards() == [0, 1]
        assert rt.core.version == 0

    def test_task_keeping_a_live_shard_keeps_its_unrouted_sessions(self):
        sim, log = Simulator(), EventLog()
        coord, nodes = _coordinator(sim, log)
        rt = _runtime(sim, log, planes.ShardedPlane(num_shards=2))
        coord.register_task(rt)
        victim = rt.shard_nodes[0]
        survivor = rt.shard_nodes[1]
        assert victim is not survivor
        routed = [_routed(rt, d) for d in range(12)]
        on_victim = [s for s in routed if rt.core.shard_of(s.device_id) == 0]
        elsewhere = [s for s in routed if rt.core.shard_of(s.device_id) == 1]
        assert on_victim and elsewhere
        unrouted = [_attach(rt, d) for d in range(12, 15)]
        rt.pending_assignments = 2

        victim.fail()
        assert _sweep_with_survivor(coord, survivor) == ["t"]

        assert all(s.finished for s in on_victim)
        assert not any(s.finished for s in elsewhere + unrouted)
        assert rt.pending_assignments == 2
        assert rt.core.in_flight_count() == len(elsewhere)
        assert [e.detail["shard"] for e in log.of_kind("shard_failed")] == [0]
        assert rt.shard_nodes == {0: survivor, 1: survivor}
        assert rt.core.live_shards() == [0, 1]
        # An unrouted session's download now routes to a live shard.
        rt.core.register_download(unrouted[0].device_id)
        assert rt.core.shard_of(unrouted[0].device_id) is not None


PLANES = {
    "single": planes.SinglePlane(),
    "secure": planes.SecurePlane(),
    "sharded": planes.ShardedPlane(num_shards=2),
    "secure_sharded": planes.SecureShardedPlane(num_shards=2),
}


class TestCrashBetweenSweeps:
    @pytest.mark.parametrize("name", sorted(PLANES))
    def test_crash_no_sweep_saw_still_fails_over(self, name):
        sim, log = Simulator(), EventLog()
        coord, nodes = _coordinator(sim, log)
        rt = _runtime(sim, log, PLANES[name])
        coord.register_task(rt)
        host = rt.node
        lost = rt.hosted_shards(host)
        sessions = [_routed(rt, d) for d in range(8)]
        on_host = [s for s in sessions if rt.core.shard_of(s.device_id) in lost]
        assert on_host

        host.fail()
        host.recover()  # back before any sweep saw it down
        for node in nodes:
            coord.on_heartbeat(node, node.demand_report())
        assert coord.sweep_failures() == ["t"]

        assert [e.detail["shard"] for e in log.of_kind("shard_failed")] == lost
        replaced = log.of_kind("shard_replaced")
        assert [e.detail["shard"] for e in replaced] == lost
        assert {e.detail["reason"] for e in replaced} == {"node_restarted"}
        assert all(s.finished for s in on_host)
        assert sorted(rt.shard_nodes) == list(range(rt.core.num_shards))
        # The crash is counted once: the next sweep moves nothing.
        for node in nodes:
            coord.on_heartbeat(node, node.demand_report())
        assert coord.sweep_failures() == []


def test_late_failure_detection_spares_the_devices_next_registration():
    """A silently dropped device's detection event outlives a server
    abort of its session; when it fires, the device may already be back
    under a new session, whose in-flight entry it must not drop."""
    sim, log = Simulator(), EventLog()
    coord, _ = _coordinator(sim, log)
    rt = _runtime(sim, log, planes.SinglePlane())
    coord.register_task(rt)
    old = _routed(rt, 3)
    old._dropped()  # the server notices failure_detection_s later
    rt.core.client_failed(3)
    old.abort(Outcome.ABORTED)  # ...but aborts the session first
    rt.core.register_download(3)  # re-selected before the detection fires
    sim.run_until(sim.now + 10.0)
    assert rt.core.in_flight_count() == 1
    assert [p.outcome for p in rt.trace.participations] == [Outcome.ABORTED]
