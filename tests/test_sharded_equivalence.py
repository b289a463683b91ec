"""Differential equivalence suite: sharded aggregation plane vs single core.

The contract under test (see ``repro/core/sharding.py``): for any shard
count and either routing policy, :class:`FedBuffAggregator`
matches the single :class:`FedBuffAggregator` on the same arrival
sequence to float64 rounding (shard-local folding only reassociates the
weighted sum; admission, staleness, weighting, and step triggering are
the inherited single-core code), ``num_shards=1`` is **bit-identical**
to the single core, and mid-run shard failure leaves the plane matching
a single aggregator fed only the surviving arrivals.  This is what lets
the system layer spread one task's aggregation across nodes without
changing an experimental number.
"""

import multiprocessing
import os
import pickle
import queue as queue_mod
import signal
import time

import numpy as np
import pytest

from repro.core.fedbuff import FedBuffAggregator
from repro.core.parallel import (
    FoldLane,
    ProcessShardedFedBuffAggregator,
    ShardWorkerPool,
    WorkerPoolError,
    _worker_main,
    numpy_fold_kernel,
)
from repro.core.server_opt import FedAdam
from repro.core.sharding import (
    AggregationPlaneClock,
    HashShardRouting,
    LoadAwareShardRouting,
    _Shard,
    make_routing,
)
from repro.core.state import GlobalModelState
from repro.core.types import TrainingResult

ATOL = 1e-8
P = 48

#: every start method this platform supports out of fork/spawn — the
#: process-executor contract is start-method-independent, so the
#: differential tests run under each (CI exercises both on linux).
START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


def fresh_state(seed=0):
    rng = np.random.default_rng(seed)
    return GlobalModelState(rng.standard_normal(P).astype(np.float32), FedAdam(lr=0.1))


def make_result(rng, cid, version=0, scale=1.0):
    return TrainingResult(
        client_id=cid,
        delta=(rng.standard_normal(P) * scale).astype(np.float32),
        num_examples=int(rng.integers(1, 50)),
        train_loss=float(rng.random()),
        initial_version=version,
    )


def drive_both(single, sharded, seed=0, n=23, waves=3):
    """Drive identical multi-wave arrival sequences through both planes.

    Clients register in waves (so later waves carry real staleness) and
    upload in a shuffled order; both planes see the same registrations
    and the same arrivals with the same initial versions.
    """
    rng = np.random.default_rng(seed)
    outs_single, outs_sharded = [], []
    next_cid = 0
    for _ in range(waves):
        cids = list(range(next_cid, next_cid + n))
        next_cid += n
        for agg in (single, sharded):
            for cid in cids:
                agg.register_download(cid)
        # Registration versions must have agreed or weights could not.
        assert single.version == sharded.version
        order = rng.permutation(len(cids))
        for idx in order:
            cid = cids[int(idx)]
            version = single._in_flight[cid]
            assert sharded._in_flight[cid] == version
            r = make_result(rng, cid, version=version)
            outs_single.append(single.receive_update(r))
            outs_sharded.append(sharded.receive_update(r))
    return outs_single, outs_sharded


class TestShardRouting:
    def test_hash_routing_is_deterministic_and_total(self):
        shards = [_Shard() for _ in range(5)]
        routing = HashShardRouting()
        first = [routing.route(cid, shards) for cid in range(200)]
        assert first == [routing.route(cid, shards) for cid in range(200)]
        assert set(first) == set(range(5))  # every shard receives a slice

    def test_hash_routing_probes_past_dead_shards(self):
        shards = [_Shard() for _ in range(4)]
        routing = HashShardRouting()
        victim = routing.route(17, shards)
        shards[victim].alive = False
        rerouted = routing.route(17, shards)
        assert rerouted == (victim + 1) % 4
        shards[victim].alive = True
        assert routing.route(17, shards) == victim  # snaps back on revive

    def test_hash_routing_all_dead_raises(self):
        shards = [_Shard() for _ in range(2)]
        for s in shards:
            s.alive = False
        with pytest.raises(RuntimeError):
            HashShardRouting().route(0, shards)

    def test_load_aware_picks_least_loaded_with_lowest_id_ties(self):
        shards = [_Shard() for _ in range(3)]
        routing = LoadAwareShardRouting()
        assert routing.route(99, shards) == 0  # all-zero tie -> lowest id
        shards[0].in_flight = 2
        shards[1].count = 1
        assert routing.route(99, shards) == 2
        shards[2].alive = False
        assert routing.route(99, shards) == 1

    def test_load_aware_all_dead_raises(self):
        shards = [_Shard()]
        shards[0].alive = False
        with pytest.raises(RuntimeError):
            LoadAwareShardRouting().route(0, shards)

    def test_make_routing(self):
        assert make_routing("hash").name == "hash"
        assert make_routing("load").name == "load"
        with pytest.raises(ValueError):
            make_routing("random")


class TestPlaneClock:
    def test_lane_schedule_and_barrier(self):
        clock = AggregationPlaneClock(2)
        clock.record_fold(0, 1.0)
        clock.record_fold(1, 3.0)
        clock.record_fold(0, 1.0)  # lane 0 now at 2.0, lane 1 at 3.0
        assert clock.elapsed == pytest.approx(3.0)
        clock.record_merge(0.5)  # barrier over both lanes
        assert clock.root == pytest.approx(3.5)
        clock.record_fold(0, 1.0)  # next epoch folds start after the merge
        assert clock.lanes[0] == pytest.approx(4.5)
        assert clock.elapsed == pytest.approx(4.5)
        assert clock.folds == 4 and clock.merges == 1

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            AggregationPlaneClock(0)

    def test_arrivals_feed_the_clock(self):
        rng = np.random.default_rng(17)
        clock = AggregationPlaneClock(3)
        agg = FedBuffAggregator(
            fresh_state(), goal=4, num_shards=3, clock=clock
        )
        results = [make_result(rng, cid) for cid in range(9)]
        for r in results:
            agg.register_download(r.client_id)
        for r in results:
            agg.receive_update(r)
        assert clock.folds == 9  # one fold per arrival
        assert clock.merges == 2
        assert clock.elapsed > 0.0


class TestPlaneWideOutage:
    def test_download_during_outage_registers_unrouted(self):
        agg = FedBuffAggregator(fresh_state(), goal=4, num_shards=2)
        agg.drop_shard(0)
        agg.drop_shard(1)
        # Must not raise: the client registers but gets no shard.
        agg.register_download(5)
        assert agg.shard_of(5) is None
        assert agg.in_flight_count() == 1
        # A direct update for the unrouted client is rejected before any
        # buffer accounting mutates.
        rng = np.random.default_rng(0)
        with pytest.raises(KeyError, match="no shard was live"):
            agg.receive_update(make_result(rng, 5))
        # Nothing was consumed: a retry is rejected the same way.
        assert agg.in_flight_count() == 1
        with pytest.raises(KeyError, match="no shard was live"):
            agg.receive_update(make_result(rng, 5))
        assert agg.buffered_count == 0
        assert agg.updates_received == 0
        # client_failed on the unrouted client stays consistent.
        agg.client_failed(5)
        assert agg.in_flight_count() == 0


class TestShardedEquivalence:
    @pytest.mark.parametrize("num_shards", [2, 3, 8])
    @pytest.mark.parametrize("routing", ["hash", "load"])
    def test_matches_single_aggregator(self, num_shards, routing):
        single = FedBuffAggregator(fresh_state(), goal=7)
        sharded = FedBuffAggregator(
            fresh_state(), goal=7, num_shards=num_shards, routing=routing
        )
        outs_single, outs_sharded = drive_both(single, sharded, seed=num_shards)

        assert single.version == sharded.version
        assert single.updates_received == sharded.updates_received
        assert len(single.step_history) == len(sharded.step_history)
        for a, b in zip(single.step_history, sharded.step_history):
            assert a.version == b.version
            assert a.num_updates == b.num_updates
            assert a.total_weight == pytest.approx(b.total_weight, abs=1e-9)
            assert a.mean_staleness == b.mean_staleness
            assert a.max_staleness == b.max_staleness
            assert a.contributors == b.contributors
        for (u1, s1), (u2, s2) in zip(outs_single, outs_sharded):
            assert u1.weight == pytest.approx(u2.weight, abs=1e-12)
            assert u1.staleness == u2.staleness
            assert (s1 is None) == (s2 is None)
        np.testing.assert_allclose(
            single.state.current(), sharded.state.current(), rtol=0, atol=ATOL
        )

    @pytest.mark.parametrize("weighting", ["linear", "log", "none"])
    def test_example_weighting_variants(self, weighting):
        single = FedBuffAggregator(
            fresh_state(), goal=5, example_weighting=weighting
        )
        sharded = FedBuffAggregator(
            fresh_state(), goal=5, num_shards=4, example_weighting=weighting
        )
        drive_both(single, sharded, seed=11, n=17, waves=2)
        np.testing.assert_allclose(
            single.state.current(), sharded.state.current(), rtol=0, atol=ATOL
        )

    def test_single_shard_is_bit_identical_scalar_path(self):
        single = FedBuffAggregator(fresh_state(), goal=6)
        sharded = FedBuffAggregator(fresh_state(), goal=6, num_shards=1)
        outs_single, outs_sharded = drive_both(single, sharded, seed=5)
        # Exact equality, not allclose: one shard performs the single
        # core's AXPY sequence and merging one partial is the identity.
        assert np.array_equal(single.state.current(), sharded.state.current())
        for (u1, _), (u2, _) in zip(outs_single, outs_sharded):
            assert u1.weight == u2.weight
        for a, b in zip(single.step_history, sharded.step_history):
            assert a.total_weight == b.total_weight

    def test_version_mismatch_keeps_shard_slots_consistent(self):
        rng = np.random.default_rng(4)
        agg = FedBuffAggregator(fresh_state(), goal=10, num_shards=3)
        agg.register_download(7)
        bad = make_result(rng, 7, version=5)  # recorded initial is 0
        with pytest.raises(ValueError):
            agg.receive_update(bad)
        assert agg.shard_of(7) is None
        assert sum(agg.shard_in_flight()) == 0

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            FedBuffAggregator(fresh_state(), goal=4, num_shards=0)
        with pytest.raises(ValueError):
            FedBuffAggregator(fresh_state(), goal=4, routing="nope")

    def test_reregistration_releases_previous_shard_slot(self):
        agg = FedBuffAggregator(
            fresh_state(), goal=4, num_shards=2, routing="load"
        )
        agg.register_download(0)
        first = agg.shard_of(0)
        agg.register_download(0)  # same client re-downloads
        assert sum(agg.shard_in_flight()) == 1
        assert agg.shard_of(0) in (0, 1)
        assert first is not None

    def test_drop_buffer_and_inflight_clears_shards(self):
        rng = np.random.default_rng(6)
        agg = FedBuffAggregator(fresh_state(), goal=10, num_shards=3)
        for cid in range(6):
            agg.register_download(cid)
        for cid in range(4):
            agg.receive_update(make_result(rng, cid))
        lost, dropped = agg.drop_buffer_and_inflight()
        assert lost == 4 and sorted(dropped) == [4, 5]
        assert agg.shard_buffered() == [0, 0, 0]
        assert agg.shard_in_flight() == [0, 0, 0]
        assert all(agg.shard_alive(s) for s in range(3))


class TestShardFailover:
    @pytest.mark.parametrize("routing", ["hash", "load"])
    def test_mid_run_failure_matches_single_on_survivors(self, routing):
        """After a shard dies mid-buffer, the plane matches a single
        aggregator that was fed only the surviving arrivals."""
        rng = np.random.default_rng(21)
        sharded = FedBuffAggregator(
            fresh_state(), goal=6, num_shards=3, routing=routing
        )
        results = [make_result(rng, cid) for cid in range(30)]
        for r in results:
            sharded.register_download(r.client_id)

        # Two full steps plus a partial buffer, then shard 1 dies.
        for r in results[:15]:
            sharded.receive_update(r)
        lost, dropped_clients = sharded.drop_shard(1)
        assert lost > 0 or dropped_clients  # the scenario is non-trivial
        # Remaining in-flight clients (not routed to shard 1) upload;
        # dropped clients' late uploads are rejected like any failed one.
        accepted_tail = []
        for r in results[15:]:
            if r.client_id in dropped_clients:
                with pytest.raises(KeyError):
                    sharded.receive_update(r)
            else:
                sharded.receive_update(r)
                accepted_tail.append(r.client_id)

        survivors = set(
            cid for step in sharded.step_history for cid in step.contributors
        ) | set(sharded._contributors)
        single = FedBuffAggregator(fresh_state(), goal=6)
        for r in results:
            single.register_download(r.client_id)
        for r in results:
            if r.client_id in survivors:
                single.receive_update(r)

        assert single.version == sharded.version
        assert len(single.step_history) == len(sharded.step_history)
        for a, b in zip(single.step_history, sharded.step_history):
            assert a.contributors == b.contributors
            assert a.total_weight == pytest.approx(b.total_weight, abs=1e-9)
        np.testing.assert_allclose(
            single.state.current(), sharded.state.current(), rtol=0, atol=ATOL
        )
        assert single._weight_sum == pytest.approx(sharded._weight_sum, abs=1e-12)

    def test_dead_shard_slice_reroutes_and_revive_restores(self):
        sharded = FedBuffAggregator(
            fresh_state(), goal=100, num_shards=4, routing="hash"
        )
        # Find a client hashed to shard 2.
        probe = next(
            cid for cid in range(1000)
            if HashShardRouting().route(cid, sharded._shards) == 2
        )
        sharded.drop_shard(2)
        assert not sharded.shard_alive(2)
        assert sharded.live_shards() == [0, 1, 3]
        sharded.register_download(probe)
        assert sharded.shard_of(probe) == 3  # probed past the dead shard
        sharded.client_failed(probe)

        sharded.revive_shard(2)
        assert sharded.shard_alive(2)
        sharded.register_download(probe)
        assert sharded.shard_of(probe) == 2  # slice snaps back
        assert sharded.shard_failovers == 1

    def test_failure_spanning_epochs(self):
        """Contributions folded *before* the failure's buffer epoch are
        already in step history and survive; only the dead shard's
        current partial is excised."""
        rng = np.random.default_rng(31)
        sharded = FedBuffAggregator(
            fresh_state(), goal=4, num_shards=2, routing="hash"
        )
        results = [make_result(rng, cid) for cid in range(10)]
        for r in results:
            sharded.register_download(r.client_id)
        for r in results[:6]:  # one full step + 2 buffered
            sharded.receive_update(r)
        assert sharded.version == 1
        steps_before = len(sharded.step_history)
        buffered_before = sharded.buffered_count
        lost, _ = sharded.drop_shard(0)
        assert len(sharded.step_history) == steps_before  # history intact
        assert sharded.buffered_count == buffered_before - lost
        assert sharded.version == 1


class TestShardsExperimentMicro:
    """Micro-scale runs of the ``shards`` ExperimentSpec (harness/perf.py)."""

    @pytest.mark.parametrize("routing", ["hash", "load"])
    def test_micro_sweep_is_equivalent_everywhere(self, routing):
        from repro.harness.perf import shards_speedup

        res = shards_speedup(
            shard_counts=(1, 2, 4), populations=(16, 64), arrivals=24,
            vector_length=512, goal=8, routing=routing, repeats=1, seed=3,
        )
        assert len(res.points) == 6
        for p in res.points:
            assert p.equivalent
            assert p.max_divergence <= 1e-6
            assert p.arrivals == 24
            assert p.single_s > 0 and p.sharded_s > 0
            assert p.load_skew >= 1.0
            # Measured process arm rides along at every point: real
            # worker processes, bit-identical state, clean pool.
            assert p.process_identical
            assert p.process_fallbacks == 0
            assert p.process_s > 0
            assert p.speedup_gap == pytest.approx(
                p.speedup - p.measured_speedup
            )
        assert {p.num_shards for p in res.points} == {1, 2, 4}
        assert {p.population for p in res.points} == {16, 64}
        assert res.cpu_count >= 1

    def test_printer_renders(self, capsys):
        from repro.harness.perf import print_shards, shards_speedup

        res = shards_speedup(
            shard_counts=(2,), populations=(8,), arrivals=8,
            vector_length=64, goal=4, repeats=1,
        )
        print_shards(res)
        out = capsys.readouterr().out
        assert "Sharded aggregation plane" in out
        assert "modeled x" in out and "measured x" in out
        assert "gap" in out and "load skew" in out

    def test_registered_and_json_round_trips(self):
        from repro.harness import registry
        from repro.harness.perf import ShardsResult, shards_speedup

        spec = registry.get("shards")
        assert spec.result_type is ShardsResult
        assert not spec.uses_scale
        res = shards_speedup(
            shard_counts=(2,), populations=(8,), arrivals=8,
            vector_length=64, goal=4, repeats=1,
        )
        restored = spec.deserialize(spec.serialize(res))
        assert restored == res  # frozen dataclasses: exact field equality


class TestEndToEndShardedSimulation:
    """Full-simulation differential: sharded plane on one node vs scalar.

    With every shard colocated on a single AggregatorNode the event
    schedule (queue model, timings, selection) is identical to the
    unsharded run, so traces must line up event for event and losses to
    aggregation-reassociation tolerance.
    """

    @staticmethod
    def _run(num_shards, max_steps=20):
        from repro.core.types import TaskConfig, TrainingMode
        from repro.sim.population import DevicePopulation, PopulationConfig
        from repro.system.adapters import SurrogateAdapter
        from repro.system.orchestrator import FederatedSimulation, SystemConfig
        from repro.system.planes import ShardedPlane

        pop = DevicePopulation(PopulationConfig(n_devices=400), seed=0)
        cfg = TaskConfig(
            name="t", mode=TrainingMode.ASYNC, concurrency=24,
            aggregation_goal=6, model_size_bytes=200_000,
        )
        fs = FederatedSimulation(
            [(cfg, SurrogateAdapter(seed=0))], pop, seed=0,
            system=SystemConfig(n_aggregators=1),
            plane=ShardedPlane(num_shards=num_shards),
        )
        res = fs.run(t_end=3e5, max_server_steps=max_steps)
        return res, fs

    def test_traces_identical_on_one_node(self):
        res1, fs1 = self._run(1)
        res4, fs4 = self._run(4)

        t1, l1 = res1.trace.loss_curve("t")
        t4, l4 = res4.trace.loss_curve("t")
        np.testing.assert_array_equal(t1, t4)
        np.testing.assert_allclose(l1, l4, rtol=0, atol=1e-6)

        parts1 = [(p.device_id, p.start_time, p.end_time, p.outcome, p.staleness)
                  for p in res1.trace.participations]
        parts4 = [(p.device_id, p.start_time, p.end_time, p.outcome, p.staleness)
                  for p in res4.trace.participations]
        assert parts1 == parts4

        rt4 = fs4.task_runtimes["t"]
        loads = rt4.core.shard_loads()
        assert sum(loads) == res4.stats().aggregated
        assert sum(1 for load in loads if load > 0) > 1  # really sharded


class TestFoldKernelRegistry:
    def test_numpy_kernel_matches_inline_fold_bitwise(self):
        """The kernel IS the in-process fold, op for op."""
        rng = np.random.default_rng(0)
        inputs = rng.standard_normal((6, P)).astype(np.float32)
        # The single core's AXPY.
        partial = np.zeros(P, dtype=np.float64)
        numpy_fold_kernel(partial, inputs, 2, 0.7)
        assert np.array_equal(partial, 0.7 * inputs[2].astype(np.float64))


class TestShardWorkerPool:
    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            ShardWorkerPool(num_shards=0, vector_length=P, slots=4)
        with pytest.raises(ValueError):
            ShardWorkerPool(num_shards=2, vector_length=0, slots=4)
        with pytest.raises(ValueError):
            ShardWorkerPool(num_shards=2, vector_length=P, slots=0)

    def test_close_is_idempotent_and_context_manager_closes(self):
        with ShardWorkerPool(num_shards=1, vector_length=P, slots=2) as pool:
            assert not pool.closed
            assert "ok" in repr(pool)
        assert pool.closed
        pool.close()  # second close is a no-op
        assert "closed" in repr(pool)

    def test_worker_main_in_process_folds_and_resets(self):
        """Drive the worker loop body in-process over real shared memory."""
        from multiprocessing import shared_memory

        slots, S = 4, 2
        input_shm = shared_memory.SharedMemory(create=True, size=slots * P * 4)
        partials_shm = shared_memory.SharedMemory(create=True, size=S * P * 8)
        try:
            inputs = np.ndarray((slots, P), dtype=np.float32, buffer=input_shm.buf)
            partials = np.ndarray((S, P), dtype=np.float64, buffer=partials_shm.buf)
            partials[:] = 0.0
            rng = np.random.default_rng(1)
            inputs[:] = rng.standard_normal((slots, P)).astype(np.float32)
            tasks, acks = queue_mod.Queue(), queue_mod.Queue()
            tasks.put(("fold", (0,), (0.5,), 10))
            tasks.put(("fold", (1,), (0.2,), 11))
            tasks.put(("reset", (), (), 12))
            tasks.put(("fold", (2,), (1.0,), 13))
            tasks.put(None)
            _worker_main(
                1, FoldLane(), input_shm.name, partials_shm.name,
                S, P, slots, tasks, acks,
            )
            # Re-attach views: _worker_main closed its own handles (and
            # with them the buffer our old views aliased).
            inputs = np.ndarray((slots, P), dtype=np.float32, buffer=input_shm.buf)
            partials = np.ndarray((S, P), dtype=np.float64, buffer=partials_shm.buf)
            assert [acks.get_nowait() for _ in range(4)] == [
                (1, 10), (1, 11), (1, 12), (1, 13)
            ]
            # Reset wiped the first two folds; only the last survives.
            assert np.array_equal(partials[1], inputs[2].astype(np.float64))
            assert np.array_equal(partials[0], np.zeros(P))
        finally:
            input_shm.close()
            input_shm.unlink()
            partials_shm.close()
            partials_shm.unlink()

    def test_partials_match_inline_replay(self):
        """Worker-computed partials == the dispatch log replayed inline."""
        rng = np.random.default_rng(2)
        with ShardWorkerPool(num_shards=2, vector_length=P, slots=8) as pool:
            pool.fold_scalar(0, rng.standard_normal(P).astype(np.float32), 0.3)
            for weight in (0.1, 0.2, 0.7):
                pool.fold_scalar(1, rng.standard_normal(P).astype(np.float32), weight)
            pool.fold_scalar(1, rng.standard_normal(P).astype(np.float32), 1.1)
            pool.barrier()
            replayed = pool.replay_partials()
            assert np.array_equal(pool.partial(0), replayed[0])
            assert np.array_equal(pool.partial(1), replayed[1])

    def test_slot_exhaustion_raises_and_marks_unhealthy(self):
        rng = np.random.default_rng(3)
        with ShardWorkerPool(num_shards=1, vector_length=P, slots=2) as pool:
            delta = rng.standard_normal(P).astype(np.float32)
            pool.fold_scalar(0, delta, 1.0)
            pool.fold_scalar(0, delta, 1.0)
            with pytest.raises(WorkerPoolError, match="slab exhausted"):
                pool.fold_scalar(0, delta, 1.0)
            assert not pool.healthy

    def test_reset_epoch_frees_slots_and_zeroes_partials(self):
        rng = np.random.default_rng(4)
        with ShardWorkerPool(num_shards=1, vector_length=P, slots=2) as pool:
            for _ in range(2):
                pool.fold_scalar(0, rng.standard_normal(P).astype(np.float32), 1.0)
            pool.reset_epoch()
            pool.barrier()
            assert np.array_equal(pool.partial(0), np.zeros(P))
            # All slots are free again: a fresh epoch fits.
            for _ in range(2):
                pool.fold_scalar(0, rng.standard_normal(P).astype(np.float32), 1.0)
            pool.barrier()


_CLOSED_USE = r'''
import numpy as np

from repro.core.parallel import (
    ProcessShardedFedBuffAggregator, ShardWorkerPool, WorkerPoolError,
)
from repro.core.server_opt import FedAdam
from repro.core.state import GlobalModelState
from repro.core.types import TrainingResult
from repro.system.secure_sharding import ProcessSecureShardedAggregator

P = 8


def refused(exc, fn, *args):
    try:
        fn(*args)
    except exc as err:
        assert "closed" in str(err), err
    else:
        raise AssertionError(f"{fn.__name__} ran on a closed object")


delta = np.ones(P, dtype=np.float32)
pool = ShardWorkerPool(num_shards=2, vector_length=P, slots=4)
pool.fold_scalar(0, delta, 1.0)
pool.barrier()
pool.close()
for op, args in [
    (pool.partial, (0,)), (pool.rows, (0,)), (pool.replay_partials, ()),
    (pool.fold_scalar, (0, delta, 1.0)),
]:
    refused(WorkerPoolError, op, *args)

for cls, kwargs in [
    (ProcessShardedFedBuffAggregator, {"num_shards": 2}),
    (ProcessSecureShardedAggregator, {"vector_length": P, "num_shards": 2}),
]:
    core = cls(
        GlobalModelState(np.zeros(P, dtype=np.float32), FedAdam(lr=0.1)),
        goal=2, **kwargs,
    )
    core.register_download(1)
    core.close()
    refused(RuntimeError, core.receive_update, TrainingResult(
        client_id=1, delta=delta, num_examples=1, train_loss=0.0,
        initial_version=0,
    ))
print("ok")
'''


class TestClosedExecutor:
    def test_ops_on_a_closed_pool_or_core_raise(self):
        """The ops that reach no slab: safe to try in-process."""
        pool = ShardWorkerPool(num_shards=2, vector_length=P, slots=4)
        pool.close()
        for op, args in [(pool.barrier, ()), (pool.reset_epoch, ()),
                         (pool.discard_shard, (0,)), (pool.call, (0, "reset"))]:
            with pytest.raises(WorkerPoolError, match="closed"):
                op(*args)
        events = []
        core = ProcessShardedFedBuffAggregator(
            fresh_state(), goal=2, num_shards=2,
            on_event=lambda kind, fields: events.append(kind),
        )
        core.close()
        core.close()  # idempotent, and silent
        assert not core.pool_active and "executor=closed" in repr(core)
        for op, args in [(core.drain, ()), (core.drop_shard, (0,))]:
            with pytest.raises(RuntimeError, match="is closed"):
                op(*args)
        assert events == []

    def test_use_after_close_raises_instead_of_reading_unmapped_slabs(self):
        """A closed pool's slabs are unmapped: an op that would read or
        write them, and an upload to a closed process core, must raise
        instead.  Run in a child interpreter, where a regression
        segfaults the child, not the test run."""
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        proc = subprocess.run(
            [sys.executable, "-c", _CLOSED_USE], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
        assert proc.stdout.strip() == "ok"


class TestProcessExecutorEquivalence:
    """The tentpole contract: process executor ≡ inline plane, bit for bit."""

    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_scalar_path_bit_identical(self, start_method, num_shards):
        inline = FedBuffAggregator(
            fresh_state(), goal=6, num_shards=num_shards
        )
        proc = ProcessShardedFedBuffAggregator(
            fresh_state(), goal=6, num_shards=num_shards,
            start_method=start_method,
        )
        try:
            outs_inline, outs_proc = drive_both(inline, proc, seed=7)
            assert proc.pool_active and proc.executor_fallbacks == 0
            assert np.array_equal(
                inline.state.current(), proc.state.current()
            )
            for (u1, s1), (u2, s2) in zip(outs_inline, outs_proc):
                assert u1.weight == u2.weight
                assert (s1 is None) == (s2 is None)
            assert len(inline.step_history) == len(proc.step_history)
            for a, b in zip(inline.step_history, proc.step_history):
                assert a.version == b.version
                assert a.total_weight == b.total_weight
            assert inline.shard_loads() == proc.shard_loads()
        finally:
            proc.close()

    def test_drop_shard_failover_bit_identical(self):
        """Mid-buffer shard failover discards the dead lane's worker
        tasks and still matches the inline plane exactly."""
        rng = np.random.default_rng(23)
        inline = FedBuffAggregator(fresh_state(), goal=6, num_shards=3)
        proc = ProcessShardedFedBuffAggregator(
            fresh_state(), goal=6, num_shards=3
        )
        try:
            for cid in range(10):
                inline.register_download(cid)
                proc.register_download(cid)
            for cid in range(4):
                r = make_result(rng, cid)
                inline.receive_update(r)
                proc.receive_update(r)
            li = inline.drop_shard(1)
            lp = proc.drop_shard(1)
            assert li == lp
            for cid in range(4, 10):
                if inline.shard_of(cid) is None:
                    continue
                r = make_result(rng, cid)
                inline.receive_update(r)
                proc.receive_update(r)
            assert proc.pool_active and proc.executor_fallbacks == 0
            assert np.array_equal(
                inline.state.current(), proc.state.current()
            )
        finally:
            proc.close()

    def test_shared_pool_is_validated_and_reusable(self):
        pool = ShardWorkerPool(num_shards=2, vector_length=P, slots=12)
        try:
            with pytest.raises(ValueError, match="shards"):
                ProcessShardedFedBuffAggregator(
                    fresh_state(), goal=4, num_shards=3, pool=pool
                )
            rng = np.random.default_rng(29)
            states = []
            for _ in range(2):  # two drives over one pool: same bits
                agg = ProcessShardedFedBuffAggregator(
                    fresh_state(), goal=4, num_shards=2, pool=pool
                )
                for cid in range(6):
                    agg.register_download(cid)
                local_rng = np.random.default_rng(31)
                for cid in range(6):
                    agg.receive_update(make_result(local_rng, cid))
                agg.drain()
                states.append(agg.state.current())
                agg.drop_buffer_and_inflight()
                agg.close()  # shared pool: stays up
            assert not pool.closed
            assert np.array_equal(states[0], states[1])
        finally:
            pool.close()
        with pytest.raises(ValueError, match="closed or unhealthy"):
            ProcessShardedFedBuffAggregator(
                fresh_state(), goal=4, num_shards=2, pool=pool
            )

    def test_mismatched_vector_length_rejected(self):
        pool = ShardWorkerPool(num_shards=2, vector_length=P + 1, slots=8)
        try:
            with pytest.raises(ValueError, match="vector length"):
                ProcessShardedFedBuffAggregator(
                    fresh_state(), goal=4, num_shards=2, pool=pool
                )
        finally:
            pool.close()


class TestProcessExecutorFallback:
    """Dead workers and exhausted slabs degrade to inline, bit-identically."""

    @staticmethod
    def _drive(agg, rng, n=30, goal_registered=True):
        for cid in range(n):
            agg.register_download(cid)
        for cid in range(n):
            agg.receive_update(make_result(rng, cid))

    def test_dead_worker_falls_back_bit_identically(self):
        events = []
        inline = FedBuffAggregator(fresh_state(), goal=6, num_shards=3)
        proc = ProcessShardedFedBuffAggregator(
            fresh_state(), goal=6, num_shards=3,
            on_event=lambda kind, fields: events.append((kind, fields)),
        )
        try:
            rng = np.random.default_rng(41)
            for cid in range(12):
                inline.register_download(cid)
                proc.register_download(cid)
            for cid in range(4):
                r = make_result(rng, cid)
                inline.receive_update(r)
                proc.receive_update(r)
            # Kill one worker mid-epoch; the merge barrier notices and
            # the plane replays the epoch's dispatch log inline.
            victim = proc._pool._procs[1]
            victim.terminate()
            victim.join(timeout=5.0)
            for cid in range(4, 12):
                r = make_result(rng, cid)
                inline.receive_update(r)
                proc.receive_update(r)
            assert not proc.pool_active
            assert proc.executor_fallbacks == 1
            kinds = [k for k, _ in events]
            assert "executor_fallback" in kinds
            fields = dict(events[kinds.index("executor_fallback")][1])
            assert fields["reason"] == "worker_dead"
            assert fields["executor"] == "inline"
            assert np.array_equal(
                inline.state.current(), proc.state.current()
            )
        finally:
            proc.close()

    def test_slab_exhaustion_falls_back_bit_identically(self):
        events = []
        # 4 slots but goal=6: the slab fills before a merge frees it.
        pool = ShardWorkerPool(num_shards=2, vector_length=P, slots=4)
        inline = FedBuffAggregator(fresh_state(), goal=6, num_shards=2)
        proc = ProcessShardedFedBuffAggregator(
            fresh_state(), goal=6, num_shards=2, pool=pool,
            on_event=lambda kind, fields: events.append((kind, fields)),
        )
        try:
            rng = np.random.default_rng(43)
            for cid in range(8):
                inline.register_download(cid)
                proc.register_download(cid)
            for cid in range(8):
                r = make_result(rng, cid)
                inline.receive_update(r)
                proc.receive_update(r)
            assert not proc.pool_active
            assert proc.executor_fallbacks == 1
            assert any(
                k == "executor_fallback" and f["reason"] == "pool_error"
                for k, f in events
            )
            assert np.array_equal(
                inline.state.current(), proc.state.current()
            )
        finally:
            proc.close()
            pool.close()

    def test_non_float32_delta_falls_back(self):
        events = []
        inline = FedBuffAggregator(fresh_state(), goal=3, num_shards=2)
        proc = ProcessShardedFedBuffAggregator(
            fresh_state(), goal=3, num_shards=2,
            on_event=lambda kind, fields: events.append((kind, fields)),
        )
        try:
            rng = np.random.default_rng(47)
            for cid in range(4):
                inline.register_download(cid)
                proc.register_download(cid)
            for cid in range(4):
                r = make_result(rng, cid)
                r64 = TrainingResult(
                    r.client_id, r.delta.astype(np.float64), r.num_examples,
                    r.train_loss, r.initial_version,
                )
                inline.receive_update(r64)
                proc.receive_update(r64)
            assert not proc.pool_active
            assert any(
                k == "executor_fallback" and f["reason"] == "unsupported_dtype"
                for k, f in events
            )
            assert np.array_equal(
                inline.state.current(), proc.state.current()
            )
        finally:
            proc.close()


class TestEndToEndProcessExecutor:
    """Full-simulation differential: shard_executor='process' vs 'inline'.

    The executor is a pure data-plane substitution, so the entire event
    schedule AND every numeric output must be identical — and fallback
    events, if any, would land in the structured event log.
    """

    @staticmethod
    def _run(executor, max_steps=12):
        from repro.core.types import TaskConfig, TrainingMode
        from repro.sim.population import DevicePopulation, PopulationConfig
        from repro.system.adapters import SurrogateAdapter
        from repro.system.orchestrator import FederatedSimulation, SystemConfig
        from repro.system.planes import ShardedPlane

        pop = DevicePopulation(PopulationConfig(n_devices=300), seed=0)
        cfg = TaskConfig(
            name="t", mode=TrainingMode.ASYNC, concurrency=16,
            aggregation_goal=5, model_size_bytes=200_000,
        )
        fs = FederatedSimulation(
            [(cfg, SurrogateAdapter(seed=0))], pop, seed=0,
            system=SystemConfig(n_aggregators=1),
            plane=ShardedPlane(num_shards=3, executor=executor),
        )
        res = fs.run(t_end=2e5, max_server_steps=max_steps)
        return res, fs

    def test_traces_identical_to_inline_executor(self):
        res_i, fs_i = self._run("inline")
        res_p, fs_p = self._run("process")
        try:
            rt = fs_p.task_runtimes["t"]
            assert isinstance(rt.core, ProcessShardedFedBuffAggregator)
            assert rt.core.executor_fallbacks == 0

            t_i, l_i = res_i.trace.loss_curve("t")
            t_p, l_p = res_p.trace.loss_curve("t")
            np.testing.assert_array_equal(t_i, t_p)
            np.testing.assert_array_equal(l_i, l_p)  # bit-identical

            parts_i = [(p.device_id, p.start_time, p.end_time, p.outcome)
                       for p in res_i.trace.participations]
            parts_p = [(p.device_id, p.start_time, p.end_time, p.outcome)
                       for p in res_p.trace.participations]
            assert parts_i == parts_p
        finally:
            fs_p.task_runtimes["t"].close()
            fs_i.task_runtimes["t"].close()

    def test_spec_facade_builds_process_executor(self):
        from repro.api import (
            ExecutionSpec,
            PopulationSpec,
            ScenarioSpec,
            TaskSpec,
        )

        spec = ScenarioSpec(
            population=PopulationSpec(n_devices=1000, seed=0),
            tasks=(TaskSpec(name="t", mode="async", concurrency=16,
                            aggregation_goal=4, model_size_bytes=1_000_000),),
            execution=ExecutionSpec(seed=0, t_end_s=1800.0),
        ).with_overrides({
            "plane.name": "sharded",
            "plane.num_shards": 2,
            "plane.executor": "process",
        })
        assert spec.plane.factory().executor == "process"


class TestRootMerge:
    """The root reduce is ``p0 + p1`` then ``+= p_k`` in ascending shard
    order — one statement shared by both executors — and equals
    ``np.add.reduce`` over the same partials byte for byte (what it
    replaced, minus the ``(S, L)`` stacking copy)."""

    SHARD_COUNTS = [2, 3, 5, 8]

    @staticmethod
    def _fill(aggs, num_shards, seed):
        """A partial on every shard, magnitudes spanning twelve decades."""
        rng = np.random.default_rng(seed)
        n = 12 * num_shards
        for cid in range(n):
            for agg in aggs:
                agg.register_download(cid)
        for cid in range(n):
            r = make_result(rng, cid, scale=10.0 ** int(rng.integers(-6, 7)))
            for agg in aggs:
                agg.receive_update(r)
        assert all(count > 0 for agg in aggs for count in agg.shard_buffered())
        return n

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_inline_merge_equals_add_reduce(self, num_shards):
        agg = FedBuffAggregator(fresh_state(), goal=10**6, num_shards=num_shards)
        self._fill([agg], num_shards, seed=num_shards)
        partials = [s.buffer.copy() for s in agg._shards]
        merged = agg._merge_shards()
        assert merged.tobytes() == np.add.reduce(partials).tobytes()
        for shard, before in zip(agg._shards, partials):  # inputs untouched
            assert shard.buffer.tobytes() == before.tobytes()
            assert not np.shares_memory(merged, shard.buffer)

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_process_merge_equals_add_reduce_and_the_inline_merge(self, num_shards):
        inline = FedBuffAggregator(fresh_state(), goal=10**6, num_shards=num_shards)
        pool = ShardWorkerPool(num_shards=num_shards, vector_length=P,
                               slots=12 * num_shards)
        proc = ProcessShardedFedBuffAggregator(
            fresh_state(), goal=10**6, num_shards=num_shards, pool=pool)
        try:
            self._fill([inline, proc], num_shards, seed=num_shards)
            merged = proc._merge_shards()
            partials = [pool.partial(sid).copy() for sid in range(num_shards)]
            assert merged.tobytes() == np.add.reduce(partials).tobytes()
            assert merged.tobytes() == inline._merge_shards().tobytes()
            assert not np.shares_memory(merged, pool._out)
            assert proc.pool_active and proc.executor_fallbacks == 0
        finally:
            pool.close()

    def test_a_lone_process_partial_is_a_private_copy(self):
        """With one non-empty shard the merge is the identity — which on
        the process plane must not be a view of the output slab the
        epoch reset then zeroes."""
        with ShardWorkerPool(num_shards=1, vector_length=P, slots=12) as pool:
            proc = ProcessShardedFedBuffAggregator(
                fresh_state(), goal=10**6, num_shards=1, pool=pool)
            self._fill([proc], 1, seed=1)
            merged = proc._merge_shards()
            assert proc.pool_active
            assert not np.shares_memory(merged, pool._out)
            kept = merged.tobytes()
            assert kept == pool.partial(0).tobytes() != np.zeros(P).tobytes()
            pool.reset_epoch()
            pool.barrier()
            assert merged.tobytes() == kept


class TestTaskChannelBackpressure:
    """Tasks are written on the dispatching thread into a pipe, which —
    unlike the feeder-thread queue it replaced — fills once ~64 KiB are
    unread.  A worker that stops reading, stalled or dead, with more
    than that outstanding in one epoch must still cost exactly one
    ``executor_fallback``, a wait bounded by ``ack_timeout_s`` and not
    one bit of the step."""

    GOAL = 4000

    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize(
        "sig, ack_timeout_s, reasons, bound_s",
        [
            # A stalled worker: the full pipe is waited on for
            # ack_timeout_s, then the dispatch fails over (a platform
            # with roomier pipes times out at the merge barrier instead).
            (signal.SIGSTOP, 1.0, {"pool_error", "worker_dead"}, 1.0 + 3.0),
            # A dead worker's pipe is broken, not full: nothing waits,
            # and the merge barrier names the worker as it always did.
            (signal.SIGKILL, 5.0, {"worker_dead"}, 5.0),
        ],
        ids=["stalled", "dead"],
    )
    def test_one_fallback_in_bounded_time_bit_identically(
        self, start_method, sig, ack_timeout_s, reasons, bound_s
    ):
        events = []
        pool = ShardWorkerPool(
            num_shards=2, vector_length=P, slots=2 * self.GOAL,
            start_method=start_method, ack_timeout_s=ack_timeout_s,
        )
        inline = FedBuffAggregator(fresh_state(), goal=self.GOAL, num_shards=2)
        proc = ProcessShardedFedBuffAggregator(
            fresh_state(), goal=self.GOAL, num_shards=2, pool=pool,
            on_event=lambda kind, fields: events.append((kind, fields)),
        )
        try:
            for cid in range(self.GOAL):
                inline.register_download(cid)
                proc.register_download(cid)
            # More than a pipe's capacity is bound for the victim, even
            # counting every task at its smallest possible pickle.
            smallest = len(pickle.dumps(("fold", (0,), (0.5,), 0),
                                        pickle.HIGHEST_PROTOCOL))
            to_victim = sum(proc.shard_of(cid) == 1 for cid in range(self.GOAL))
            assert to_victim * smallest > 65_536

            victim = pool._procs[1]
            os.kill(victim.pid, sig)
            if sig == signal.SIGKILL:
                victim.join(timeout=5.0)
                assert not victim.is_alive()
            rng = np.random.default_rng(53)
            start = time.monotonic()
            for cid in range(self.GOAL):
                r = make_result(rng, cid)
                inline.receive_update(r)
                proc.receive_update(r)
            elapsed = time.monotonic() - start

            assert elapsed < bound_s
            assert inline.version == proc.version == 1
            assert np.array_equal(inline.state.current(), proc.state.current())
            assert [kind for kind, _ in events] == ["executor_fallback"]
            assert events[0][1]["reason"] in reasons
            assert proc.executor_fallbacks == 1 and not proc.pool_active
            assert not pool.healthy
        finally:
            pool.close()
        # close() reaps even a stopped worker (SIGTERM would stay pending).
        assert not any(p.is_alive() for p in pool._procs)

    def test_a_refused_task_is_not_replayed(self):
        """Dispatch posts before it logs: the task a full pipe refuses is
        folded inline by the caller, so the replay must not hold it too."""
        with ShardWorkerPool(num_shards=1, vector_length=P, slots=4,
                             ack_timeout_s=0.2) as pool:
            delta = np.ones(P, np.float32)
            pool.fold_scalar(0, delta, 1.0)

            pool._task_queues[0].put = lambda msg, timeout: False  # stays full
            with pytest.raises(WorkerPoolError):
                pool.fold_scalar(0, delta, 2.0)
            del pool._task_queues[0].put
            assert not pool.healthy
            assert [args for _, _, _, args in pool.epoch_log()] == [(1.0,)]
            assert np.array_equal(pool.replay_partials()[0], np.ones(P))

    def test_the_epoch_is_closed_before_its_resets_are_posted(self):
        """Should a reset fail to post, the fallback replays an empty
        log — not the epoch that was just merged."""
        with ShardWorkerPool(num_shards=1, vector_length=P, slots=4) as pool:
            pool.fold_scalar(0, np.ones(P, np.float32), 1.0)
            pool.barrier()

            pool._task_queues[0].put = lambda msg, timeout: False  # stays full
            with pytest.raises(WorkerPoolError):
                pool.reset_epoch()
            del pool._task_queues[0].put
            assert pool.epoch_log() == [] and pool.replay_partials() == {}
