"""Differential equivalence suite: secure sharded plane vs single secure plane.

The contract under test (see ``repro/system/secure_sharding.py``) is
**stronger** than the float plane's: group math mod 2^bits is exact
under machine wraparound, so for any shard count and either routing
policy the merged masked group sums, the released unmask, the decoded
model deltas, and the cumulative boundary-byte meters of
:class:`SecureBufferedAggregator` are **exactly equal** (``==``, no
tolerance) to the single :class:`SecureBufferedAggregator` fed the same
arrivals; ``num_shards=1`` is bit-identical to the single plane both
ways; mid-run shard failure composed with epoch re-keying leaves the
plane matching a single secure aggregator fed only the surviving
arrivals; and the process executor reproduces the inline plane bit for
bit, falling back through the dispatch-log replay when a worker dies.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.sharding import HashShardRouting, merge_group_partials
from repro.core.types import TrainingResult
from repro.system.secure import SecureBufferedAggregator
from repro.system.secure_sharding import ProcessSecureShardedAggregator, SecureLane

P = 48  # vector length: small keeps the per-arrival modexp cost down

START_METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]


class VecState:
    """Minimal model-state stand-in: apply() accumulates the avg delta."""

    def __init__(self, n=P):
        self.vec = np.zeros(n, dtype=np.float32)
        self.size = n

    def current(self):
        return self.vec.copy()

    def apply(self, avg, n):
        self.vec += avg


def make_result(rng, cid, version=0):
    return TrainingResult(
        client_id=cid,
        delta=(rng.standard_normal(P) * 0.1).astype(np.float32),
        num_examples=int(rng.integers(1, 50)),
        train_loss=float(rng.random()),
        initial_version=version,
    )


def step_tuples(agg):
    return [
        (s.version, s.num_updates, s.total_weight, s.mean_staleness,
         s.max_staleness, s.contributors)
        for s in agg.step_history
    ]


def meters(agg):
    return (agg.boundary_bytes_in_total, agg.boundary_bytes_out_total)


def drive_both(single, sharded, seed=0, n=17, waves=3):
    """Identical multi-wave arrival sequences through both planes.

    Clients register in waves (later waves carry real staleness) and
    upload in a shuffled order; the global version/updates_received
    counters that key each client's randomness stream advance in
    lockstep, so the masked vectors are bit-identical across planes.
    """
    rng = np.random.default_rng(seed)
    next_cid = 0
    for _ in range(waves):
        cids = list(range(next_cid, next_cid + n))
        next_cid += n
        for agg in (single, sharded):
            for cid in cids:
                agg.register_download(cid)
        assert single.version == sharded.version
        order = rng.permutation(len(cids))
        for idx in order:
            cid = cids[int(idx)]
            version = single._in_flight[cid]
            assert sharded._in_flight[cid] == version
            r = make_result(rng, cid, version=version)
            u1, s1 = single.receive_update(r)
            u2, s2 = sharded.receive_update(r)
            assert u1.weight == u2.weight
            assert u1.staleness == u2.staleness
            assert (s1 is None) == (s2 is None)


def assert_exactly_equivalent(single, sharded):
    """The full ``==`` contract: state, steps, and meters, no tolerance."""
    assert single.version == sharded.version
    assert single.updates_received == sharded.updates_received
    assert step_tuples(single) == step_tuples(sharded)
    assert np.array_equal(single.state.current(), sharded.state.current())
    assert meters(single) == meters(sharded)


class TestSecureShardedEquivalence:
    @pytest.mark.parametrize("num_shards", [2, 3, 5])
    @pytest.mark.parametrize("routing", ["hash", "load"])
    def test_matches_single_secure_plane_exactly(self, num_shards, routing):
        single = SecureBufferedAggregator(VecState(), 6, P, seed=3)
        sharded = SecureBufferedAggregator(
            VecState(), 6, P, num_shards=num_shards, routing=routing, seed=3
        )
        drive_both(single, sharded, seed=num_shards)
        assert_exactly_equivalent(single, sharded)
        # The work really spread: more than one shard folded something.
        if num_shards > 1:
            assert sum(1 for load in sharded.shard_loads() if load > 0) > 1

    @pytest.mark.parametrize("routing", ["hash", "load"])
    def test_merged_masked_group_sum_equals_single_at_buffer_edge(
        self, routing
    ):
        """One arrival short of the goal, the shards' merged masked
        weighted group sum equals the single plane's — bit for bit,
        while still masked."""
        goal = 6
        single = SecureBufferedAggregator(VecState(), goal, P, seed=5)
        sharded = SecureBufferedAggregator(
            VecState(), goal, P, num_shards=3, routing=routing, seed=5
        )
        rng = np.random.default_rng(7)
        for cid in range(goal - 1):
            single.register_download(cid)
            sharded.register_download(cid)
            r = make_result(rng, cid)
            single.receive_update(r)
            sharded.receive_update(r)
        assert len(single.step_history) == 0  # epoch still open

        ref, ref_w = single._shards[0].server.masked_weighted_sum(
            single._shards[0].weights
        )
        partials = []
        total_w = 0
        for sid, shard in enumerate(sharded._shards):
            if not shard.weights:
                continue
            masked, w = shard.server.masked_weighted_sum(shard.weights)
            partials.append((sid, masked))
            total_w += w
        merged = merge_group_partials(sharded.group, partials, P)
        assert total_w == ref_w
        assert np.array_equal(merged, ref)

        # The goal-th arrival closes the epoch; the unmasked decode and
        # the stashed root artifacts stay exactly consistent.
        single.register_download(goal)
        sharded.register_download(goal)
        r = make_result(rng, goal)
        single.receive_update(r)
        sharded.receive_update(r)
        assert_exactly_equivalent(single, sharded)
        # The stashed root artifacts re-decode to exactly the applied
        # delta: merged masked sum − released unmask → weighted sum →
        # weighted average (the state started at zeros and took 1 step).
        from repro.system.secure import WEIGHT_SCALE

        encoded = sharded.group.sub(
            sharded.last_merged_masked_sum, sharded.last_unmask
        )
        total_w = int(round(sharded.step_history[-1].total_weight * WEIGHT_SCALE))
        weighted = sharded.codec.decode_sum(
            encoded, max(total_w, 1), sharded.clip_value
        )
        avg = (weighted / float(total_w)).astype(np.float32)
        assert np.array_equal(avg, sharded.state.current())

    def test_single_shard_is_bit_identical_both_ways(self):
        single = SecureBufferedAggregator(VecState(), 5, P, seed=11)
        sharded = SecureBufferedAggregator(
            VecState(), 5, P, num_shards=1, seed=11
        )
        drive_both(single, sharded, seed=11, n=13, waves=2)
        assert_exactly_equivalent(single, sharded)
        assert sharded.shard_loads() == [sharded.updates_received]

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            SecureBufferedAggregator(VecState(), 4, P, num_shards=0)
        with pytest.raises(ValueError):
            SecureBufferedAggregator(VecState(), 4, P, routing="nope")


class TestSecureShardFailover:
    @pytest.mark.parametrize("routing", ["hash", "load"])
    def test_mid_run_failure_matches_single_on_survivors(self, routing):
        """After a shard dies mid-epoch, the plane **exactly** matches a
        single secure aggregator fed only the surviving arrivals (the
        individual masked vectors differ — the survivors plane derives
        different mask seeds — but the masks cancel out of the group sum
        and every decoded bit agrees)."""
        rng = np.random.default_rng(21)
        sharded = SecureBufferedAggregator(
            VecState(), 5, P, num_shards=3, routing=routing, seed=9
        )
        results = [make_result(rng, cid) for cid in range(24)]
        for r in results:
            sharded.register_download(r.client_id)
        for r in results[:12]:  # two full epochs + 2 buffered
            sharded.receive_update(r)
        lost, dropped_clients = sharded.drop_shard(1)
        assert lost > 0 or dropped_clients  # non-trivial failover
        for r in results[12:]:
            if r.client_id in dropped_clients:
                with pytest.raises(KeyError):
                    sharded.receive_update(r)
            else:
                sharded.receive_update(r)

        survivors = set(
            cid for step in sharded.step_history for cid in step.contributors
        ) | set(sharded._contributors)
        single = SecureBufferedAggregator(VecState(), 5, P, seed=9)
        for r in results:
            single.register_download(r.client_id)
        for r in results:
            if r.client_id in survivors:
                single.receive_update(r)

        assert single.version == sharded.version
        assert step_tuples(single) == step_tuples(sharded)
        assert np.array_equal(single.state.current(), sharded.state.current())
        assert sharded.shard_failovers == 1

    def test_dead_slice_reroutes_exactly_once_and_snaps_back(self):
        sharded = SecureBufferedAggregator(
            VecState(), 100, P, num_shards=4, routing="hash", seed=1
        )
        probe = next(
            cid for cid in range(1000)
            if HashShardRouting().route(cid, sharded._shards) == 2
        )
        sharded.drop_shard(2)
        assert not sharded.shard_alive(2)
        assert sharded.live_shards() == [0, 1, 3]
        sharded.register_download(probe)
        assert sharded.shard_of(probe) == 3  # probed past the dead shard
        # The re-route landed exactly once: one in-flight slot total.
        assert sum(s.in_flight for s in sharded._shards) == 1
        sharded.client_failed(probe)
        assert sum(s.in_flight for s in sharded._shards) == 0

        sharded.revive_shard(2)
        assert sharded.shard_alive(2)
        sharded.register_download(probe)
        assert sharded.shard_of(probe) == 2  # slice snaps back on revive
        assert sharded.shard_failovers == 1

    def test_legpool_and_tsa_persist_across_epoch_rekeying(self):
        """Epoch re-keying (`begin_round`) reuses each shard's long-lived
        TSA, server, and LegPool: no new trusted party, no re-mint-from-
        zero — demand minting just continues on the same pool."""
        sharded = SecureBufferedAggregator(
            VecState(), 4, P, num_shards=2, routing="hash", seed=2
        )
        idents = [
            (id(s.tsa), id(s.server), id(s.pool)) for s in sharded._shards
        ]
        rng = np.random.default_rng(3)
        for cid in range(12):  # three full epochs
            v0, _ = sharded.register_download(cid)
            sharded.receive_update(make_result(rng, cid, version=v0))
        assert sharded.epochs_completed == 3
        assert idents == [
            (id(s.tsa), id(s.server), id(s.pool)) for s in sharded._shards
        ]
        # Demand minting (block_size=1): lifetime legs == lifetime folds,
        # accumulated across re-keyed epochs on the same pools.
        for shard in sharded._shards:
            assert shard.pool.minted == shard.folds_total
        assert sum(s.pool.minted for s in sharded._shards) == 12

    def test_boundary_meters_conserve_across_failover_epoch(self):
        """Every byte that crossed a trust boundary lands in the plane's
        cumulative meters exactly once, even when a shard (with pre-drop
        traffic already metered) dies inside the epoch and its slice is
        excised."""
        sharded = SecureBufferedAggregator(
            VecState(), 4, P, num_shards=3, routing="hash", seed=4
        )
        rng = np.random.default_rng(5)
        cid = 0
        # One clean epoch, then a partial epoch with traffic on several
        # shards, then a failover inside the epoch.
        def feed():
            nonlocal cid
            v0, _ = sharded.register_download(cid)
            sharded.receive_update(make_result(rng, cid, version=v0))
            cid += 1

        while sharded.epochs_completed < 1:
            feed()
        for _ in range(2):
            feed()
        sharded.drop_shard(1)
        while sharded.epochs_completed < 2:
            feed()
        # Immediately after a finalize the sweep is complete: the plane's
        # totals equal the sum of the long-lived TSAs' cumulative meters
        # (dead shard's pre-drop traffic included) plus the reducer's
        # released unmasks — nothing dropped, nothing double-counted.
        assert sharded.boundary_bytes_in_total == sum(
            s.tsa.boundary_bytes_in for s in sharded._shards
        )
        assert sharded.boundary_bytes_out_total == (
            sum(s.tsa.boundary_bytes_out for s in sharded._shards)
            + sharded._reducer.boundary_bytes_out
        )


class TestProcessSecureExecutor:
    """The executor contract: worker-process shards ≡ inline, bit for bit."""

    @staticmethod
    def _drive(agg, seed=7, n=23, kill_at=None):
        rng = np.random.default_rng(seed)
        for cid in range(n):
            v0, _ = agg.register_download(cid)
            if kill_at is not None and cid == kill_at:
                agg.kill_worker(1)
            agg.receive_update(make_result(rng, cid, version=v0))

    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_bit_identical_to_inline(self, start_method, num_shards):
        inline = SecureBufferedAggregator(
            VecState(), 5, P, num_shards=num_shards, seed=3
        )
        proc = ProcessSecureShardedAggregator(
            VecState(), 5, P, num_shards=num_shards, seed=3,
            start_method=start_method,
        )
        try:
            self._drive(inline)
            self._drive(proc)
            assert proc.pool_active and proc.executor_fallbacks == 0
            assert_exactly_equivalent(inline, proc)
            assert inline.shard_loads() == proc.shard_loads()
        finally:
            proc.close()

    def test_dead_worker_falls_back_bit_identically(self):
        events = []
        inline = SecureBufferedAggregator(
            VecState(), 5, P, num_shards=4, seed=3
        )
        proc = ProcessSecureShardedAggregator(
            VecState(), 5, P, num_shards=4, seed=3,
            on_event=lambda kind, fields: events.append((kind, fields)),
        )
        try:
            self._drive(inline)
            self._drive(proc, kill_at=9)
            assert not proc.pool_active
            assert proc.executor_fallbacks == 1
            kinds = [k for k, _ in events]
            assert "executor_fallback" in kinds
            assert_exactly_equivalent(inline, proc)
        finally:
            proc.close()

    def test_drop_and_revive_match_inline_in_process_mode(self):
        inline = SecureBufferedAggregator(
            VecState(), 5, P, num_shards=3, seed=3
        )
        proc = ProcessSecureShardedAggregator(
            VecState(), 5, P, num_shards=3, seed=3
        )
        try:
            dropped = []
            for agg in (inline, proc):
                rng = np.random.default_rng(19)
                for cid in range(8):
                    agg.register_download(cid)
                for cid in range(4):
                    agg.receive_update(make_result(rng, cid))
                dropped.append(agg.drop_shard(1))
                agg.revive_shard(1)
                for cid in range(4, 8):
                    if agg.shard_of(cid) is None:
                        continue
                    agg.receive_update(make_result(rng, cid))
            assert dropped[0] == dropped[1]  # same loss, same dropped clients
            assert proc.pool_active and proc.executor_fallbacks == 0
            assert_exactly_equivalent(inline, proc)
        finally:
            proc.close()


    def test_whole_plane_drop_matches_inline_in_process_mode(self):
        """The lost epoch's boundary traffic is excluded from the meters
        on both executors (the worker marks used to keep counting it)."""
        inline = SecureBufferedAggregator(
            VecState(), 5, P, num_shards=3, seed=3
        )
        proc = ProcessSecureShardedAggregator(
            VecState(), 5, P, num_shards=3, seed=3
        )
        try:
            dropped = []
            for agg in (inline, proc):
                rng = np.random.default_rng(23)
                for cid in range(3):
                    agg.register_download(cid)
                for cid in range(3):
                    agg.receive_update(make_result(rng, cid))
                dropped.append(agg.drop_buffer_and_inflight())
                for cid in range(3, 14):
                    v0, _ = agg.register_download(cid)
                    agg.receive_update(make_result(rng, cid, version=v0))
            assert dropped[0] == dropped[1]
            assert proc.pool_active and proc.executor_fallbacks == 0
            assert_exactly_equivalent(inline, proc)
        finally:
            proc.close()

    def test_malformed_delta_raises_without_degrading_the_executor(self):
        """A wrong-length delta is the caller's error: it surfaces as
        itself, and only ``WorkerPoolError`` may trip the fallback."""
        proc = ProcessSecureShardedAggregator(
            VecState(), 5, P, num_shards=2, seed=3
        )
        try:
            rng = np.random.default_rng(29)
            proc.register_download(0)
            proc.register_download(1)
            bad = make_result(rng, 0)
            bad = TrainingResult(
                bad.client_id, bad.delta[:-1], bad.num_examples,
                bad.train_loss, bad.initial_version,
            )
            with pytest.raises(ValueError):
                proc.receive_update(bad)
            assert proc.pool_active and proc.executor_fallbacks == 0
            assert proc.shard_in_flight() == [
                int(proc.shard_of(1) == sid) for sid in range(2)
            ]
            proc.receive_update(make_result(rng, 1))  # the pool still serves
            proc.drain()
            assert proc.pool_active and proc.executor_fallbacks == 0
        finally:
            proc.close()

    def test_secure_lane_handler_in_process_matches_inline_shard(self):
        """Drive the secure lane's op handler in-process (child-process
        code is invisible to coverage): participate x2 -> finalize_partial
        -> begin_round, against an inline ``_SecureShard`` fed the same
        arrivals."""
        inline = SecureBufferedAggregator(VecState(), 2, P, num_shards=2, seed=3)
        lane = SecureLane(
            inline.seed, inline.goal, inline.group.bits, inline.codec.scale,
            inline.clip_value, True,
        )
        rng = np.random.default_rng(31)
        inputs = (rng.standard_normal((4, P)) * 0.1).astype(np.float32)
        rows = np.zeros((lane.out_rows, P), dtype=lane.out_dtype)
        handle = lane.open(1, inputs, rows)
        shard = inline._shards[1]
        ctx = inline._client_ctx()
        arrivals = [(2, (7, 0, 0, 64, 10)), (0, (9, 0, 1, 96, 3))]
        for slot, args in arrivals:
            assert handle("participate", (slot,), args) is None
            assert shard.participate(ctx, inputs[slot].copy(), *args)
        masked, unmask, processed, total_w = shard.release_partial()
        assert handle("finalize_partial", (), ()) == (processed, total_w)
        assert (processed, total_w) == (2, 160)
        assert np.array_equal(rows[0], masked)
        assert np.array_equal(rows[1], unmask)
        assert handle("meters", (), ()) == shard.meters()
        # Re-keyed: the next round starts empty on both sides.
        assert handle("begin_round", (), ()) is None
        shard.rekey()
        slot, args = 3, (11, 1, 2, 64, 5)
        assert handle("participate", (slot,), args) is None
        assert shard.participate(ctx, inputs[slot].copy(), *args)
        masked, unmask, processed, total_w = shard.release_partial()
        assert handle("finalize_partial", (), ()) == (1, 64)
        assert np.array_equal(rows[0], masked)
        assert np.array_equal(rows[1], unmask)


class TestSecureShardsExperimentMicro:
    """Micro-scale runs of the ``secure_shards`` ExperimentSpec."""

    @pytest.mark.parametrize("routing", ["hash", "load"])
    def test_micro_sweep_is_exact_everywhere(self, routing):
        from repro.harness.perf import secure_shards_speedup

        res = secure_shards_speedup(
            shard_counts=(1, 2), goals=(4,), vector_lengths=(64,),
            epochs=2, routing=routing, repeats=1, seed=3,
        )
        assert len(res.points) == 2
        for p in res.points:
            assert p.bit_identical
            assert p.boundary_match
            assert p.process_fallbacks == 0
            assert p.arrivals == 8
            assert p.single_s > 0 and p.sharded_path_s > 0 and p.process_s > 0
            assert p.load_skew >= 1.0
        assert {p.num_shards for p in res.points} == {1, 2}
        assert res.cpu_count >= 1

    def test_printer_renders(self, capsys):
        from repro.harness.perf import (
            print_secure_shards,
            secure_shards_speedup,
        )

        res = secure_shards_speedup(
            shard_counts=(2,), goals=(4,), vector_lengths=(64,),
            epochs=1, repeats=1,
        )
        print_secure_shards(res)
        out = capsys.readouterr().out
        assert "Secure sharded plane" in out
        assert "modeled x" in out and "measured x" in out
        assert "bit-identical" in out and "boundary ok" in out

    def test_registered_and_json_round_trips(self):
        from repro.harness import registry
        from repro.harness.perf import (
            SecureShardsResult,
            secure_shards_speedup,
        )

        spec = registry.get("secure_shards")
        assert spec.result_type is SecureShardsResult
        assert not spec.uses_scale
        res = secure_shards_speedup(
            shard_counts=(2,), goals=(4,), vector_lengths=(64,),
            epochs=1, repeats=1,
        )
        restored = spec.deserialize(spec.serialize(res))
        assert restored == res  # frozen dataclasses: exact field equality
