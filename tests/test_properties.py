"""Property-based tests (hypothesis) on cross-module invariants.

These complement the per-module tests with randomized sequences of
operations, checking the invariants that the whole reproduction leans on:
aggregation bookkeeping, secure-vs-plain equivalence, event ordering, and
the fixed-point/OTP algebra under composition.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstantStaleness,
    FedBuffAggregator,
    FedSGD,
    GlobalModelState,
    SyncRoundAggregator,
    TrainingResult,
)
from repro.secagg import (
    FixedPointCodec,
    PowerOfTwoGroup,
    expand_mask,
)
from repro.sim import Simulator
from repro.utils import child_rng


def result(cid, delta, n=1, version=0):
    return TrainingResult(
        client_id=cid,
        delta=np.asarray(delta, dtype=np.float32),
        num_examples=n,
        train_loss=0.0,
        initial_version=version,
    )


class TestFedBuffInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        goal=st.integers(1, 8),
        deltas=st.lists(st.floats(-10, 10), min_size=1, max_size=40),
        examples=st.data(),
    )
    def test_bookkeeping_invariants(self, goal, deltas, examples):
        """Whatever arrives: version == steps, buffer < goal, counts add up."""
        state = GlobalModelState(np.zeros(1, np.float32), FedSGD(lr=1.0))
        agg = FedBuffAggregator(state, goal=goal)
        steps = 0
        for cid, d in enumerate(deltas):
            n = examples.draw(st.integers(1, 50))
            v, _ = agg.register_download(cid)
            _, info = agg.receive_update(result(cid, [d], n=n, version=v))
            if info is not None:
                steps += 1
                assert info.num_updates == goal
        assert agg.version == steps == len(deltas) // goal
        assert agg.buffered_count == len(deltas) % goal
        assert agg.buffered_count < goal
        assert agg.updates_received == len(deltas)
        assert agg.in_flight_count() == 0

    @settings(max_examples=30, deadline=None)
    @given(
        deltas=st.lists(st.floats(-5, 5), min_size=2, max_size=10),
        weights=st.data(),
    )
    def test_step_is_convex_combination(self, deltas, weights):
        """The applied average lies within [min, max] of the deltas."""
        ns = [weights.draw(st.integers(1, 100)) for _ in deltas]
        state = GlobalModelState(np.zeros(1, np.float32), FedSGD(lr=1.0))
        agg = FedBuffAggregator(state, goal=len(deltas),
                                staleness_policy=ConstantStaleness())
        for cid, (d, n) in enumerate(zip(deltas, ns)):
            agg.register_download(cid)
            agg.receive_update(result(cid, [d], n=n))
        out = float(state.current()[0])
        assert min(deltas) - 1e-5 <= out <= max(deltas) + 1e-5

    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(list(range(6))))
    def test_unweighted_step_order_invariant(self, order):
        """With constant staleness weights, arrival order cannot change
        the aggregate (same set of updates, same goal)."""
        deltas = [1.0, -2.0, 3.5, 0.25, -0.75, 2.0]

        def run(sequence):
            state = GlobalModelState(np.zeros(1, np.float32), FedSGD(lr=1.0))
            agg = FedBuffAggregator(state, goal=6,
                                    staleness_policy=ConstantStaleness(),
                                    example_weighting="none")
            for cid in sequence:
                agg.register_download(cid)
                agg.receive_update(result(cid, [deltas[cid]]))
            return float(state.current()[0])

        assert run(order) == pytest.approx(run(list(range(6))), rel=1e-6)


class TestSyncRoundInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        goal=st.integers(1, 6),
        n_clients=st.integers(1, 30),
    )
    def test_rounds_partition_contributors(self, goal, n_clients):
        state = GlobalModelState(np.zeros(1, np.float32), FedSGD(lr=1.0))
        agg = SyncRoundAggregator(state, goal=goal)
        seen: set[int] = set()
        for cid in range(n_clients):
            agg.register_download(cid)
            _, info = agg.receive_update(result(cid, [1.0]))
            if info is not None:
                # Contributors are unique and never repeat across rounds.
                assert len(set(info.contributors)) == goal
                assert not (set(info.contributors) & seen)
                seen |= set(info.contributors)
        assert agg.version == n_clients // goal


class TestSecureAlgebra:
    @settings(max_examples=25, deadline=None)
    @given(
        bits=st.sampled_from([16, 32, 64]),
        n_parties=st.integers(1, 8),
        length=st.integers(1, 32),
        seed=st.integers(0, 1000),
    )
    def test_otp_sum_always_recovers(self, bits, n_parties, length, seed):
        group = PowerOfTwoGroup(bits)
        rng = child_rng(seed, "prop-otp")
        values = [group.random(rng, length) for _ in range(n_parties)]
        seeds = [bytes(rng.integers(0, 256, 16, dtype=np.uint8)) for _ in range(n_parties)]
        cipher = group.sum(
            [group.add(v, expand_mask(s, length, group)) for v, s in zip(values, seeds)]
        )
        masks = group.sum([expand_mask(s, length, group) for s in seeds])
        np.testing.assert_array_equal(group.sub(cipher, masks), group.sum(values))

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(st.floats(-1, 1), min_size=1, max_size=12),
        weights=st.lists(st.integers(0, 20), min_size=1, max_size=12),
        seed=st.integers(0, 100),
    )
    def test_weighted_masked_aggregation_algebra(self, values, weights, seed):
        """Σ w·(enc(v)+m) − Σ w·m == enc(Σ w·v) for any weights."""
        k = min(len(values), len(weights))
        values, weights = values[:k], weights[:k]
        group = PowerOfTwoGroup(64)
        codec = FixedPointCodec(group, scale=2**16, clip_value=1.0)
        rng = child_rng(seed, "prop-weighted")
        masked_sum = group.zeros(1)
        mask_sum = group.zeros(1)
        expected = 0.0
        for v, w in zip(values, weights):
            s = bytes(rng.integers(0, 256, 16, dtype=np.uint8))
            enc = codec.encode(np.array([v]))
            m = expand_mask(s, 1, group)
            masked_sum = group.add(masked_sum, group.scale(group.add(enc, m), w))
            mask_sum = group.add(mask_sum, group.scale(m, w))
            expected += w * np.clip(v, -1, 1)
        decoded = codec.decode(group.sub(masked_sum, mask_sum))
        total_w = max(sum(weights), 1)
        assert decoded[0] == pytest.approx(expected, abs=total_w / 2**16 + 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=16),
        st.integers(2, 30),
    )
    def test_fixedpoint_scaled_sums_exact_within_budget(self, values, copies):
        group = PowerOfTwoGroup(64)
        codec = FixedPointCodec(group, scale=2**12, clip_value=100.0)
        enc = codec.encode(np.array(values))
        acc = group.zeros(len(values))
        for _ in range(copies):
            acc = group.add(acc, enc)
        decoded = codec.decode_sum(acc, copies, max_abs=100.0)
        np.testing.assert_allclose(
            decoded, copies * np.clip(values, -100, 100), atol=copies / 2**12
        )


class TestEngineProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=40))
    def test_events_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        fired: list[float] = []
        for d in delays:
            sim.schedule(d, lambda: fired.append(sim.now))
        sim.run_until_idle()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @settings(max_examples=20, deadline=None)
    @given(
        delays=st.lists(st.floats(0.1, 100), min_size=2, max_size=20),
        cancel_idx=st.data(),
    )
    def test_cancellation_removes_exactly_those_events(self, delays, cancel_idx):
        sim = Simulator()
        fired: list[int] = []
        handles = [
            sim.schedule(d, lambda i=i: fired.append(i)) for i, d in enumerate(delays)
        ]
        to_cancel = cancel_idx.draw(
            st.sets(st.integers(0, len(delays) - 1), max_size=len(delays))
        )
        for i in to_cancel:
            handles[i].cancel()
        sim.run_until_idle()
        assert set(fired) == set(range(len(delays))) - to_cancel
