"""Differential suite: the secagg fold-once data plane is bit-identical.

Every fused primitive and the protocol's release are pinned to *exact*
equality with their sequential counterparts — no tolerances anywhere:

* ``expand_mask_block`` rows against per-seed ``expand_mask`` (plus
  stream-independence properties of the expansion itself);
* the fused group reductions (``sum_block`` / ``weighted_sum_block`` /
  ``add_into``) against sequential folds across group widths;
* 2-D fixed-point decode against per-row scalar calls;
* the full Figure 16 protocol, submitted per arrival and released once,
  against the sequential protocol replayed from the clients' seeds —
  the released unmask and the decoded aggregate, weighted or not;
* check-in-time DH completion (``complete_leg``), including its
  boundary-byte meters;
* TSA round re-keying (``begin_round``) and the shared
  :class:`~repro.system.secure.LegPool`, including the secure system
  aggregator's epochs sharing one TSA and leg pool.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FedSGD, GlobalModelState, TrainingResult
from repro.secagg import (
    PowerOfTwoGroup,
    ProtocolError,
    SecAggClient,
    SecAggServer,
    build_deployment,
    expand_mask,
    expand_mask_block,
    generate_seed,
)
from repro.secagg.fixedpoint import FixedPointCodec
from repro.system import LegPool, SecureBufferedAggregator
from repro.utils import child_rng


def seeds_for(n, seed=0):
    rng = child_rng(seed, "dp-seeds")
    return [generate_seed(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# expand_mask_block: row-level bit-identity + stream independence
# ---------------------------------------------------------------------------

class TestExpandMaskBlock:
    @pytest.mark.parametrize("bits", [8, 16, 32, 33, 64])
    @pytest.mark.parametrize("length", [0, 1, 7, 1000])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_rows_bit_identical_to_scalar(self, bits, length, k):
        group = PowerOfTwoGroup(bits)
        seeds = seeds_for(k, seed=bits * 1000 + length)
        block = expand_mask_block(seeds, length, group)
        assert block.shape == (k, length) and block.dtype == group.dtype
        for i, seed in enumerate(seeds):
            assert np.array_equal(block[i], expand_mask(seed, length, group))

    def test_preallocated_out_view(self):
        group = PowerOfTwoGroup(64)
        buf = np.zeros((10, 40), dtype=np.uint64)
        seeds = seeds_for(3)
        out = expand_mask_block(seeds, 40, group, out=buf[4:7])
        assert out.base is buf
        for i, seed in enumerate(seeds):
            assert np.array_equal(buf[4 + i], expand_mask(seed, 40, group))
        assert not buf[:4].any() and not buf[7:].any()

    def test_bad_out_rejected(self):
        group = PowerOfTwoGroup(64)
        with pytest.raises(ValueError, match="out must be"):
            expand_mask_block(seeds_for(2), 8, group,
                              out=np.zeros((2, 9), dtype=np.uint64))
        with pytest.raises(ValueError, match="out must be"):
            expand_mask_block(seeds_for(2), 8, group,
                              out=np.zeros((2, 8), dtype=np.uint32))

    def test_bad_seed_rejected(self):
        group = PowerOfTwoGroup(32)
        with pytest.raises(ValueError, match="16 bytes"):
            expand_mask_block([b"short"], 8, group)
        with pytest.raises(ValueError, match="non-negative"):
            expand_mask_block(seeds_for(1), -1, group)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**63), st.integers(0, 2**63))
    def test_distinct_seeds_distinct_streams(self, a, b):
        """Stream independence: distinct seeds differ somewhere, at every
        length probed — the one-time pads of different clients must never
        collide."""
        if a == b:
            return
        group = PowerOfTwoGroup(64)
        sa, sb = a.to_bytes(16, "little"), b.to_bytes(16, "little")
        for length in (1, 5, 64):
            ma = expand_mask(sa, length, group)
            mb = expand_mask(sb, length, group)
            assert np.any(ma != mb), f"streams collided at length {length}"

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(0, 2**127), min_size=1, max_size=6, unique=True),
        st.sampled_from([0, 1, 3, 17, 257]),
        st.sampled_from([16, 32, 64]),
    )
    def test_block_rows_match_scalar_property(self, keys, length, bits):
        group = PowerOfTwoGroup(bits)
        seeds = [k.to_bytes(16, "little") for k in keys]
        block = expand_mask_block(seeds, length, group)
        for i, seed in enumerate(seeds):
            assert np.array_equal(block[i], expand_mask(seed, length, group))


# ---------------------------------------------------------------------------
# Fused group reductions
# ---------------------------------------------------------------------------

class TestGroupBlockOps:
    @pytest.mark.parametrize("bits", [8, 16, 31, 32, 33, 64])
    def test_sum_block_equals_sequential(self, bits):
        group = PowerOfTwoGroup(bits)
        rng = child_rng(bits, "gb")
        block = group.reduce(rng.integers(0, 2**63, size=(7, 50), dtype=np.uint64))
        seq = group.zeros(50)
        for row in block:
            seq = group.add(seq, row)
        assert np.array_equal(group.sum_block(block), seq)

    @pytest.mark.parametrize("bits", [8, 32, 33, 64])
    def test_weighted_sum_block_equals_sequential(self, bits):
        group = PowerOfTwoGroup(bits)
        rng = child_rng(bits, "gw")
        block = group.reduce(rng.integers(0, 2**63, size=(6, 40), dtype=np.uint64))
        # Include zero, large, and order-exceeding weights.
        weights = [0, 1, 3, group.order - 1, group.order + 5, 2**70]
        seq = group.zeros(40)
        for row, w in zip(block, weights):
            seq = group.add(seq, group.scale(row, w))
        assert np.array_equal(group.weighted_sum_block(block, weights), seq)

    def test_add_into_matches_add(self):
        group = PowerOfTwoGroup(33)
        rng = child_rng(0, "ai")
        a = group.reduce(rng.integers(0, 2**63, size=20, dtype=np.uint64))
        b = group.reduce(rng.integers(0, 2**63, size=20, dtype=np.uint64))
        expected = group.add(a, b)
        out = group.add_into(a, b)
        assert out is a and np.array_equal(a, expected)

    def test_sub_one_pass_matches_add_neg(self):
        group = PowerOfTwoGroup(33)
        rng = child_rng(0, "sb")
        a = group.reduce(rng.integers(0, 2**63, size=20, dtype=np.uint64))
        b = group.reduce(rng.integers(0, 2**63, size=20, dtype=np.uint64))
        assert np.array_equal(group.sub(a, b), group.add(a, group.neg(b)))

    def test_empty_block(self):
        group = PowerOfTwoGroup(32)
        empty = np.zeros((0, 9), dtype=group.dtype)
        assert np.array_equal(group.sum_block(empty), group.zeros(9))
        assert np.array_equal(group.weighted_sum_block(empty, []), group.zeros(9))

    def test_block_validation(self):
        group = PowerOfTwoGroup(32)
        with pytest.raises(ValueError, match="block"):
            group.sum_block(group.zeros(4))  # 1-D is not a block
        with pytest.raises(TypeError):
            group.sum_block(np.zeros((2, 3), dtype=np.uint64))
        with pytest.raises(ValueError, match="one weight per row"):
            group.weighted_sum_block(np.zeros((2, 3), dtype=group.dtype), [1])


# ---------------------------------------------------------------------------
# 2-D fixed point
# ---------------------------------------------------------------------------

class TestFixedPointBlock:
    @pytest.mark.parametrize("bits", [32, 64])
    def test_decode_block_rows_equal_scalar(self, bits):
        codec = FixedPointCodec(PowerOfTwoGroup(bits), scale=2**10, clip_value=2.0)
        rng = child_rng(bits, "fp")
        block = np.stack([codec.encode(row) for row in rng.uniform(-3, 3, size=(5, 17))])
        decoded = codec.decode(block)
        for i in range(5):
            assert np.array_equal(decoded[i], codec.decode(block[i]))

    def test_decode_fast_path_signed_values(self):
        # The 64-bit zero-copy view must reproduce the two's-complement
        # decoding of negative values exactly.
        codec = FixedPointCodec(PowerOfTwoGroup(64), scale=2**16)
        values = np.array([-1.5, -1 / 2**16, 0.0, 1 / 2**16, 2.75])
        assert np.array_equal(codec.decode(codec.encode(values)), values)


# ---------------------------------------------------------------------------
# Protocol-level differential: fold-once release vs the sequential protocol
# ---------------------------------------------------------------------------

class TestProtocolEquivalence:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("group_bits", [32, 33, 64])
    def test_release_equals_sequential_protocol(self, weighted, group_bits):
        """The TSA's one-reduction release and the server's one-pass fold
        equal the pre-vectorization protocol: every mask re-expanded from
        its seed, scaled and folded one arrival at a time."""
        length, n = 200, 6
        dep = build_deployment(length, threshold=n, group_bits=group_bits, seed=9)
        group = dep.codec.group
        released = []
        release = dep.tsa.release_unmask
        dep.tsa.release_unmask = lambda w=None: released.append(release(w)) or released[-1]
        rng = child_rng(0, "pe")
        masked = unmask = group.zeros(length)
        weights, total_w = {}, 0
        for i in range(n):
            client = SecAggClient(i, dep.codec, dep.authority, dep.tsa.binary_hash,
                                  dep.tsa.params_hash, child_rng(9, "c", i))
            sub = client.participate(rng.uniform(-1, 1, length), dep.server.assign_leg())
            assert dep.server.submit(sub) is True
            w = i if weighted else 1  # weight 0 for client 0: the identity
            weights[sub.leg_index] = w
            total_w += w
            masked = group.add(masked, group.scale(sub.masked_update, w))
            mask = expand_mask(client.last_seed, length, group)
            unmask = group.add(unmask, group.scale(mask, w))
        aggregate = dep.server.finalize(weights=weights if weighted else None)
        assert np.array_equal(released[0], unmask)
        expected = dep.codec.decode_sum(group.sub(masked, unmask), total_w, 1.0)
        assert np.array_equal(aggregate, expected)

    def test_scalar_submit_dtype_checked_before_tsa(self):
        # A wrong-dtype masked update must be rejected before the TSA
        # burns the leg — otherwise the mask sum would hold a mask whose
        # masked update never aggregated.
        dep = build_deployment(vector_length=8, threshold=1, seed=21)
        client = SecAggClient(0, dep.codec, dep.authority, dep.tsa.binary_hash,
                              dep.tsa.params_hash, child_rng(21, "c"))
        sub = client.participate(np.zeros(8), dep.server.assign_leg())
        from dataclasses import replace

        bad = replace(sub, masked_update=sub.masked_update.astype(np.uint64))
        with pytest.raises(TypeError, match="dtype"):
            dep.server.submit(bad)
        assert dep.tsa.processed_count == 0  # leg not consumed
        assert dep.server.submit(sub) is True

    def test_submit_shape_checked_before_tsa(self):
        dep = build_deployment(vector_length=8, threshold=1, seed=6)
        client = SecAggClient(0, dep.codec, dep.authority, dep.tsa.binary_hash,
                              dep.tsa.params_hash, child_rng(6, "c"))
        sub = client.participate(np.zeros(8), dep.server.assign_leg())
        from dataclasses import replace

        bad = replace(sub, masked_update=sub.masked_update[:4])
        with pytest.raises(ValueError, match="wrong length"):
            dep.server.submit(bad)
        # Nothing was processed: the good submission still goes through.
        assert dep.tsa.processed_count == 0
        assert dep.server.submit(sub) is True

    def test_complete_leg_amortizes_dh(self):
        dep = build_deployment(vector_length=8, threshold=1, seed=7)
        client = SecAggClient(0, dep.codec, dep.authority, dep.tsa.binary_hash,
                              dep.tsa.params_hash, child_rng(7, "c"))
        sub = client.participate(np.ones(8), dep.server.assign_leg())
        assert dep.tsa.complete_leg(sub.leg_index, sub.completing_message) is True
        # Second completing message for the same leg is refused.
        assert dep.tsa.complete_leg(sub.leg_index, sub.completing_message) is False
        # The submission is processed against the cached channel key; the
        # inline completing message is not needed again.
        assert dep.server.submit(sub) is True
        agg = dep.server.finalize()
        np.testing.assert_allclose(agg, np.ones(8), atol=1e-3)

    def test_complete_leg_boundary_total_matches_inline(self):
        def run(precomplete):
            dep = build_deployment(vector_length=8, threshold=1, seed=8)
            client = SecAggClient(0, dep.codec, dep.authority,
                                  dep.tsa.binary_hash, dep.tsa.params_hash,
                                  child_rng(8, "c"))
            sub = client.participate(np.zeros(8), dep.server.assign_leg())
            if precomplete:
                dep.server.complete_checkin(sub)
            dep.server.submit(sub)
            return dep.tsa.boundary_bytes_in

        assert run(True) == run(False)

    def test_complete_leg_rejects_unknown_and_used(self):
        dep = build_deployment(vector_length=4, threshold=1, seed=9)
        client = SecAggClient(0, dep.codec, dep.authority, dep.tsa.binary_hash,
                              dep.tsa.params_hash, child_rng(9, "c"))
        sub = client.participate(np.zeros(4), dep.server.assign_leg())
        assert dep.tsa.complete_leg(999, sub.completing_message) is False
        assert dep.tsa.complete_leg(sub.leg_index, 1) is False  # degenerate key
        dep.server.submit(sub)
        # Leg consumed: completion for it is refused from now on.
        assert dep.tsa.complete_leg(sub.leg_index, sub.completing_message) is False


# ---------------------------------------------------------------------------
# Rounds and the shared leg pool
# ---------------------------------------------------------------------------

class TestRoundsAndLegPool:
    def _deployment_parties(self, seed, vector_length=8, threshold=1):
        dep = build_deployment(vector_length=vector_length, threshold=threshold,
                               seed=seed)
        return dep

    def submit_one(self, dep, cid, value, leg=None):
        client = SecAggClient(cid, dep.codec, dep.authority, dep.tsa.binary_hash,
                              dep.tsa.params_hash, child_rng(77, "c", cid))
        sub = client.participate(value, leg or dep.server.assign_leg())
        assert dep.server.submit(sub) is True
        return sub

    def test_begin_round_rekeys_release(self):
        dep = self._deployment_parties(seed=10)
        self.submit_one(dep, 0, np.full(8, 0.5))
        first = dep.server.finalize()
        np.testing.assert_allclose(first, np.full(8, 0.5), atol=1e-3)
        with pytest.raises(ProtocolError):
            dep.tsa.release_unmask()
        # Re-key: a fresh round accepts new contributions and releases
        # exactly once again, without re-minting the leg supply.
        dep.tsa.begin_round()
        dep.server.begin_round()
        self.submit_one(dep, 1, np.full(8, 0.25))
        second = dep.server.finalize()
        np.testing.assert_allclose(second, np.full(8, 0.25), atol=1e-3)
        assert dep.tsa.round_index == 1

    def test_used_legs_stay_burned_across_rounds(self):
        dep = self._deployment_parties(seed=11)
        sub = self.submit_one(dep, 0, np.zeros(8))
        dep.server.finalize()
        dep.tsa.begin_round()
        dep.server.begin_round()
        # Replaying the old leg in the new round must be rejected.
        assert dep.server.submit(sub) is False

    def test_leg_pool_refills_in_blocks(self):
        dep = self._deployment_parties(seed=12)
        mints = []
        original = dep.tsa.prepare_legs

        def counting(count):
            mints.append(count)
            return original(count)

        dep.tsa.prepare_legs = counting
        pool = LegPool(dep.tsa, block_size=4, prefill=2)
        assert pool.available == 2 and pool.minted == 2
        seen = {pool.take().index for _ in range(7)}
        assert len(seen) == 7
        assert mints == [2, 4, 4]  # prefill, then two block refills
        assert pool.minted == 10
        with pytest.raises(ValueError):
            LegPool(dep.tsa, block_size=0)

    def test_server_refill_size_defaults_to_initial(self):
        dep = self._deployment_parties(seed=13)
        mints = []
        original = dep.tsa.prepare_legs

        def counting(count):
            mints.append(count)
            return original(count)

        dep.tsa.prepare_legs = counting
        server = SecAggServer(dep.tsa, dep.codec, initial_legs=5)
        for _ in range(6):
            server.assign_leg()
        assert mints == [5, 5]  # refill matches the initial pool size
        custom = SecAggServer(dep.tsa, dep.codec, initial_legs=2, refill_size=7)
        for _ in range(3):
            custom.assign_leg()
        assert mints == [5, 5, 2, 7]
        with pytest.raises(ValueError):
            SecAggServer(dep.tsa, dep.codec, initial_legs=2, refill_size=0)


# ---------------------------------------------------------------------------
# Secure system aggregator: epochs re-key one long-lived TSA
# ---------------------------------------------------------------------------

def _result(cid, delta, n=1, version=0):
    return TrainingResult(
        client_id=cid, delta=np.asarray(delta, dtype=np.float32),
        num_examples=n, train_loss=1.0, initial_version=version,
    )


class TestSecureAggregatorEpochs:
    def test_epochs_share_tsa_and_pool(self):
        agg = SecureBufferedAggregator(
            GlobalModelState(np.zeros(6, dtype=np.float32), FedSGD(lr=1.0)),
            goal=2, vector_length=6, seed=0,
        )
        tsa_before = agg._shards[0].tsa
        pool_before = agg._shards[0].pool
        for i in range(4):
            agg.register_download(i)
        for i in range(4):
            agg.receive_update(_result(i, [0.5] * 6))
        assert agg.epochs_completed == 2
        assert agg._shards[0].tsa is tsa_before  # re-keyed, not re-stood-up
        assert agg._shards[0].pool is pool_before
        assert agg._shards[0].tsa.round_index == 2
        assert agg.log.size == 1  # one manifest for the task's lifetime
