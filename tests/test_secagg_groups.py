"""Tests for the finite group, fixed-point codec, PRNG masks, and OTP."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secagg import (
    FixedPointCodec,
    FixedPointOverflowError,
    PowerOfTwoGroup,
    SEED_BYTES,
    SecAggClient,
    build_deployment,
    expand_mask,
    generate_seed,
    recommend_codec,
)
from repro.utils import child_rng


@pytest.fixture(params=[16, 32, 64])
def group(request):
    return PowerOfTwoGroup(request.param)


class TestGroup:
    def test_add_wraps(self):
        g = PowerOfTwoGroup(8)
        a = g.reduce(np.array([250], dtype=np.uint64))
        b = g.reduce(np.array([10], dtype=np.uint64))
        np.testing.assert_array_equal(g.add(a, b), [4])

    def test_identity(self, group):
        rng = child_rng(0, "grp")
        a = group.random(rng, 16)
        np.testing.assert_array_equal(group.add(a, group.zeros(16)), a)

    def test_inverse(self, group):
        rng = child_rng(1, "grp")
        a = group.random(rng, 16)
        np.testing.assert_array_equal(group.add(a, group.neg(a)), group.zeros(16))

    def test_sub_is_add_neg(self, group):
        rng = child_rng(2, "grp")
        a, b = group.random(rng, 8), group.random(rng, 8)
        np.testing.assert_array_equal(group.sub(a, b), group.add(a, group.neg(b)))

    def test_commutative_associative(self, group):
        rng = child_rng(3, "grp")
        a, b, c = (group.random(rng, 8) for _ in range(3))
        np.testing.assert_array_equal(group.add(a, b), group.add(b, a))
        np.testing.assert_array_equal(
            group.add(group.add(a, b), c), group.add(a, group.add(b, c))
        )

    def test_scale_matches_repeated_addition(self, group):
        rng = child_rng(4, "grp")
        a = group.random(rng, 8)
        acc = group.zeros(8)
        for _ in range(7):
            acc = group.add(acc, a)
        np.testing.assert_array_equal(group.scale(a, 7), acc)

    def test_scale_zero_and_order(self, group):
        rng = child_rng(5, "grp")
        a = group.random(rng, 4)
        np.testing.assert_array_equal(group.scale(a, 0), group.zeros(4))
        np.testing.assert_array_equal(group.scale(a, group.order), group.zeros(4))

    def test_scale_large_weight_exact(self):
        # Weight bigger than 2^32 in a 32-bit group must still be exact.
        g = PowerOfTwoGroup(32)
        a = g.reduce(np.array([123456789], dtype=np.uint64))
        k = 2**35 + 12345
        expected = (123456789 * k) % g.order
        np.testing.assert_array_equal(g.scale(a, k), [expected])

    def test_sum_of_vectors(self, group):
        rng = child_rng(6, "grp")
        vs = [group.random(rng, 8) for _ in range(5)]
        manual = group.zeros(8)
        for v in vs:
            manual = group.add(manual, v)
        np.testing.assert_array_equal(group.sum(vs), manual)

    def test_sum_empty(self, group):
        assert group.sum([]).size == 0

    def test_dtype_enforced(self, group):
        bad = np.zeros(4, dtype=np.float32)
        with pytest.raises(TypeError):
            group.add(bad, bad)

    def test_random_in_range(self, group):
        a = group.random(child_rng(7, "grp"), 1000)
        assert int(a.max()) < group.order

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            PowerOfTwoGroup(0)
        with pytest.raises(ValueError):
            PowerOfTwoGroup(65)

    def test_equality(self):
        assert PowerOfTwoGroup(32) == PowerOfTwoGroup(32)
        assert PowerOfTwoGroup(32) != PowerOfTwoGroup(16)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    def test_add_matches_python_mod(self, bits, x, y):
        g = PowerOfTwoGroup(bits)
        a = g.reduce(np.array([x], dtype=np.uint64))
        b = g.reduce(np.array([y], dtype=np.uint64))
        assert int(g.add(a, b)[0]) == (x + y) % g.order


class TestAliasingContract:
    """No group op mutates an argument; results never share memory with
    an argument or with the protocol's persistent state (the one stated
    exception: ``reduce`` of an in-group array at full storage width)."""

    WIDTHS = [16, 32, 63, 64]

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_ops_leave_inputs_untouched_and_return_fresh_arrays(self, bits):
        g = PowerOfTwoGroup(bits)
        rng = child_rng(bits, "alias")
        a, b = g.random(rng, 257), g.random(rng, 257)
        a0, b0 = a.copy(), b.copy()
        block = np.stack([a, b])
        results = [
            g.add(a, b), g.sub(a, b), g.neg(a), g.scale(a, 3), g.scale(a, 0),
            g.sum([a]), g.sum([a, b]), g.sum_block(block),
            g.weighted_sum_block(block, [2, 5]),
            g.reduce(a.astype(np.uint64) + np.uint64(1)),
        ]
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)
        for out in results:
            assert out.dtype == g.dtype
            assert int(out.max()) < g.order
            assert not np.shares_memory(out, a)
            assert not np.shares_memory(out, b)
            assert not np.shares_memory(out, block)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_reduce_never_mutates(self, bits):
        g = PowerOfTwoGroup(bits)
        wide = np.array([0, 1, 2**40 + 7, 2**64 - 1], dtype=np.uint64)
        wide0 = wide.copy()
        expected = [int(x) % g.order for x in wide0]
        out = g.reduce(wide)
        np.testing.assert_array_equal(wide, wide0)
        assert out.dtype == g.dtype and [int(x) for x in out] == expected
        # Same dtype but out of range (only possible below storage width).
        raw = np.full(4, np.iinfo(g.dtype).max, dtype=g.dtype)
        reduced = g.reduce(raw)
        assert int(raw[0]) == np.iinfo(g.dtype).max
        assert int(reduced[0]) == g.order - 1
        # The identity case hands back its argument — by contract.
        assert (reduced is raw) == (bits in (32, 64))

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_into_ops_touch_only_the_accumulator(self, bits):
        g = PowerOfTwoGroup(bits)
        rng = child_rng(bits, "alias-into")
        acc, b = g.random(rng, 64), g.random(rng, 64)
        b0, expect = b.copy(), g.add(acc, b)
        assert g.add_into(acc, b) is acc
        np.testing.assert_array_equal(acc, expect)
        np.testing.assert_array_equal(b, b0)
        tmp = np.empty_like(acc)
        expect = g.add(acc, g.scale(b, 7))
        g.mac_into(acc, b, 7, tmp)
        np.testing.assert_array_equal(acc, expect)
        np.testing.assert_array_equal(b, b0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bits", [16, 32, 64])
    def test_encode_leaves_input_untouched(self, bits, dtype):
        codec = FixedPointCodec(PowerOfTwoGroup(bits), scale=2**6, clip_value=1.0)
        values = np.array([-3.0, -1.0, -0.0, 0.0, 0.26, 1.0, 9.0], dtype=dtype)
        before = values.tobytes()
        encoded = codec.encode(values)
        assert values.tobytes() == before
        assert not np.shares_memory(encoded, values)
        block = np.stack([values, values])
        assert np.array_equal(codec.encode(block)[1], encoded)
        assert block.tobytes() == before * 2

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("bits", [32, 64])
    def test_protocol_outputs_do_not_alias_persistent_state(self, bits, weighted):
        """Masked uploads, the cached mask rows, the released unmask and the
        decoded aggregate never share memory, and later admissions and the
        release leave every kept masked vector and cached row as it was."""
        length = 33
        dep = build_deployment(length, threshold=2, group_bits=bits, clip_value=1.0)
        updates = [child_rng(i, "alias-upd").uniform(-1, 1, length) for i in range(3)]
        originals = [u.copy() for u in updates]
        subs = []
        for i, update in enumerate(updates):
            client = SecAggClient(
                i, dep.codec, dep.authority, dep.tsa.binary_hash,
                dep.tsa.params_hash, child_rng(i, "alias-client"),
            )
            subs.append(client.participate(update, dep.server.assign_leg(), dep.log_bundle))
            snapshot = [s.masked_update.copy() for s in subs]
            assert dep.server.submit(subs[-1])
            for sub, snap in zip(subs, snapshot):
                np.testing.assert_array_equal(sub.masked_update, snap)
                assert not np.shares_memory(sub.masked_update, dep.tsa._rows)
        for update, original in zip(updates, originals):
            np.testing.assert_array_equal(update, original)
        kept = [s.masked_update.copy() for s in dep.server.accepted_submissions]
        rows = dep.tsa._rows[:3].copy()
        released = []
        release = dep.tsa.release_unmask
        dep.tsa.release_unmask = lambda w=None: released.append(release(w)) or released[-1]
        weights = {s.leg_index: 2 for s in subs} if weighted else None
        aggregate = dep.server.finalize(weights=weights)
        scale = 2 if weighted else 1
        np.testing.assert_allclose(aggregate, scale * np.sum(updates, axis=0), atol=1e-3)
        for sub, snap in zip(dep.server.accepted_submissions, kept):
            np.testing.assert_array_equal(sub.masked_update, snap)
            assert not np.shares_memory(aggregate, sub.masked_update)
            assert not np.shares_memory(released[0], sub.masked_update)
        np.testing.assert_array_equal(dep.tsa._rows[:3], rows)
        assert not np.shares_memory(released[0], dep.tsa._rows)
        assert not np.shares_memory(aggregate, dep.tsa._rows)
        assert not np.shares_memory(aggregate, released[0])

    def test_released_unmask_is_a_copy(self):
        dep = build_deployment(8, threshold=1, group_bits=64)
        client = SecAggClient(
            0, dep.codec, dep.authority, dep.tsa.binary_hash,
            dep.tsa.params_hash, child_rng(0, "alias-release"),
        )
        sub = client.participate(np.zeros(8), dep.server.assign_leg(), dep.log_bundle)
        assert dep.server.submit(sub)
        released = dep.tsa.release_unmask()
        assert not np.shares_memory(released, dep.tsa._rows)
        np.testing.assert_array_equal(released, dep.tsa._rows[0])


class TestFullWidthAllocation:
    """At ``bits == 64`` every op is its one arithmetic pass: the only
    allocation is the result (ISSUE 13 acceptance: peak ≤ 1.1x a vector)."""

    N = 1_000_000

    def _peak(self, fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("op", ["add", "sub", "neg", "scale", "reduce", "random"])
    def test_single_result_allocation(self, op):
        g = PowerOfTwoGroup(64)
        a = g.random(child_rng(0, "alloc-a"), self.N)
        b = g.random(child_rng(0, "alloc-b"), self.N)
        rng = child_rng(0, "alloc-r")
        calls = {
            "add": lambda: g.add(a, b),
            "sub": lambda: g.sub(a, b),
            "neg": lambda: g.neg(a),
            "scale": lambda: g.scale(a, 12345),
            "reduce": lambda: g.reduce(a),
            "random": lambda: g.random(rng, self.N),
        }
        assert self._peak(calls[op]) <= 1.1 * a.nbytes

    def test_encode_peak_is_two_vectors(self):
        # One private float64 buffer + the int64 result viewed as uint64.
        codec = FixedPointCodec(PowerOfTwoGroup(64), scale=2**16, clip_value=4.0)
        values = child_rng(0, "alloc-v").uniform(-1, 1, self.N).astype(np.float32)
        assert self._peak(lambda: codec.encode(values)) <= 2.1 * 8 * self.N


class TestFixedPoint:
    def test_roundtrip_resolution(self):
        codec = FixedPointCodec(PowerOfTwoGroup(32), scale=2**16)
        v = np.array([0.5, -0.25, 0.0, 1.0 / 65536])
        out = codec.decode(codec.encode(v))
        np.testing.assert_allclose(out, v, atol=1.0 / 2**16)

    def test_negative_values_roundtrip(self):
        codec = FixedPointCodec(PowerOfTwoGroup(32), scale=2**10)
        v = np.array([-100.0, -0.001, 99.5])
        np.testing.assert_allclose(codec.decode(codec.encode(v)), v, atol=2.0 / 2**10)

    def test_sum_in_group_equals_real_sum(self):
        g = PowerOfTwoGroup(32)
        codec = FixedPointCodec(g, scale=2**12)
        rng = child_rng(0, "fp")
        vs = [rng.uniform(-1, 1, 32) for _ in range(10)]
        enc_sum = g.sum([codec.encode(v) for v in vs])
        real_sum = np.sum(vs, axis=0)
        np.testing.assert_allclose(codec.decode(enc_sum), real_sum, atol=10 * 2 / 2**12)

    def test_overflow_detected_on_encode(self):
        codec = FixedPointCodec(PowerOfTwoGroup(16), scale=2**10)
        with pytest.raises(FixedPointOverflowError):
            codec.encode(np.array([100.0]))  # 100*1024 > 2^15

    @pytest.mark.parametrize("clip_value", [None, 4.0])
    def test_nan_rejected_on_encode(self, clip_value):
        # NaN fails every comparison, so a range check written as
        # "min < low or max >= high" would let it through; clipping keeps
        # a NaN a NaN.
        codec = FixedPointCodec(PowerOfTwoGroup(64), scale=2**16,
                                clip_value=clip_value)
        with pytest.raises(FixedPointOverflowError, match="NaN"):
            codec.encode(np.array([np.nan, 1.0]))
        with pytest.raises(FixedPointOverflowError, match="NaN"):
            codec.encode(np.array([[0.5, 1.0], [1.0, np.nan]]))

    def test_signed_range_splits_the_group(self):
        codec = FixedPointCodec(PowerOfTwoGroup(16), scale=2**4)
        assert codec.half_low == 2**15 and codec.half_high == 2**15
        assert codec.half_low + codec.half_high == codec.group.order
        assert codec.max_abs_value == (2**15 - 1) / 2**4

    def test_range_edges_roundtrip(self):
        codec = FixedPointCodec(PowerOfTwoGroup(16), scale=2**4)
        lowest = -codec.half_low / codec.scale  # two's-complement minimum
        v = np.array([codec.max_abs_value, lowest])
        np.testing.assert_array_equal(codec.decode(codec.encode(v)), v)

    def test_one_past_the_positive_edge_overflows(self):
        codec = FixedPointCodec(PowerOfTwoGroup(16), scale=2**4)
        with pytest.raises(FixedPointOverflowError, match="fixed-point range"):
            codec.encode(np.array([codec.half_high / codec.scale]))
        with pytest.raises(FixedPointOverflowError):
            codec.encode(np.array([-(codec.half_low + 1) / codec.scale]))

    def test_clip_prevents_overflow(self):
        codec = FixedPointCodec(PowerOfTwoGroup(16), scale=2**10, clip_value=10.0)
        out = codec.decode(codec.encode(np.array([100.0])))
        assert out[0] == pytest.approx(10.0)

    def test_max_summands_budget(self):
        codec = FixedPointCodec(PowerOfTwoGroup(32), scale=2**16)
        n = codec.max_summands(max_abs=1.0)
        # n values of magnitude 1.0 at scale 2^16 must fit in 2^31.
        assert n * 2**16 <= 2**31 - 1
        assert (n + 2) * 2**16 > 2**31 - 1

    def test_decode_sum_rejects_unsound_workload(self):
        codec = FixedPointCodec(PowerOfTwoGroup(16), scale=2**8)
        enc = codec.encode(np.array([0.0]))
        with pytest.raises(FixedPointOverflowError):
            codec.decode_sum(enc, num_summands=10_000, max_abs=1.0)

    def test_decode_sum_accepts_sound_workload(self):
        g = PowerOfTwoGroup(32)
        codec = FixedPointCodec(g, scale=2**8)
        vs = [np.array([1.0]), np.array([-0.5])]
        enc = g.sum([codec.encode(v) for v in vs])
        out = codec.decode_sum(enc, num_summands=2, max_abs=1.0)
        assert out[0] == pytest.approx(0.5, abs=2 / 2**8)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            FixedPointCodec(PowerOfTwoGroup(32), scale=0)
        with pytest.raises(ValueError):
            FixedPointCodec(PowerOfTwoGroup(32), clip_value=-1)
        codec = FixedPointCodec(PowerOfTwoGroup(32))
        with pytest.raises(ValueError):
            codec.max_summands(0)
        with pytest.raises(ValueError):
            codec.decode_sum(codec.encode(np.zeros(1)), 0, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20),
    )
    def test_roundtrip_property(self, values):
        codec = FixedPointCodec(PowerOfTwoGroup(32), scale=2**16)
        v = np.array(values)
        np.testing.assert_allclose(codec.decode(codec.encode(v)), v, atol=1.5 / 2**16)


class TestRecommendCodec:
    def test_recommendation_satisfies_workload(self):
        codec = recommend_codec(max_abs=1.0, max_summands=1000, precision=1e-4)
        assert codec.max_summands(1.0) >= 1000
        assert 1.0 / codec.scale <= 1e-4

    def test_sums_are_exact_at_recommended_parameters(self):
        codec = recommend_codec(max_abs=2.0, max_summands=64, precision=1e-3)
        g = codec.group
        rng = child_rng(0, "rec")
        vs = [rng.uniform(-2, 2, 8) for _ in range(64)]
        acc = g.sum([codec.encode(v) for v in vs])
        np.testing.assert_allclose(
            codec.decode(acc), np.sum(vs, axis=0), atol=64 * 1e-3
        )

    def test_weights_expand_the_group(self):
        small = recommend_codec(1.0, 100, 1e-3, max_weight=1)
        big = recommend_codec(1.0, 100, 1e-3, max_weight=10_000)
        assert big.group.bits > small.group.bits

    def test_never_recommends_63_bits(self):
        # Workload engineered to want exactly 63 bits; must bump to 64.
        for summands in (2**40, 2**41, 2**42):
            try:
                codec = recommend_codec(1.0, summands, 1e-4)
            except ValueError:
                continue
            assert codec.group.bits != 63

    def test_impossible_workload_rejected(self):
        with pytest.raises(ValueError, match="bit group"):
            recommend_codec(max_abs=1e6, max_summands=10**12, precision=1e-9)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            recommend_codec(0.0, 10, 1e-4)
        with pytest.raises(ValueError):
            recommend_codec(1.0, 0, 1e-4)
        with pytest.raises(ValueError):
            recommend_codec(1.0, 10, 0.0)


class TestMaskExpansion:
    def test_deterministic(self):
        g = PowerOfTwoGroup(32)
        seed = b"0123456789abcdef"
        np.testing.assert_array_equal(
            expand_mask(seed, 100, g), expand_mask(seed, 100, g)
        )

    def test_different_seeds_differ(self):
        g = PowerOfTwoGroup(32)
        a = expand_mask(b"0123456789abcdef", 100, g)
        b = expand_mask(b"0123456789abcdeg", 100, g)
        assert not np.array_equal(a, b)

    def test_wrong_seed_length_rejected(self):
        with pytest.raises(ValueError):
            expand_mask(b"short", 10, PowerOfTwoGroup(32))

    def test_generate_seed_length_and_determinism(self):
        assert len(generate_seed()) == SEED_BYTES
        rng1 = child_rng(0, "seed")
        rng2 = child_rng(0, "seed")
        assert generate_seed(rng1) == generate_seed(rng2)

    def test_mask_marginals_roughly_uniform(self):
        g = PowerOfTwoGroup(32)
        m = expand_mask(b"0123456789abcdef", 50_000, g)
        # Top bit should be set about half the time.
        frac = float((m >> np.uint32(31)).mean())
        assert 0.47 < frac < 0.53


class TestOTP:
    """Figure 14's one-time pad on the live masking primitives.

    A client hides ``v`` as ``v + expand_mask(seed)``; masked vectors add in
    the group, and subtracting the sum of every contributor's mask recovers
    the plaintext sum — the arithmetic ``SecAggClient`` and the TSA run.
    """

    @staticmethod
    def mask(v, seed, g):
        return g.add(v, expand_mask(seed, len(v), g))

    @staticmethod
    def unmask_sum(masked_sum, seeds, g):
        masks = [expand_mask(s, len(masked_sum), g) for s in seeds]
        return g.sub(masked_sum, g.sum(masks))

    def test_figure14_roundtrip(self):
        # Enc, homomorphic Add, Dec — the exact scheme of Figure 14.
        g = PowerOfTwoGroup(32)
        rng = child_rng(0, "otp")
        v1, v2 = g.random(rng, 64), g.random(rng, 64)
        s1, s2 = generate_seed(rng), generate_seed(rng)
        c = g.add(self.mask(v1, s1, g), self.mask(v2, s2, g))
        np.testing.assert_array_equal(self.unmask_sum(c, [s1, s2], g), g.add(v1, v2))

    def test_single_ciphertext_hides_plaintext(self):
        g = PowerOfTwoGroup(32)
        v = g.zeros(64)  # extremely structured plaintext
        c = self.mask(v, generate_seed(child_rng(1, "otp")), g)
        assert not np.array_equal(c, v)

    def test_wrong_seed_fails_to_decrypt(self):
        g = PowerOfTwoGroup(32)
        rng = child_rng(2, "otp")
        v = g.random(rng, 16)
        s, wrong = generate_seed(rng), generate_seed(rng)
        c = self.mask(v, s, g)
        assert not np.array_equal(self.unmask_sum(c, [wrong], g), v)

    def test_many_party_aggregation(self):
        g = PowerOfTwoGroup(32)
        rng = child_rng(3, "otp")
        vs = [g.random(rng, 32) for _ in range(20)]
        seeds = [generate_seed(rng) for _ in range(20)]
        csum = g.sum([self.mask(v, s, g) for v, s in zip(vs, seeds)])
        np.testing.assert_array_equal(self.unmask_sum(csum, seeds, g), g.sum(vs))
