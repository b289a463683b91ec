"""Tests for the differential-privacy extension (paper's future work)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    DPConfig,
    DPFedBuffAggregator,
    FedSGD,
    GlobalModelState,
    TrainingResult,
    ZCDPAccountant,
    clip_by_l2_norm,
)


def make_state(dim=4):
    return GlobalModelState(np.zeros(dim, dtype=np.float32), FedSGD(lr=1.0))


def result(cid, delta, version=0):
    return TrainingResult(
        client_id=cid,
        delta=np.asarray(delta, dtype=np.float32),
        num_examples=1,
        train_loss=1.0,
        initial_version=version,
    )


class TestClipping:
    def test_small_vector_unchanged(self):
        v = np.array([0.3, 0.4], dtype=np.float32)  # norm 0.5
        np.testing.assert_array_equal(clip_by_l2_norm(v, 1.0), v)

    def test_large_vector_scaled_to_bound(self):
        v = np.array([3.0, 4.0], dtype=np.float32)  # norm 5
        out = clip_by_l2_norm(v, 1.0)
        assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-6)
        # Direction preserved.
        np.testing.assert_allclose(out / np.linalg.norm(out), v / 5.0, rtol=1e-6)

    def test_zero_vector_stable(self):
        v = np.zeros(3, dtype=np.float32)
        np.testing.assert_array_equal(clip_by_l2_norm(v, 1.0), v)

    def test_returns_copy(self):
        v = np.array([0.1], dtype=np.float32)
        out = clip_by_l2_norm(v, 1.0)
        out[0] = 99
        assert v[0] == pytest.approx(0.1)

    @settings(max_examples=30)
    @given(hnp.arrays(np.float32, st.integers(1, 16),
                      elements=st.floats(-100, 100, width=32)))
    def test_clip_property(self, v):
        out = clip_by_l2_norm(v, 1.0)
        assert np.linalg.norm(out) <= 1.0 + 1e-5


class TestAccountant:
    def test_no_releases_no_cost(self):
        acc = ZCDPAccountant(DPConfig(noise_multiplier=1.0))
        assert acc.rho == 0.0
        assert acc.epsilon() == 0.0

    def test_rho_composition_linear(self):
        acc = ZCDPAccountant(DPConfig(noise_multiplier=1.0))
        for _ in range(10):
            acc.record_release()
        assert acc.rho == pytest.approx(5.0)  # 10 / (2 * 1)

    def test_more_noise_less_epsilon(self):
        low = ZCDPAccountant(DPConfig(noise_multiplier=0.5))
        high = ZCDPAccountant(DPConfig(noise_multiplier=2.0))
        for acc in (low, high):
            for _ in range(5):
                acc.record_release()
        assert high.epsilon() < low.epsilon()

    def test_zero_noise_infinite_epsilon(self):
        acc = ZCDPAccountant(DPConfig(noise_multiplier=0.0))
        acc.record_release()
        assert math.isinf(acc.epsilon())

    def test_epsilon_monotone_in_releases(self):
        acc = ZCDPAccountant(DPConfig(noise_multiplier=1.0))
        eps = []
        for _ in range(5):
            acc.record_release()
            eps.append(acc.epsilon())
        assert all(a < b for a, b in zip(eps, eps[1:]))

    def test_delta_validation(self):
        acc = ZCDPAccountant(DPConfig())
        with pytest.raises(ValueError):
            acc.epsilon(delta=0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DPConfig(clip_norm=0)
        with pytest.raises(ValueError):
            DPConfig(noise_multiplier=-1)
        with pytest.raises(ValueError):
            DPConfig(delta=1.0)


class TestDPFedBuff:
    def test_updates_clipped_before_buffering(self):
        dp = DPConfig(clip_norm=1.0, noise_multiplier=0.0)
        agg = DPFedBuffAggregator(make_state(2), goal=1, dp=dp, seed=0)
        agg.register_download(0)
        agg.receive_update(result(0, [30.0, 40.0]))  # norm 50 -> clipped to 1
        out = agg.state.current()
        assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-5)

    def test_noise_added_per_step(self):
        dp = DPConfig(clip_norm=1.0, noise_multiplier=1.0)
        agg = DPFedBuffAggregator(make_state(4), goal=2, dp=dp, seed=0)
        for cid in (0, 1):
            agg.register_download(cid)
            agg.receive_update(result(cid, [0.0, 0.0, 0.0, 0.0]))
        # Zero inputs, yet the model moved: that is the DP noise.
        assert np.linalg.norm(agg.state.current()) > 0

    def test_noise_scale_matches_mechanism(self):
        # With zero inputs, each step's average equals noise ~ N(0,(zC/K)^2).
        dp = DPConfig(clip_norm=2.0, noise_multiplier=1.5)
        goal = 4
        samples = []
        agg = DPFedBuffAggregator(make_state(64), goal=goal, dp=dp, seed=1)
        state_prev = agg.state.current()
        for step in range(30):
            for i in range(goal):
                cid = step * goal + i
                agg.register_download(cid)
                agg.receive_update(result(cid, np.zeros(64), version=step))
            now = agg.state.current()
            samples.append(now - state_prev)
            state_prev = now
        observed = np.std(np.concatenate(samples))
        expected = dp.noise_multiplier * dp.clip_norm / goal
        assert observed == pytest.approx(expected, rel=0.1)

    def test_noise_lands_on_the_merged_buffer_at_any_shard_count(self):
        # The noise is drawn once per step, after the shard partials are
        # merged: with zero inputs every shard count moves the model by
        # the same draw, and none of it is lost to a partial.
        def run(num_shards):
            agg = DPFedBuffAggregator(
                make_state(8), goal=4, dp=DPConfig(noise_multiplier=1.0),
                seed=3, num_shards=num_shards,
            )
            for cid in range(4):
                agg.register_download(cid)
                agg.receive_update(result(cid, np.zeros(8)))
            assert agg.accountant.releases == 1
            return agg.state.current()

        one = run(1)
        assert np.linalg.norm(one) > 0
        for num_shards in (2, 3):
            np.testing.assert_array_equal(run(num_shards), one)

    def test_accountant_tracks_steps(self):
        dp = DPConfig(noise_multiplier=1.0)
        agg = DPFedBuffAggregator(make_state(1), goal=1, dp=dp, seed=0)
        for cid in range(3):
            agg.register_download(cid)
            agg.receive_update(result(cid, [0.1], version=cid))
        assert agg.accountant.releases == 3
        assert agg.epsilon_spent > 0

    def test_unsafe_weighting_rejected(self):
        with pytest.raises(ValueError, match="sensitivity"):
            DPFedBuffAggregator(
                make_state(1), goal=1, dp=DPConfig(), example_weighting="linear"
            )

    def test_noise_deterministic_per_seed(self):
        def run(seed):
            agg = DPFedBuffAggregator(
                make_state(4), goal=1, dp=DPConfig(noise_multiplier=1.0), seed=seed
            )
            agg.register_download(0)
            agg.receive_update(result(0, [0.0] * 4))
            return agg.state.current()

        np.testing.assert_array_equal(run(7), run(7))
        assert not np.array_equal(run(7), run(8))

    def test_staleness_weighting_still_applies(self):
        dp = DPConfig(clip_norm=10.0, noise_multiplier=0.0)
        agg = DPFedBuffAggregator(make_state(1), goal=2, dp=dp, seed=0)
        agg.register_download(0)  # will be stale by 1 after a first step
        agg.register_download(10)
        agg.register_download(11)
        agg.receive_update(result(10, [0.0]))
        agg.receive_update(result(11, [0.0]))  # version -> 1
        agg.register_download(1)
        agg.receive_update(result(1, [0.0], version=1))
        upd, info = agg.receive_update(result(0, [2.0], version=0))
        assert upd.weight == pytest.approx(1 / np.sqrt(2))
        # buffer/goal normalization: (2 * w) / 2
        np.testing.assert_allclose(
            agg.state.current()[0], 2 * upd.weight / 2, rtol=1e-5
        )
