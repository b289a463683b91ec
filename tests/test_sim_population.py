"""Tests for the heterogeneous device population and network model."""

import numpy as np
import pytest

from repro.sim import (
    ColumnarDevicePopulation,
    DevicePopulation,
    NetworkModel,
    PopulationConfig,
)
from repro.utils import child_rng


@pytest.fixture(scope="module")
def pop():
    return DevicePopulation(PopulationConfig(n_devices=20_000), seed=7)


class TestProfiles:
    def test_deterministic(self, pop):
        a, b = pop.profile(42), pop.profile(42)
        assert a == b

    def test_cached_identity(self, pop):
        assert pop.profile(43) is pop.profile(43)

    def test_out_of_range_rejected(self, pop):
        with pytest.raises(ValueError):
            pop.profile(20_000)
        with pytest.raises(ValueError):
            pop.profile(-1)

    def test_examples_bounded(self, pop):
        profs = pop.sample_profiles(500, child_rng(0, "t"))
        for p in profs:
            assert 1 <= p.n_examples <= pop.config.max_examples

    def test_execution_time_formula(self, pop):
        p = pop.profile(1)
        t = p.execution_time(overhead_s=2.0)
        assert t == pytest.approx(2.0 + p.n_examples * p.sec_per_example)
        assert p.execution_time(2.0, epochs=2) > t

    def test_heterogeneity_spans_orders_of_magnitude(self, pop):
        # Figure 2: the execution-time distribution spans >2 orders.
        stats = pop.execution_time_stats(2000)
        assert stats["spread_orders_of_magnitude"] > 2.0

    def test_straggler_tail(self, pop):
        # Mean >> median under a heavy right tail.
        stats = pop.execution_time_stats(2000)
        assert stats["mean"] > 1.5 * stats["median"]
        assert stats["p99"] > 5 * stats["median"]

    def test_slow_devices_have_more_data(self, pop):
        # Figure 11's mechanism: positive speed/data correlation.
        profs = pop.sample_profiles(3000, child_rng(1, "t"))
        sec = np.array([p.sec_per_example for p in profs])
        n = np.array([p.n_examples for p in profs])
        corr = np.corrcoef(np.log(sec), np.log(n))[0, 1]
        assert corr > 0.3

    def test_zero_correlation_config(self):
        pop0 = DevicePopulation(
            PopulationConfig(n_devices=5000, speed_data_correlation=0.0), seed=1
        )
        profs = pop0.sample_profiles(2000, child_rng(2, "t"))
        sec = np.array([p.sec_per_example for p in profs])
        n = np.array([p.n_examples for p in profs])
        corr = np.corrcoef(np.log(sec), np.log(n))[0, 1]
        assert abs(corr) < 0.15

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            PopulationConfig(n_devices=0)
        with pytest.raises(ValueError):
            PopulationConfig(speed_data_correlation=1.5)
        with pytest.raises(ValueError):
            PopulationConfig(dropout_rate=-0.1)
        with pytest.raises(ValueError):
            PopulationConfig(eligibility_rate=0.0)
        with pytest.raises(ValueError):
            PopulationConfig(mean_examples=0)

    @pytest.mark.parametrize("field, value, message", [
        ("max_examples", 0, "max_examples must be at least 1"),
        ("max_examples", -5, "max_examples must be at least 1"),
        ("max_examples", float("nan"), "max_examples must be at least 1"),
        ("mean_examples", float("nan"), "mean_examples must be finite"),
        ("mean_examples", float("inf"), "mean_examples must be finite"),
        ("sigma_examples", float("nan"), "sigma_examples must be finite"),
        ("sigma_speed", float("nan"), "sigma_speed must be finite"),
        ("median_sec_per_example", float("nan"), "median_sec_per_example must be finite"),
        ("overhead_s", float("nan"), "overhead_s must be finite"),
    ])
    def test_out_of_range_values_rejected(self, field, value, message):
        # NaN slips through ``<= 0`` checks; before these were rejected a
        # NaN mean crashed ``profile`` and gave columnar devices
        # ``n_examples = -2**31``, and ``max_examples=0`` failed mid-run.
        with pytest.raises(ValueError, match=f"^{message}$"):
            PopulationConfig(**{field: value})


class TestStochasticBehaviour:
    def test_dropout_rate_approximate(self, pop):
        drops = sum(
            pop.dropout_point(d, 0) is not None for d in range(2000)
        )
        assert 0.06 < drops / 2000 < 0.14  # config rate is 0.1

    def test_dropout_fraction_in_range(self, pop):
        for d in range(300):
            frac = pop.dropout_point(d, 0)
            if frac is not None:
                assert 0.0 < frac < 1.0

    def test_dropout_deterministic_per_participation(self, pop):
        assert pop.dropout_point(5, 3) == pop.dropout_point(5, 3)

    def test_eligibility_rate_approximate(self, pop):
        ok = sum(pop.is_eligible(d, 0) for d in range(2000))
        assert 0.74 < ok / 2000 < 0.86  # config rate is 0.8

    def test_eligibility_varies_per_checkin(self, pop):
        rolls = {pop.is_eligible(11, c) for c in range(50)}
        assert rolls == {True, False}


class TestDiurnalAvailability:
    @pytest.fixture(scope="class")
    def diurnal_pop(self):
        return DevicePopulation(
            PopulationConfig(n_devices=5000, eligibility_rate=0.5,
                             diurnal_amplitude=0.6),
            seed=3,
        )

    def test_rate_peaks_at_night(self, diurnal_pop):
        night = diurnal_pop.eligibility_rate_at(3 * 3600.0)   # 3 am
        afternoon = diurnal_pop.eligibility_rate_at(15 * 3600.0)  # 3 pm
        assert night > afternoon
        assert night == pytest.approx(0.5 * 1.6, rel=1e-6)
        assert afternoon == pytest.approx(0.5 * 0.4, rel=1e-6)

    def test_rate_is_24h_periodic(self, diurnal_pop):
        day = 24 * 3600.0
        assert diurnal_pop.eligibility_rate_at(7 * 3600.0) == pytest.approx(
            diurnal_pop.eligibility_rate_at(7 * 3600.0 + 5 * day)
        )

    def test_rate_clipped_to_unit_interval(self):
        pop = DevicePopulation(
            PopulationConfig(n_devices=10, eligibility_rate=0.9,
                             diurnal_amplitude=0.9),
            seed=0,
        )
        for h in range(24):
            assert 0.0 <= pop.eligibility_rate_at(h * 3600.0) <= 1.0

    def test_acceptance_tracks_rate(self, diurnal_pop):
        def rate(t):
            ok = sum(diurnal_pop.is_eligible(d, 0, time_s=t) for d in range(2000))
            return ok / 2000

        assert rate(3 * 3600.0) > rate(15 * 3600.0) + 0.3

    def test_zero_amplitude_time_invariant(self, pop):
        assert pop.eligibility_rate_at(0.0) == pop.eligibility_rate_at(50_000.0)

    def test_invalid_amplitude(self):
        with pytest.raises(ValueError):
            PopulationConfig(diurnal_amplitude=1.0)


class TestNetworkModel:
    def test_download_faster_than_upload(self, pop):
        net = NetworkModel()
        p = pop.profile(0)
        nbytes = 20 * 1024 * 1024
        assert net.download_time(p, nbytes) < net.upload_time(p, nbytes)

    def test_chunked_upload_pays_per_chunk_rtt(self, pop):
        net = NetworkModel(rtt_s=0.1, chunk_bytes=1024)
        p = pop.profile(0)
        t_small = net.upload_time(p, 1024)
        t_big = net.upload_time(p, 10 * 1024)
        assert t_big > t_small + 8 * 0.1  # ~9 extra chunks

    def test_zero_bytes_costs_rtt(self, pop):
        net = NetworkModel(rtt_s=0.2)
        assert net.download_time(pop.profile(0), 0) == pytest.approx(0.2)

    def test_negative_bytes_rejected(self, pop):
        net = NetworkModel()
        with pytest.raises(ValueError):
            net.download_time(pop.profile(0), -1)
        with pytest.raises(ValueError):
            net.upload_time(pop.profile(0), -1)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NetworkModel(rtt_s=-1)
        with pytest.raises(ValueError):
            NetworkModel(chunk_bytes=0)

    def test_invalid_cdn_speedup(self):
        with pytest.raises(ValueError):
            NetworkModel(cdn_speedup=0)

    def test_download_time_scales_with_cdn_speedup(self, pop):
        p = pop.profile(0)
        nbytes = 8 * 1024 * 1024
        slow = NetworkModel(rtt_s=0.0, cdn_speedup=1.0).download_time(p, nbytes)
        fast = NetworkModel(rtt_s=0.0, cdn_speedup=4.0).download_time(p, nbytes)
        assert slow == pytest.approx(nbytes / p.download_bandwidth)
        assert fast == pytest.approx(slow / 4.0)

    def test_upload_time_charges_ceil_chunks(self, pop):
        net = NetworkModel(rtt_s=0.5, chunk_bytes=1000)
        p = pop.profile(0)
        for nbytes, chunks in [(0, 1), (1, 1), (1000, 1), (1001, 2), (3000, 3)]:
            expected = chunks * 0.5 + nbytes / p.upload_bandwidth
            assert net.upload_time(p, nbytes) == pytest.approx(expected), nbytes

    def test_roundtrip_is_one_rtt(self):
        assert NetworkModel(rtt_s=0.25).roundtrip() == 0.25


@pytest.fixture(scope="module")
def cpop():
    return ColumnarDevicePopulation(PopulationConfig(n_devices=5_000), seed=7)


class TestColumnarColumns:
    def test_deterministic_across_instances(self, cpop):
        other = ColumnarDevicePopulation(PopulationConfig(n_devices=5_000), seed=7)
        np.testing.assert_array_equal(cpop.sec_per_example, other.sec_per_example)
        np.testing.assert_array_equal(cpop.n_examples, other.n_examples)
        np.testing.assert_array_equal(cpop.payload_bytes, other.payload_bytes)

    def test_seed_changes_columns(self, cpop):
        other = ColumnarDevicePopulation(PopulationConfig(n_devices=5_000), seed=8)
        assert not np.array_equal(cpop.sec_per_example, other.sec_per_example)

    def test_multi_chunk_fleet_is_deterministic(self):
        # A fleet spanning several vectorized chunks realizes each chunk
        # from its own child stream: rebuilds reproduce exactly, and the
        # second chunk is not a replay of the first.
        n = ColumnarDevicePopulation.CHUNK + 1_000
        a = ColumnarDevicePopulation(PopulationConfig(n_devices=n), seed=3)
        b = ColumnarDevicePopulation(PopulationConfig(n_devices=n), seed=3)
        np.testing.assert_array_equal(a.sec_per_example, b.sec_per_example)
        assert not np.array_equal(
            a.sec_per_example[a.CHUNK:], a.sec_per_example[:1_000]
        )

    def test_footprint_is_36_bytes_per_device(self, cpop):
        n = cpop.config.n_devices
        # f8 speed + i32 examples + f8 down + f8 up + i64 payload.
        assert cpop.columns_nbytes() == n * (8 + 4 + 8 + 8 + 8)

    def test_distribution_matches_scalar_model(self):
        # Different realization, same distributional formulas: medians
        # and correlation sign line up with the object-per-device fleet.
        cfg = PopulationConfig(n_devices=20_000)
        cp = ColumnarDevicePopulation(cfg, seed=1)
        assert np.median(cp.sec_per_example) == pytest.approx(
            cfg.median_sec_per_example, rel=0.1
        )
        r = np.corrcoef(np.log(cp.sec_per_example), np.log(cp.n_examples))[0, 1]
        assert r > 0.3  # slow devices hold more data

    def test_invalid_payload_params_rejected(self):
        with pytest.raises(ValueError):
            ColumnarDevicePopulation(payload_base_bytes=0)
        with pytest.raises(ValueError):
            ColumnarDevicePopulation(payload_sigma=-0.1)


class TestColumnarProfiles:
    def test_profile_matches_columns(self, cpop):
        p = cpop.profile(123)
        assert p.sec_per_example == cpop.sec_per_example[123]
        assert p.n_examples == cpop.n_examples[123]
        assert p.download_bandwidth == cpop.download_bandwidth[123]

    def test_profile_is_transient(self, cpop):
        assert cpop.profile(5) == cpop.profile(5)
        assert cpop.profile(5) is not cpop.profile(5)
        assert cpop.active_profiles == 0

    def test_out_of_range_rejected(self, cpop):
        with pytest.raises(ValueError):
            cpop.profile(5_000)
        with pytest.raises(ValueError):
            cpop.profile(-1)

    def test_checkout_pins_release_drops(self):
        cp = ColumnarDevicePopulation(PopulationConfig(n_devices=100), seed=0)
        pinned = cp.checkout(7)
        assert cp.checkout(7) is pinned        # idempotent while active
        assert cp.profile(7) is pinned         # profile() serves the pin
        assert cp.active_profiles == 1
        cp.release(7)
        assert cp.active_profiles == 0
        assert cp.profile(7) is not pinned     # transient again
        cp.release(7)                          # double release is a no-op

    def test_base_population_checkout_is_the_cache(self):
        pop = DevicePopulation(PopulationConfig(n_devices=100), seed=0)
        p = pop.checkout(3)
        assert p is pop.profile(3)
        pop.release(3)                         # no-op: cache keeps it
        assert pop.profile(3) is p
        assert pop.active_profiles == 1


class TestColumnarBatchedSampling:
    def test_execution_times_match_scalar_formula(self, cpop):
        ids = np.array([0, 17, 999, 4_321])
        batched = cpop.execution_times(ids, epochs=2)
        expected = [
            cpop.profile(int(i)).execution_time(cpop.config.overhead_s, epochs=2)
            for i in ids
        ]
        np.testing.assert_allclose(batched, expected)

    def test_transfer_times_match_profile_bandwidths(self, cpop):
        ids = np.array([4, 8])
        got = cpop.transfer_times(ids)
        for k, i in enumerate(ids):
            p = cpop.profile(int(i))
            payload = cpop.payload_bytes[i]
            expected = payload / p.download_bandwidth + payload / p.upload_bandwidth
            assert got[k] == pytest.approx(expected)

    def test_eligibility_mask_respects_rate(self):
        cp = ColumnarDevicePopulation(
            PopulationConfig(n_devices=100, eligibility_rate=1.0), seed=0
        )
        ids = np.arange(100)
        assert cp.eligibility_mask(ids, 0.0, child_rng(0, "t")).all()

    def test_dropout_fractions_nan_when_disabled(self):
        cp = ColumnarDevicePopulation(
            PopulationConfig(n_devices=50, dropout_rate=0.0), seed=0
        )
        fr = cp.dropout_fractions(np.arange(50), child_rng(0, "t"))
        assert np.isnan(fr).all()

    def test_dropout_fractions_in_range(self, cpop):
        fr = cpop.dropout_fractions(np.arange(2_000), child_rng(1, "t"))
        hit = fr[~np.isnan(fr)]
        assert len(hit) > 0
        assert ((hit >= 0.05) & (hit <= 0.95)).all()
