"""Tests for the batched million-client fleet driver.

Pins the tick-batched dynamics over the columnar population: counter
consistency, capacity (demand) enforcement, backoff of turned-away and
ineligible arrivals, lazy profile materialization being released after
session end, determinism, and re-entrant runs.
"""

import numpy as np
import pytest

from repro.sim import (
    BoundedMetricsTrace,
    ColumnarDevicePopulation,
    FleetConfig,
    FleetSimulation,
    MetricsTrace,
    Outcome,
    PopulationConfig,
)


def fleet(
    n_devices=400,
    seed=0,
    mean_sleep_s=600.0,
    demand=64,
    tick_s=60.0,
    eligibility_rate=0.8,
    dropout_rate=0.1,
    deep_trace_fraction=0.0,
    trace=None,
    **cfg_kwargs,
):
    pop = ColumnarDevicePopulation(
        PopulationConfig(
            n_devices=n_devices,
            eligibility_rate=eligibility_rate,
            dropout_rate=dropout_rate,
            # Short sessions so plenty complete inside short horizons.
            mean_examples=5.0,
            median_sec_per_example=0.05,
            max_examples=40,
        ),
        seed=seed,
    )
    config = FleetConfig(
        tick_s=tick_s,
        demand=demand,
        mean_sleep_s=mean_sleep_s,
        deep_trace_fraction=deep_trace_fraction,
        **cfg_kwargs,
    )
    return FleetSimulation(pop, config, trace=trace, seed=seed)


class TestFleetConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tick_s": 0.0},
            {"demand": -1},
            {"mean_sleep_s": 0.0},
            {"backoff_s": 0.0},
            {"epochs": 0},
            {"deep_trace_fraction": 1.5},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FleetConfig(**kwargs)


class TestDynamics:
    def test_counters_are_consistent(self):
        f = fleet()
        f.run(3600.0)
        assert f.sessions_started > 0
        assert f.sessions_completed + f.in_flight == f.sessions_started
        assert f.in_flight >= 0
        # Every completed session logged exactly one participation.
        assert f.trace.total_participations == f.sessions_completed
        counts = f.trace.outcome_counts()
        assert (
            counts[Outcome.AGGREGATED] + counts[Outcome.FAILED]
            == f.sessions_completed
        )

    def test_demand_caps_concurrency(self):
        f = fleet(demand=8, mean_sleep_s=120.0)
        f.run(3600.0)
        assert f.trace.peak_active <= 8
        assert f.turned_away > 0  # the cap actually bit

    def test_zero_demand_tick_admits_nobody(self):
        # Arrivals happen, everyone is turned away (or ineligible), and
        # the turned-away devices come back: the tick loop never stalls.
        f = fleet(demand=0)
        f.run(3600.0)
        assert f.sessions_started == 0
        assert f.in_flight == 0
        assert f.turned_away > 0
        assert f.trace.total_participations == 0

    def test_no_arrivals_before_horizon_is_a_quiet_run(self):
        # Mean sleep far beyond the horizon: with overwhelming
        # probability some tick buckets are empty, and often all of
        # them — the driver must tolerate ticks with no arrivals.
        f = fleet(n_devices=3, mean_sleep_s=1e9)
        end = f.run(600.0)
        assert end == 600.0
        assert f.sessions_started == 0
        assert f.trace.total_participations == 0

    def test_single_client_fleet(self):
        f = fleet(n_devices=1, mean_sleep_s=120.0, eligibility_rate=1.0)
        f.run(4 * 3600.0)
        assert f.sessions_completed > 0
        assert f.trace.peak_active == 1  # can never overlap itself
        recs = list(f.trace.participations)
        assert {r.device_id for r in recs} == {0}

    def test_ineligible_arrivals_backoff_and_retry(self):
        f = fleet(eligibility_rate=0.2, mean_sleep_s=300.0)
        f.run(3600.0)
        assert f.ineligible > 0
        # Backoff re-books them: far more check-in attempts than devices.
        attempts = f.sessions_started + f.ineligible + f.turned_away
        assert attempts > f.population.config.n_devices

    def test_session_counters_track_in_flight(self):
        f = fleet(deep_trace_fraction=0.0)
        f.run(1800.0)
        # Every started session has either completed or is still in flight,
        # and each in-flight one holds exactly one pending completion.
        assert f.sessions_completed > 0
        assert f.sessions_started - f.sessions_completed == f.in_flight
        assert f.sim.pending == f.in_flight + f._tick_pending


class TestLazyMaterialization:
    def test_profiles_released_after_session_end(self):
        f = fleet(deep_trace_fraction=1.0)
        f.run(3600.0)
        assert f.sessions_completed > 0
        # Only still-running sessions may hold a pinned profile.
        assert f.population.active_profiles == f.in_flight
        assert f.population.active_profiles == len(f._checked_out)

    def test_fully_drained_fleet_pins_nothing(self):
        f = fleet(deep_trace_fraction=1.0, demand=4)
        f.run(1800.0)
        # Let every in-flight session finish (no new ticks are booked
        # past the horizon, so the queue drains to completions only).
        f.sim.run_until_idle()
        assert f.in_flight == 0
        assert f.population.active_profiles == 0


class TestDeterminismAndResume:
    def test_same_seed_same_run(self):
        a, b = fleet(seed=3), fleet(seed=3)
        a.run(3600.0)
        b.run(3600.0)
        assert a.sessions_started == b.sessions_started
        assert a.sessions_completed == b.sessions_completed
        assert a.turned_away == b.turned_away
        assert a.ineligible == b.ineligible
        assert a.trace.to_dict() == b.trace.to_dict()

    def test_different_seed_differs(self):
        a, b = fleet(seed=0), fleet(seed=1)
        a.run(3600.0)
        b.run(3600.0)
        assert (
            a.sessions_started != b.sessions_started
            or a.trace.to_dict() != b.trace.to_dict()
        )

    def test_reentrant_run_resumes(self):
        f = fleet()
        f.run(1800.0)
        started_then = f.sessions_started
        completed_then = f.sessions_completed
        end = f.run(3600.0)
        assert end == 3600.0
        assert f.sessions_started >= started_then
        assert f.sessions_completed >= completed_then
        assert f.sessions_completed + f.in_flight == f.sessions_started

    def test_horizon_in_past_rejected(self):
        f = fleet()
        f.run(1200.0)
        with pytest.raises(ValueError):
            f.run(600.0)


class TestTraceWiring:
    def test_default_trace_is_bounded(self):
        assert isinstance(fleet().trace, BoundedMetricsTrace)

    def test_exact_trace_can_be_injected(self):
        f = fleet(trace=MetricsTrace())
        f.run(1800.0)
        assert isinstance(f.trace, MetricsTrace)
        assert len(f.trace.participations) == f.sessions_completed

    def test_bounded_trace_caps_records_but_counts_all(self):
        f = fleet(
            n_devices=800,
            mean_sleep_s=120.0,
            trace=BoundedMetricsTrace(max_records=25, seed=0),
        )
        f.run(3600.0)
        assert f.trace.total_participations == f.sessions_completed
        assert f.trace.total_participations > 25
        assert len(f.trace.participations) == 25


class TestDeviceConservation:
    """The device-leak regression suite (ISSUE 7 satellite).

    Every device is always in exactly one place: booked in an unfired
    wake bucket, or inside an in-flight session.  The old scheduler
    violated this when ``_backoff`` (or an end-of-session re-book)
    landed a wake inside the tick currently being processed — the
    bucket had already been popped, so the device fell out of the wake
    calendar forever.
    """

    @staticmethod
    def booked(f):
        return sum(len(b) for b in f._buckets.values())

    def test_conservation_at_every_tick_under_backoff_churn(self):
        # demand=0 turns every eligible arrival away, and a backoff
        # shorter than one tick books the retry into the *current*
        # tick — the exact leak scenario.
        f = fleet(n_devices=300, demand=0, backoff_s=20.0, tick_s=60.0,
                  mean_sleep_s=300.0)
        horizon = 0.0
        for _ in range(40):
            horizon += f.config.tick_s
            f.run(horizon)
            assert self.booked(f) + f.in_flight == 300, (
                f"device leak at t={horizon}: {self.booked(f)} booked + "
                f"{f.in_flight} in flight"
            )
        assert f.turned_away > 0  # the churn actually happened

    def test_conservation_with_ineligible_backoffs(self):
        f = fleet(n_devices=250, eligibility_rate=0.1, backoff_s=30.0,
                  tick_s=60.0, mean_sleep_s=400.0)
        for horizon in (600.0, 1800.0, 3600.0):
            f.run(horizon)
            assert self.booked(f) + f.in_flight == 250
        assert f.ineligible > 0

    def test_conservation_through_normal_session_churn(self):
        f = fleet(n_devices=400, mean_sleep_s=300.0)
        f.run(7200.0)
        assert self.booked(f) + f.in_flight == 400
        assert f.sessions_completed > 0

    def test_rebooking_into_current_tick_is_clamped(self):
        f = fleet(n_devices=10)
        f._next_tick = 5  # pretend ticks 0..4 already fired
        f._bucket_one(3, 130.0)  # tick 2 by timestamp — already popped
        assert 3 in f._buckets[5]
        ids = np.array([4, 5], dtype=np.int64)
        f._bucket_bulk(ids, np.array([10.0, 500.0]))
        assert 4 in f._buckets[5]  # clamped forward
        assert 5 in f._buckets[8]  # future wake unaffected


class TestTickIndexingOnResume:
    """Explicit tick indexing: resume never skips or re-fires a bucket."""

    def test_split_resume_matches_straight_run(self):
        # 150 and 210 are off the 60s tick grid: the old float-derived
        # index (banker's rounding of now/tick_s) skipped bucket 3 when
        # resuming at t=150.
        a = fleet(seed=7, mean_sleep_s=300.0)
        b = fleet(seed=7, mean_sleep_s=300.0)
        a.run(150.0)
        a.run(210.0)
        a.run(3600.0)
        b.run(3600.0)
        assert a.sessions_started == b.sessions_started
        assert a.sessions_completed == b.sessions_completed
        assert a.turned_away == b.turned_away
        assert a.ineligible == b.ineligible
        assert a.trace.to_dict() == b.trace.to_dict()

    def test_many_fractional_resumes_match_straight_run(self):
        a = fleet(seed=11, mean_sleep_s=200.0, n_devices=150)
        b = fleet(seed=11, mean_sleep_s=200.0, n_devices=150)
        t = 0.0
        while t < 1500.0:
            t += 95.0  # never a multiple of tick_s=60
            a.run(min(t, 1500.0))
        b.run(1500.0)
        assert a.sessions_started == b.sessions_started
        assert a.trace.to_dict() == b.trace.to_dict()

    def test_resume_after_idle_drain_catches_up(self):
        # Horizon far past the last booked wake: the tick chain dies
        # out (boundary > horizon), then a later run must restart it
        # at the *next unfired* boundary without scheduling in the past.
        f = fleet(n_devices=50, mean_sleep_s=100.0)
        f.run(400.0)
        f.run(40_000.0)
        f.run(41_000.0)
        assert f.sessions_started > 0
        assert (
            sum(len(b) for b in f._buckets.values()) + f.in_flight == 50
        )

    def test_max_events_stop_does_not_double_schedule_ticks(self):
        f = fleet(seed=2, mean_sleep_s=300.0)
        f.run(3600.0, max_events=5)  # stops mid-horizon, tick queued
        f.run(3600.0)  # must not start a second tick chain
        g = fleet(seed=2, mean_sleep_s=300.0)
        g.run(3600.0)
        assert f.sessions_started == g.sessions_started
        assert f.trace.to_dict() == g.trace.to_dict()
