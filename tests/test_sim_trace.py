"""Tests for the metrics trace."""

import numpy as np
import pytest

from repro.sim import (
    BoundedMetricsTrace,
    MetricsTrace,
    Outcome,
    ParticipationRecord,
    ServerStepRecord,
)


def part(device=0, task="t", outcome=Outcome.AGGREGATED, n=10, exec_t=5.0, stal=0,
         start=0.0, end=10.0):
    return ParticipationRecord(
        device_id=device, task=task, start_time=start, end_time=end,
        n_examples=n, execution_time=exec_t, outcome=outcome, staleness=stal,
    )


def step(time=0.0, task="t", version=1, n=10, stal=0.0, loss=1.0):
    return ServerStepRecord(
        time=time, task=task, version=version, num_updates=n,
        mean_staleness=stal, loss=loss,
    )


class TestActiveSeries:
    def test_cumulative_counts(self):
        tr = MetricsTrace()
        tr.record_active_delta(0.0, +1)
        tr.record_active_delta(1.0, +1)
        tr.record_active_delta(2.0, -1)
        times, counts = tr.active_series()
        np.testing.assert_array_equal(times, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(counts, [1, 2, 1])

    def test_empty_series(self):
        times, counts = MetricsTrace().active_series()
        assert counts[0] == 0

    def test_mean_utilization_full(self):
        tr = MetricsTrace()
        tr.record_active_delta(0.0, +10)
        tr.record_active_delta(10.0, -10)
        assert tr.mean_utilization(10, 0.0, 10.0) == pytest.approx(1.0)

    def test_mean_utilization_half(self):
        tr = MetricsTrace()
        tr.record_active_delta(0.0, +5)
        tr.record_active_delta(10.0, -5)
        assert tr.mean_utilization(10, 0.0, 10.0) == pytest.approx(0.5)

    def test_mean_utilization_window(self):
        tr = MetricsTrace()
        tr.record_active_delta(0.0, +10)
        tr.record_active_delta(5.0, -10)  # idle in the second half
        assert tr.mean_utilization(10, 0.0, 10.0) == pytest.approx(0.5)
        assert tr.mean_utilization(10, 0.0, 5.0) == pytest.approx(1.0)

    def test_utilization_degenerate(self):
        assert MetricsTrace().mean_utilization(0) == 0.0
        tr = MetricsTrace()
        tr.record_active_delta(1.0, +1)
        assert tr.mean_utilization(1, 5.0, 5.0) == 0.0


class TestLossCurve:
    def test_time_to_loss(self):
        tr = MetricsTrace()
        for i, loss in enumerate([3.0, 2.5, 2.0, 1.5]):
            tr.record_server_step(step(time=float(i), version=i + 1, loss=loss))
        assert tr.time_to_loss(2.2) == 2.0
        assert tr.time_to_loss(1.0) is None

    def test_loss_curve_filters_task(self):
        tr = MetricsTrace()
        tr.record_server_step(step(task="a", loss=1.0))
        tr.record_server_step(step(task="b", loss=2.0))
        _, losses = tr.loss_curve("b")
        np.testing.assert_array_equal(losses, [2.0])

    def test_steps_per_hour(self):
        tr = MetricsTrace()
        for i in range(11):
            tr.record_server_step(step(time=i * 360.0, version=i + 1))
        assert tr.steps_per_hour() == pytest.approx(10.0)

    def test_steps_per_hour_insufficient_data(self):
        tr = MetricsTrace()
        assert tr.steps_per_hour() == 0.0
        tr.record_server_step(step())
        assert tr.steps_per_hour() == 0.0

    def test_fast_views_updated(self):
        tr = MetricsTrace()
        tr.record_server_step(step(task="x", loss=0.7))
        assert tr.step_counts["x"] == 1
        assert tr.last_loss["x"] == 0.7


class TestParticipations:
    def test_outcome_counts(self):
        tr = MetricsTrace()
        tr.record_participation(part(outcome=Outcome.AGGREGATED))
        tr.record_participation(part(outcome=Outcome.AGGREGATED))
        tr.record_participation(part(outcome=Outcome.FAILED))
        counts = tr.outcome_counts()
        assert counts[Outcome.AGGREGATED] == 2
        assert counts[Outcome.FAILED] == 1
        assert counts[Outcome.DISCARDED] == 0

    def test_aggregated_filter_and_staleness(self):
        tr = MetricsTrace()
        tr.record_participation(part(outcome=Outcome.AGGREGATED, stal=3))
        tr.record_participation(part(outcome=Outcome.DISCARDED, stal=9))
        assert len(tr.aggregated_participations()) == 1
        np.testing.assert_array_equal(tr.staleness_values(), [3.0])

    def test_comm_counters(self):
        tr = MetricsTrace()
        tr.record_upload(100)
        tr.record_upload(100)
        tr.record_download(50)
        assert tr.uploads == 2 and tr.downloads == 1
        assert tr.upload_bytes == 200 and tr.download_bytes == 50


class TestExport:
    def test_to_dict_roundtrips_records(self):
        tr = MetricsTrace()
        tr.record_participation(part(device=3, outcome=Outcome.FAILED, stal=2))
        tr.record_server_step(step(task="x", loss=1.25))
        tr.record_upload(10)
        d = tr.to_dict()
        assert d["participations"][0]["device_id"] == 3
        assert d["participations"][0]["outcome"] == "failed"
        assert d["server_steps"][0]["loss"] == 1.25
        assert d["uploads"] == 1

    def test_export_json_is_loadable(self, tmp_path):
        import json

        tr = MetricsTrace()
        tr.record_participation(part())
        tr.record_server_step(step())
        path = tmp_path / "trace.json"
        tr.export_json(str(path))
        loaded = json.loads(path.read_text())
        assert len(loaded["participations"]) == 1
        assert len(loaded["server_steps"]) == 1


class TestBoundedTraceValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            BoundedMetricsTrace(max_records=0)


class TestBoundedTraceSampling:
    def test_under_capacity_keeps_everything(self):
        tr = BoundedMetricsTrace(max_records=100)
        for i in range(40):
            tr.record_participation(part(device=i))
        assert [r.device_id for r in tr.participations] == list(range(40))
        assert tr.total_participations == 40

    def test_reservoir_is_bounded_and_uniformish(self):
        tr = BoundedMetricsTrace(max_records=50, seed=0)
        for i in range(5_000):
            tr.record_participation(part(device=i))
        assert len(tr.participations) == 50
        assert tr.total_participations == 5_000
        # A uniform sample over the whole run, not just its head/tail.
        kept = sorted(r.device_id for r in tr.participations)
        assert kept[0] < 1_000 and kept[-1] >= 4_000

    def test_reservoir_is_deterministic(self):
        def run(seed):
            tr = BoundedMetricsTrace(max_records=20, seed=seed)
            for i in range(1_000):
                tr.record_participation(part(device=i))
            return [r.device_id for r in tr.participations]

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_exact_tallies_survive_sampling(self):
        tr = BoundedMetricsTrace(max_records=5, seed=1)
        for i in range(300):
            out = Outcome.FAILED if i % 3 == 0 else Outcome.AGGREGATED
            tr.record_participation(part(device=i, outcome=out))
            tr.record_upload(10)
        counts = tr.outcome_counts()
        assert counts[Outcome.FAILED] == 100
        assert counts[Outcome.AGGREGATED] == 200
        assert tr.uploads == 300 and tr.upload_bytes == 3_000

    def test_memory_estimate_is_bounded(self):
        tr = BoundedMetricsTrace(max_records=100)
        for i in range(10_000):
            tr.record_participation(part(device=i))
            tr.record_active_delta(float(i % 600), +1)
        # Bins cover a fixed 600 s window; records cap at 100.
        assert tr.approx_bytes() < 100 * 200 + 600 * 100 + 1


class TestBoundedActiveSeries:
    def test_binned_series_cumulates(self):
        tr = BoundedMetricsTrace()
        tr.record_active_delta(10.0, +1)    # bin 0
        tr.record_active_delta(30.0, +1)    # bin 0
        tr.record_active_delta(70.0, -1)    # bin 1
        times, counts = tr.active_series()
        np.testing.assert_array_equal(times, [0.0, 60.0])
        np.testing.assert_array_equal(counts, [2, 1])

    def test_peak_active_is_exact_within_bins(self):
        tr = BoundedMetricsTrace()
        for _ in range(7):
            tr.record_active_delta(5.0, +1)
        for _ in range(7):
            tr.record_active_delta(6.0, -1)
        # The bin nets to zero but the true peak was seen.
        assert tr.peak_active == 7
        _, counts = tr.active_series()
        assert counts[-1] == 0

    def test_empty_series(self):
        times, counts = BoundedMetricsTrace().active_series()
        assert counts[0] == 0


class TestBoundedExport:
    def test_to_dict_flags_sampling(self):
        tr = BoundedMetricsTrace(max_records=2)
        for i in range(5):
            tr.record_participation(part(device=i, outcome=Outcome.FAILED))
        d = tr.to_dict()
        assert d["max_records"] == 2
        assert d["total_participations"] == 5
        assert d["outcome_totals"]["failed"] == 5
        assert len(d["participations"]) == 2

    def test_server_steps_stay_exact(self):
        tr = BoundedMetricsTrace(max_records=1)
        for v in range(10):
            tr.record_server_step(step(time=float(v), version=v))
        assert len(tr.server_steps) == 10
        assert tr.step_counts["t"] == 10
