"""The sweep-layer perf experiments (``repro/harness/perf.py``) in tier-1.

Micro-runs of the three experiments no differential suite drives
(``cohort``, ``secagg``, ``million`` — ``shards``/``secure_shards`` have
theirs next to their equivalence contracts), the result schemas and
table headers pinned against literals, and the timing discipline of the
shared drive loop.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from repro.core.fedbuff import FedBuffAggregator
from repro.core.server_opt import FedAdam
from repro.core.state import GlobalModelState
from repro.core.types import TrainingResult
from repro.harness import perf

MICRO_RUNS = {
    "cohort": (
        perf.cohort_speedup,
        dict(cohort_sizes=(2, 5), mean_examples=8.0, batch_size=4, repeats=1, seed=3),
        2,
    ),
    "secagg": (
        perf.secagg_speedup,
        dict(cohort_sizes=(2, 3), vector_lengths=(64, 96), repeats=2, seed=3),
        4,
    ),
    "million": (
        perf.million_scaling,
        dict(populations=(2000, 4000), horizon_s=600.0, seed=3),
        2,
    ),
}


@pytest.mark.parametrize("name", sorted(MICRO_RUNS))
def test_micro_run_is_exact_at_every_grid_point(name):
    run, kwargs, grid_points = MICRO_RUNS[name]
    res = run(**kwargs)
    assert len(res.points) == grid_points
    for p in res.points:
        if name == "cohort":
            assert p.equivalent
            assert p.max_delta_diff == 0.0 and p.max_loss_diff == 0.0
            assert p.scalar_s > 0 and p.batched_s > 0
            assert p.speedup == pytest.approx(p.scalar_s / p.batched_s)
        elif name == "secagg":
            assert p.bit_identical and p.boundary_match
            assert p.max_divergence == 0.0
            assert p.scalar_s > 0 and p.block_s > 0 and p.handshake_s > 0
            assert p.speedup == pytest.approx(p.scalar_s / p.block_s)
        else:
            assert p.events > 0 and p.sessions > 0 and p.wall_s > 0
            assert p.demand == 64 and p.horizon_s == 600.0
            assert p.events_per_sec == pytest.approx(p.events / p.wall_s)
            assert p.us_per_event == pytest.approx(p.wall_s / p.events * 1e6)
            assert p.trace_records <= p.total_participations
    if name == "cohort":
        assert [p.cohort_size for p in res.points] == [2, 5]
        assert res.num_params > 0
    elif name == "secagg":
        assert [(p.vector_length, p.cohort_size) for p in res.points] == [
            (64, 2), (64, 3), (96, 2), (96, 3)
        ]
        assert res.repeats == 2
    else:
        assert [p.population for p in res.points] == [2000, 4000]
        assert math.isfinite(res.flatness) and res.flatness >= 1.0


def test_micro_run_goes_through_the_registry():
    """``ExperimentSpec.run`` reaches the experiment functions directly."""
    from repro.harness import SMOKE, registry

    for name, (_, kwargs, grid_points) in MICRO_RUNS.items():
        params = {k: v for k, v in kwargs.items() if k != "seed"}
        spec = registry.get(name)
        res = spec.run(SMOKE, 3, **params)
        assert isinstance(res, spec.result_type)
        assert len(res.points) == grid_points
        assert spec.deserialize(spec.serialize(res)) == res
    # ``million`` is the one perf experiment whose runner reads the scale.
    assert registry.get("million").uses_scale
    res = registry.get("million").run(SMOKE, 0, populations=(2000,))
    assert res.points[0].horizon_s == min(1800.0, SMOKE.sim_hours * 200.0)


# Captured on the commit before the comparison-kit refactor: the sweep
# JSON schema is ``dataclasses.fields`` of these ten types, and the
# rendered tables are these headers.  A dropped or renamed column must
# fail here, loudly, not in a downstream artifact diff.
SCHEMAS = {
    "cohort": (
        perf.CohortPoint,
        ["cohort_size", "scalar_s", "batched_s", "speedup", "max_delta_diff",
         "max_loss_diff", "equivalent"],
        perf.CohortResult,
        dict(points=[], clients_mean_examples=1.0, batch_size=1, local_epochs=1,
             num_params=1),
        perf.print_cohort,
        ["K", "scalar (ms)", "batched (ms)", "speedup", "max |Δdelta|",
         "equivalent"],
    ),
    "secagg": (
        perf.SecAggPoint,
        ["cohort_size", "vector_length", "scalar_s", "block_s", "speedup",
         "handshake_s", "max_divergence", "bit_identical", "boundary_match"],
        perf.SecAggResult,
        dict(points=[], group_bits=64, fp_scale=2.0**16, clip_value=1.0,
             repeats=1),
        perf.print_secagg,
        ["K", "len", "scalar (ms)", "block (ms)", "speedup",
         "handshake/client (ms)", "max |div|", "bit-identical", "boundary ok"],
    ),
    "shards": (
        perf.ShardPoint,
        ["num_shards", "routing", "population", "arrivals", "single_s",
         "sharded_s", "speedup", "load_skew", "max_divergence", "equivalent",
         "process_s", "measured_speedup", "speedup_gap", "process_identical",
         "process_fallbacks"],
        perf.ShardsResult,
        dict(points=[], vector_length=1, goal=1, routing="hash", repeats=1,
             cpu_count=1),
        perf.print_shards,
        ["S", "pop", "single (ms)", "sharded (ms)", "modeled x", "process (ms)",
         "measured x", "gap", "load skew", "max |div|", "equivalent",
         "bit-identical"],
    ),
    "secure_shards": (
        perf.SecureShardPoint,
        ["num_shards", "routing", "goal", "vector_length", "arrivals",
         "single_s", "serial_path_s", "sharded_path_s", "speedup", "process_s",
         "measured_speedup", "load_skew", "bit_identical", "boundary_match",
         "process_fallbacks"],
        perf.SecureShardsResult,
        dict(points=[], routing="hash", repeats=1, cpu_count=1),
        perf.print_secure_shards,
        ["S", "K", "len", "single (ms)", "serial path (ms)", "path (ms)",
         "modeled x", "process (ms)", "measured x", "load skew",
         "bit-identical", "boundary ok", "fallbacks"],
    ),
    "million": (
        perf.MillionPoint,
        ["population", "demand", "horizon_s", "events", "sessions", "wall_s",
         "events_per_sec", "us_per_event", "peak_rss_mb", "columns_mb",
         "trace_records", "total_participations"],
        perf.MillionResult,
        dict(points=[], flatness=1.0, tick_s=1.0, mean_sleep_s=1.0,
             max_trace_records=1),
        perf.print_million,
        ["population", "demand", "events", "sessions", "wall (s)", "events/s",
         "µs/event", "peak RSS (MB)", "columns (MB)", "trace recs"],
    ),
}


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_result_schema_and_table_header_are_pinned(name, capsys):
    point_type, point_fields, result_type, empty, printer, header = SCHEMAS[name]
    assert [f.name for f in dataclasses.fields(point_type)] == point_fields
    assert [f.name for f in dataclasses.fields(result_type)] == list(empty)
    printer(result_type(**empty))
    title, header_line, rule = capsys.readouterr().out.splitlines()[:3]
    assert title and set(rule) <= {"-", " "}
    # No rows: every column is exactly as wide as its header.
    assert header_line.split("  ") == header


def test_all_names_are_exported():
    for point_type, _, result_type, _, printer, _ in SCHEMAS.values():
        for obj in (point_type, result_type, printer):
            assert obj.__name__ in perf.__all__
    for name, (run, _, _) in MICRO_RUNS.items():
        assert run.__name__ in perf.__all__


class TestDriveTimesOnlyTheDataPlane:
    """``_drive`` charges ``receive_update`` (+ ``drain``) and nothing else."""

    SLEEP_S = 0.02

    class _SlowDownloads(FedBuffAggregator):
        drained = 0

        def register_download(self, client_id):
            time.sleep(TestDriveTimesOnlyTheDataPlane.SLEEP_S)
            return super().register_download(client_id)

        def drain(self):
            self.drained += 1
            time.sleep(TestDriveTimesOnlyTheDataPlane.SLEEP_S)

    def _setup(self, n=8):
        rng = np.random.default_rng(0)
        state = GlobalModelState(np.zeros(16, dtype=np.float32), FedAdam(lr=0.1))
        results = [
            TrainingResult(i, rng.standard_normal(16).astype(np.float32), 3, 0.5, 0)
            for i in range(n)
        ]
        return self._SlowDownloads(state, goal=4), results

    def test_register_download_is_off_the_clock(self):
        agg, results = self._setup()
        t0 = time.perf_counter()
        seconds = perf._drive(agg, results)
        wall = time.perf_counter() - t0
        slept = len(results) * self.SLEEP_S
        assert wall >= slept
        assert 0 < seconds < slept / 4  # eight tiny folds, none of the sleeps
        assert len(agg.step_history) == 2 and agg.drained == 0
        # Every arrival was re-stamped at the plane's version: none stale.
        assert all(info.num_updates == 4 for info in agg.step_history)

    def test_drain_is_on_the_clock(self):
        agg, results = self._setup()
        seconds = perf._drive(agg, results, drain=True)
        assert agg.drained == 1
        assert self.SLEEP_S <= seconds < len(results) * self.SLEEP_S / 2
