"""Million-client fleet benchmark: per-event cost flatness + throughput floor.

Regenerates the ``million`` experiment (see ``repro/harness/perf.py``)
through the registry/cache layer: the columnar struct-of-arrays fleet
driven by the batched tick loop over the binary-heap engine, swept
from 10k to 1M devices with demand scaling alongside the population.

The floors are deliberately far below locally measured values (~40-85k
events/sec and flatness ~1.2-2x on a dev machine): shared CI runners are
slow and noisy, so the benchmark must fail only on real regressions —
an events/sec collapse or per-event cost that *grows* with fleet size
(the object-per-device failure mode this subsystem replaced).  Measured
values land in ``extra_info`` so the artifact tracks the true trajectory.
"""

from repro.harness import perf  # noqa: F401  (registers the million experiment)


class TestMillionFleet:
    def test_per_event_cost_flat_and_bounded(self, cached_run, benchmark):
        res = cached_run("million")
        assert [p.population for p in res.points] == [10_000, 100_000, 1_000_000]

        for p in res.points:
            benchmark.extra_info[f"events_per_sec_{p.population}"] = round(
                p.events_per_sec
            )
            benchmark.extra_info[f"us_per_event_{p.population}"] = round(
                p.us_per_event, 2
            )
            # Each point must do real work: the fleet checked in and
            # completed sessions at every population size.
            assert p.sessions > 0
            assert p.events >= p.sessions
        benchmark.extra_info["flatness"] = round(res.flatness, 3)

        # Throughput floor: even loaded CI runners clear ~8k events/sec
        # when per-event cost is O(1) (locally 40-85k idle, ~6-22k under
        # heavy contention).
        for p in res.points:
            assert p.events_per_sec >= 8_000, (
                f"pop={p.population}: {p.events_per_sec:,.0f} events/sec "
                "is below the 8k floor"
            )

        # Flatness floor: per-event cost may wobble with cache effects
        # and runner noise but must not scale with the population (100x
        # fleet growth, <5x per-event cost; locally ~1.2-2x idle — an
        # O(N) event loop would show ~100x here).
        assert res.flatness <= 5.0, (
            f"per-event cost grew {res.flatness:.2f}x across 10k→1M devices"
        )

        # Bounded tracing: the 1M point recorded every participation in
        # the exact tallies while holding at most max_records objects.
        largest = res.points[-1]
        assert largest.trace_records <= res.max_trace_records
        assert largest.total_participations >= largest.trace_records

        # The struct-of-arrays fleet stays compact: 36 bytes/device.
        assert largest.columns_mb < 100.0
