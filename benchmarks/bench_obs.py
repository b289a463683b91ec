"""Observability floors: telemetry must be free when off, cheap when on.

The ``obs`` experiment runs each workload twice — telemetry off, then
telemetry on — and this bench pins the two promises the observability
plane makes (see ``docs/OBSERVABILITY.md``):

* **bit-identity** — the on-arm's participation trace and server steps
  are byte-equal to the off-arm's in *every* workload: observers are
  read-only and never perturb an RNG draw or the event order;
* **bounded overhead** — on the ``million`` workload (the columnar
  fleet, where the paper's scaling claim lives) the telemetry-on wall
  clock stays within ``OVERHEAD_CEILING_PCT`` of telemetry off.  The
  ``shards`` workload opens a span per session and is deliberately
  span-heavy; its overhead is reported, not pinned.

Span-tree completeness rides along: the on-arm tracer must finish with
zero orphaned spans (every completed span's parent chain intact).
"""

from repro.harness.report import print_table

#: ceiling on telemetry-on overhead for the fleet-scale workload
OVERHEAD_CEILING_PCT = 5.0


class TestObservabilityContracts:
    def test_telemetry_floors_hold(self, cached_run, benchmark):
        res = cached_run("obs")
        assert res.points, "obs experiment produced no workload points"

        print_table(
            ["workload", "off (s)", "on (s)", "overhead %", "bit-identical",
             "spans", "orphans"],
            [[p.workload, p.telemetry_off_s, p.telemetry_on_s,
              p.overhead_pct, p.bit_identical, p.spans_total, p.span_orphans]
             for p in res.points],
            title="Observability floors",
        )

        for p in res.points:
            assert p.bit_identical, (
                f"{p.workload}: telemetry-on run diverged from telemetry-off "
                f"— the observer perturbed the simulation"
            )
            assert p.span_orphans == 0, (
                f"{p.workload}: {p.span_orphans} spans closed against a "
                f"parent that never existed"
            )

        by_name = {p.workload: p for p in res.points}
        million = by_name.get("million")
        assert million is not None, "obs experiment skipped the million workload"
        assert million.spans_total > 0
        assert million.overhead_pct <= OVERHEAD_CEILING_PCT, (
            f"million: telemetry-on overhead {million.overhead_pct:.2f}% "
            f"exceeds the {OVERHEAD_CEILING_PCT}% ceiling"
        )

        benchmark.extra_info["workloads"] = len(res.points)
        benchmark.extra_info["million_overhead_pct"] = million.overhead_pct
        benchmark.extra_info["max_overhead_pct"] = res.max_overhead_pct
        benchmark.extra_info["all_bit_identical"] = res.all_identical
