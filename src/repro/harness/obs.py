"""The ``obs`` experiment: telemetry overhead and invariance, first-class.

The observability plane (:mod:`repro.obs`) promises two things at once:
telemetry **off** costs one attribute load per hook site and the run is
byte-identical to a build that never heard of telemetry; telemetry
**on** observes every round trip without perturbing a single RNG draw
or event. This experiment turns both promises into columns.  For each
workload it runs the same deployment twice — telemetry off, telemetry
on — and reports both wall clocks, the observer overhead as a
percentage, and whether the on-arm's simulation outputs (participation
trace + server steps) are *bit-identical* to the off-arm's.  The
telemetry arm's exported span tree is checked for completeness on the
spot: ``span_orphans`` must be 0 (every recorded span's parent chain is
intact).

Workloads:

* ``shards`` — the system plane on the sharded aggregation core
  (coordinator, selectors, client sessions, hierarchical folds), where
  telemetry opens a round-trip span per session and meters every
  check-in; this is the span-tree-heavy arm.
* ``million`` — the columnar fleet driver
  (:class:`repro.sim.fleet.FleetSimulation`), where per-session costs
  are the scaling claim; telemetry meters arrivals per *tick* (one
  vectorized hook) and opens spans only for deep-traced sessions, so
  the overhead budget (≤5 %, pinned by ``benchmarks/bench_obs.py``)
  holds at fleet scale.

Run / sweep it through the harness layer::

    python -m repro.harness obs
    python -m repro.harness sweep obs --seeds 0..2 --json obs.json

``python -m repro.harness trace <spec.json>`` is the companion CLI: it
forces telemetry on for one scenario and exports the merged span+event
JSONL trace (and, optionally, the Prometheus metrics snapshot).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from repro.api import Deployment, PopulationSpec, ScenarioSpec, build_population
from repro.harness import registry
from repro.harness.report import print_points
from repro.harness.runner import train_scenario
from repro.obs.telemetry import RunTelemetry
from repro.sim.fleet import FleetConfig, FleetSimulation
from repro.sim.trace import BoundedMetricsTrace

__all__ = [
    "ObsPoint",
    "ObsResult",
    "obs_experiment",
    "print_obs",
    "trace_scenario",
]


@dataclass(frozen=True)
class ObsPoint:
    """One workload × (telemetry off, telemetry on) comparison."""

    workload: str          # "shards" (system plane) or "million" (fleet)
    telemetry_off_s: float  # best-of wall clock, observer absent
    telemetry_on_s: float   # best-of wall clock, observer attached
    overhead_pct: float     # (on - off) / off * 100
    #: on-arm participation trace + server steps byte-equal to off-arm
    bit_identical: bool
    spans_total: int        # spans recorded by the on-arm tracer
    spans_open: int         # spans still open at the horizon (in-flight)
    span_orphans: int       # completed spans with a broken parent chain
    metric_series: int      # labeled series across all metric families
    events_total: int       # structured events the run emitted


@dataclass(frozen=True)
class ObsResult:
    """Overhead + invariance across the workloads."""

    seed: int
    repeats: int
    n_devices: int          # system-plane population
    fleet_devices: int      # columnar fleet population
    t_end_s: float          # system-plane horizon
    horizon_s: float        # fleet horizon
    points: list[ObsPoint]
    max_overhead_pct: float
    all_identical: bool


def _obs_spec(
    n_devices: int, seed: int, t_end_s: float, telemetry: bool, max_spans: int
) -> ScenarioSpec:
    """The system-plane workload: async training on the sharded core."""
    return train_scenario(n_devices, seed, t_end_s).with_overrides({
        "plane.name": "sharded",
        "plane.num_shards": 2,
        "telemetry.enabled": telemetry,
        "telemetry.max_spans": max_spans,
    })


def _fleet_fingerprint(fleet: FleetSimulation) -> str:
    """sha256 over the fleet's sampled trace + exact counters."""
    h = hashlib.sha256()
    for p in fleet.trace.participations:
        h.update(
            repr((p.device_id, p.start_time, p.end_time, p.outcome)).encode()
        )
    h.update(
        repr(
            (
                fleet.sessions_started,
                fleet.sessions_completed,
                fleet.turned_away,
                fleet.ineligible,
                fleet.trace.total_participations,
                fleet.sim.events_fired,
                fleet.sim.now,
            )
        ).encode()
    )
    return h.hexdigest()


def _telemetry_stats(telemetry: RunTelemetry, events_total: int) -> dict:
    """The on-arm columns shared by both workloads."""
    totals = telemetry.tracer.name_totals()
    series = sum(
        len(family["series"]) for family in telemetry.metrics.snapshot().values()
    )
    return {
        "spans_total": int(sum(totals.values())),
        "spans_open": telemetry.tracer.open_count,
        "span_orphans": len(telemetry.tracer.orphans()),
        "metric_series": series,
        "events_total": events_total,
    }


def _run_system_arm(n_devices, seed, t_end_s, telemetry, max_spans):
    """One system-plane run; returns (wall_s, fingerprint, dep, result)."""
    dep = Deployment.from_spec(
        _obs_spec(n_devices, seed, t_end_s, telemetry, max_spans)
    )
    dep.build()  # construction (population, adapters) is untimed
    t0 = time.perf_counter()
    result = dep.run()
    wall = time.perf_counter() - t0
    return wall, result.sim_digest(), dep, result


def _run_fleet_arm(fleet_devices, seed, horizon_s, telemetry, max_spans):
    """One columnar-fleet run; returns (wall_s, fingerprint, observer)."""
    population = build_population(
        PopulationSpec(n_devices=fleet_devices, columnar=True, seed=seed)
    )
    observer = RunTelemetry(max_spans=max_spans) if telemetry else None
    fleet = FleetSimulation(
        population,
        FleetConfig(demand=max(64, fleet_devices // 200)),
        trace=BoundedMetricsTrace(max_records=10_000, seed=seed),
        seed=seed,
        observer=observer,
    )
    t0 = time.perf_counter()
    fleet.run(horizon_s)
    wall = time.perf_counter() - t0
    return wall, _fleet_fingerprint(fleet), observer


def obs_experiment(
    workloads: str = "shards,million",
    n_devices: int = 800,
    fleet_devices: int = 100_000,
    t_end_s: float = 3600.0,
    horizon_s: float = 1800.0,
    repeats: int = 2,
    max_spans: int = 200_000,
    seed: int = 0,
) -> ObsResult:
    """Measure telemetry overhead + invariance on each workload.

    Both arms of a workload consume identical specs except the
    ``telemetry`` section; the off arm is the exact deployment every
    non-observed run uses.  Wall clocks are best-of-``repeats`` (each
    repeat rebuilds the simulation — runs are single-shot); the on-arm's
    trace/step fingerprint must equal the off-arm's bit-for-bit, which
    is the read-only-observer contract the differential suite pins
    per-event.
    """
    names = [w.strip() for w in workloads.split(",") if w.strip()]
    unknown = sorted(set(names) - {"shards", "million"})
    if unknown:
        raise ValueError(f"unknown workload(s): {', '.join(unknown)}")
    points: list[ObsPoint] = []
    for workload in names:
        best_off = best_on = float("inf")
        off_fp = on_fp = None
        stats: dict = {}
        # Arms interleave within each repeat: running every off repeat
        # first would let allocator/heap drift masquerade as observer
        # overhead (the bias is larger than the overhead under test).
        for _ in range(max(1, repeats)):
            if workload == "shards":
                wall, off_fp, _, _ = _run_system_arm(
                    n_devices, seed, t_end_s, False, max_spans
                )
                best_off = min(best_off, wall)
                wall, on_fp, dep, result = _run_system_arm(
                    n_devices, seed, t_end_s, True, max_spans
                )
                events = sum(result.log.kind_totals().values())
                stats = _telemetry_stats(dep.simulation.telemetry, events)
            else:
                wall, off_fp, _ = _run_fleet_arm(
                    fleet_devices, seed, horizon_s, False, max_spans
                )
                best_off = min(best_off, wall)
                wall, on_fp, observer = _run_fleet_arm(
                    fleet_devices, seed, horizon_s, True, max_spans
                )
                stats = _telemetry_stats(observer, 0)
            best_on = min(best_on, wall)
        points.append(
            ObsPoint(
                workload=workload,
                telemetry_off_s=best_off,
                telemetry_on_s=best_on,
                overhead_pct=(
                    (best_on - best_off) / best_off * 100.0
                    if best_off > 0
                    else float("inf")
                ),
                bit_identical=(off_fp == on_fp),
                **stats,
            )
        )
    return ObsResult(
        seed=seed,
        repeats=repeats,
        n_devices=n_devices,
        fleet_devices=fleet_devices,
        t_end_s=t_end_s,
        horizon_s=horizon_s,
        points=points,
        max_overhead_pct=max(p.overhead_pct for p in points),
        all_identical=all(p.bit_identical for p in points),
    )


_OBS_COLUMNS = (
    ("workload", "workload"),
    ("off (s)", "telemetry_off_s"),
    ("on (s)", "telemetry_on_s"),
    ("overhead %", "overhead_pct"),
    ("bit-identical", "bit_identical"),
    ("spans", "spans_total"),
    ("open", "spans_open"),
    ("orphans", "span_orphans"),
    ("series", "metric_series"),
    ("events", "events_total"),
)


def print_obs(res: ObsResult) -> None:
    """Render the telemetry overhead/invariance table as text."""
    print_points(_OBS_COLUMNS, res.points, title=(
        f"Observability plane — telemetry off vs on "
        f"(system {res.n_devices} devices / {res.t_end_s:g}s, "
        f"fleet {res.fleet_devices} devices / {res.horizon_s:g}s, "
        f"best of {res.repeats}; max overhead "
        f"{res.max_overhead_pct:.2f}%)"
    ))


registry.register(
    registry.ExperimentSpec(
        "obs",
        obs_experiment,
        print_obs,
        ObsResult,
        description=(
            "telemetry off vs on per workload: observer overhead %, "
            "bit-identity, span-tree completeness"
        ),
        uses_scale=False,
    ),
    replace=True,
)


# ---------------------------------------------------------------------------
# The `trace` CLI backend: one scenario, telemetry forced on, exported
# ---------------------------------------------------------------------------

def trace_scenario(
    doc: dict,
    t_end: float | None = None,
    max_spans: int | None = None,
):
    """Run a scenario document with telemetry forced on.

    Returns ``(result, report)`` where ``report`` is the run's
    :class:`repro.obs.telemetry.TelemetryReport` (span/event JSONL and
    Prometheus exposition come from it).  The document's own telemetry
    section is honored except ``enabled``, which is overridden to True.
    """
    doc = dict(doc)
    telemetry = dict(doc.get("telemetry") or {})
    telemetry["enabled"] = True
    if max_spans is not None:
        telemetry["max_spans"] = max_spans
    doc["telemetry"] = telemetry
    spec = ScenarioSpec.from_dict(doc)
    result = Deployment.from_spec(spec).run(t_end=t_end)
    return result, result.telemetry
