"""Differential and trace-completeness tests for the observability plane.

Two contracts, pinned end-to-end:

* **read-only observer** — a telemetry-on run produces byte-identical
  participations, server steps, losses, and event order to a
  telemetry-off run of the same spec (the observer never draws
  randomness, schedules events, or mutates state);
* **trace completeness under chaos** — for every canned scenario in
  ``examples/scenarios/``, the exported span tree is causally complete:
  no orphaned spans, every admitted update's round-trip closed, and the
  schedule's fault windows annotated onto the spans they overlapped.
"""

import json
import pathlib

import pytest

from repro.api import (
    Deployment,
    ExecutionSpec,
    PlaneSpec,
    PopulationSpec,
    ScenarioSpec,
    TaskSpec,
    TelemetrySpec,
    build_population,
)
from repro.harness.obs import trace_scenario
from repro.obs import PHASE_CATALOG, SPAN_CATALOG, RunTelemetry, TelemetryReport
from repro.sim.fleet import FleetConfig, FleetSimulation
from repro.sim.trace import BoundedMetricsTrace

SCENARIOS = sorted(
    (pathlib.Path(__file__).parent.parent / "examples" / "scenarios").glob("*.json")
)


def _spec(plane: str, telemetry: bool) -> ScenarioSpec:
    return ScenarioSpec(
        population=PopulationSpec(n_devices=200),
        tasks=(
            TaskSpec(name="train", mode="async", concurrency=16,
                     aggregation_goal=4),
        ),
        plane=(
            PlaneSpec(name="sharded", num_shards=2)
            if plane == "sharded"
            else PlaneSpec()
        ),
        execution=ExecutionSpec(seed=7, t_end_s=900.0),
        telemetry=TelemetrySpec(enabled=telemetry),
    )


def _run_outputs(plane: str, telemetry: bool):
    result = Deployment.from_spec(_spec(plane, telemetry)).run()
    participations = [
        (p.device_id, p.task, p.start_time, p.end_time, p.outcome)
        for p in result.trace.participations
    ]
    steps = [
        (s.time, s.task, s.version, s.num_updates, s.loss)
        for s in result.trace.server_steps
    ]
    events = [r.to_dict() for r in result.log]
    return result, participations, steps, events


class TestReadOnlyObserver:
    @pytest.mark.parametrize("plane", ["single", "sharded"])
    def test_telemetry_does_not_perturb_the_run(self, plane):
        off, off_parts, off_steps, off_events = _run_outputs(plane, False)
        on, on_parts, on_steps, on_events = _run_outputs(plane, True)
        assert off.telemetry is None
        assert isinstance(on.telemetry, TelemetryReport)
        assert on_parts == off_parts
        assert on_steps == off_steps  # losses ride in the step tuples
        assert on_events == off_events  # same events, same order

    def test_fleet_observer_is_read_only(self):
        def run(observed: bool):
            population = build_population(
                PopulationSpec(n_devices=20_000, columnar=True, seed=3)
            )
            fleet = FleetSimulation(
                population,
                FleetConfig(demand=100),
                trace=BoundedMetricsTrace(max_records=5_000, seed=3),
                seed=3,
                observer=RunTelemetry() if observed else None,
            )
            fleet.run(900.0)
            return (
                [(p.device_id, p.start_time, p.end_time, p.outcome)
                 for p in fleet.trace.participations],
                fleet.sessions_started,
                fleet.sessions_completed,
                fleet.turned_away,
                fleet.ineligible,
                fleet.trace.total_participations,
                fleet.sim.events_fired,
                fleet.sim.now,
            )

        assert run(True) == run(False)


class TestExportedTelemetry:
    def test_report_surfaces_and_exports(self):
        result = Deployment.from_spec(_spec("sharded", True)).run()
        report = result.telemetry
        summary = report.summary()
        json.dumps(summary)  # JSON-able throughout
        assert summary["metrics"]["sessions_total"]["series"]
        assert set(summary["spans"]["totals"]) <= set(SPAN_CATALOG)
        assert set(summary["profile"]) <= set(PHASE_CATALOG)
        # The sharded core was actually profiled, not just attachable.
        assert summary["profile"]["shard_fold"]["count"] > 0
        assert summary["profile"]["root_merge"]["count"] > 0
        for line in report.to_jsonl().splitlines():
            doc = json.loads(line)
            assert doc["record"] in ("span", "event")
        assert "# TYPE sessions_total counter" in report.prometheus()


class TestProcessExecutorPhases:
    @pytest.mark.parametrize("plane", ["sharded", "secure_sharded"])
    def test_both_process_planes_report_pool_phases(self, plane):
        """One pool, one profiler seam: the secure process plane used to
        report no ``pool_dispatch``/``pool_barrier`` at all."""
        spec = ScenarioSpec(
            population=PopulationSpec(n_devices=200),
            tasks=(
                TaskSpec(name="train", mode="async", concurrency=8,
                         aggregation_goal=4),
            ),
            plane=PlaneSpec(name=plane, num_shards=2, executor="process"),
            execution=ExecutionSpec(seed=7, t_end_s=300.0),
            telemetry=TelemetrySpec(enabled=True, profiling=True),
        )
        deployment = Deployment.from_spec(spec)
        try:
            result = deployment.run()
        finally:
            for rt in deployment.simulation.task_runtimes.values():
                rt.close()
        assert not list(result.log.of_kind("executor_fallback"))
        profile = result.telemetry.summary()["profile"]
        assert profile["pool_dispatch"]["count"] > 0
        assert profile["pool_barrier"]["count"] > 0


class TestTraceCompletenessUnderChaos:
    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_span_tree_complete_and_faults_annotated(self, path):
        doc = json.loads(path.read_text())
        assert doc.get("faults", {}).get("events"), (
            f"{path.name}: canned scenario lost its fault schedule"
        )
        result, report = trace_scenario(doc)
        tracer = report.tracer

        # Telemetry was forced on and nothing was evicted or orphaned.
        assert isinstance(report, TelemetryReport)
        assert tracer.evicted == 0
        assert tracer.orphans() == []

        # Every admitted update's round trip is closed: each completed
        # admit span hangs off a *completed* round_trip parent.
        completed = {s.span_id for s in tracer.completed()}
        admits = tracer.completed_of("admit")
        assert admits, f"{path.name}: no updates admitted under the schedule"
        for span in admits:
            assert span.parent_id in completed, (
                f"{path.name}: admit span {span.span_id} closed but its "
                f"round_trip {span.parent_id} never did"
            )

        # Sessions and spans agree exactly: one completed round_trip per
        # terminal session outcome, with only in-flight sessions open.
        sessions = sum(
            report.metrics.get("sessions_total", labels).value
            for labels in report.metrics.snapshot()["sessions_total"]["series"]
        )
        assert tracer.count("round_trip") == sessions
        for span in tracer.open_spans():
            assert span.status == "in_flight"

        # The schedule's fault windows landed as span annotations, and
        # every annotation names a fault kind the run actually logged.
        fault_kinds = {
            kind for kind in result.log.kind_totals()
            if kind.startswith("fault_") or kind == "upload_lost"
        }
        assert fault_kinds, f"{path.name}: schedule fired no fault events"
        annotated = [
            note
            for span in tracer.completed()
            for note in (span.annotations or ())
        ]
        assert annotated, f"{path.name}: no span overlapped a fault window"
        for note in annotated:
            assert note["fault"] in fault_kinds
            assert note["at_s"] <= note["until_s"]
