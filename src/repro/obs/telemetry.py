"""The run-level observer: wires metrics, tracing, and profiling into a run.

:class:`RunTelemetry` is the single object the system layer sees.  Every
emission point in the orchestrator, aggregators, client runtime,
coordinator, fleet driver, and secure boundary is a one-line
``observer is None`` check (the same pattern as
:attr:`~repro.system.aggregator.FLTaskRuntime.fault_gate`), so a run
without telemetry pays one attribute load per site and nothing else —
the byte-identity contract of the default path.

The observer is strictly **read-only**: hooks never draw randomness,
never schedule events, and never mutate simulation state, so a
telemetry-on run produces the same trace, losses, and event order as a
telemetry-off run of the same spec.

The :data:`METRIC_CATALOG` / :data:`SPAN_CATALOG` / :data:`PHASE_CATALOG`
tables are the single source of truth for what the plane emits;
``tools/check_docs.py`` keeps ``docs/OBSERVABILITY.md`` in lockstep with
them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.export import merged_jsonl, to_prometheus
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.profiling import PhaseProfiler
from repro.obs.tracing import SpanTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system.client_runtime import ClientSession
    from repro.system.orchestrator import FederatedSimulation, RunResult

__all__ = [
    "METRIC_CATALOG",
    "SPAN_CATALOG",
    "PHASE_CATALOG",
    "RunTelemetry",
    "TelemetryReport",
]


#: every metric family the plane declares: name -> (kind, help, labels)
METRIC_CATALOG: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "checkins_total": (
        "counter", "client check-ins by admission status", ("status",)),
    "sessions_total": (
        "counter", "finished client sessions by task and outcome",
        ("task", "outcome")),
    "updates_admitted_total": (
        "counter", "uploads the aggregation core accepted", ("task", "outcome")),
    "server_steps_total": (
        "counter", "server model steps", ("task",)),
    "task_failovers_total": (
        "counter", "shard re-placements after a node failure", ("reason",)),
    "assignments_total": (
        "counter", "coordinator client-assignment decisions", ("result",)),
    "stale_map_retries_total": (
        "counter", "check-ins retried through a stale selector map", ()),
    "fault_events_total": (
        "counter", "fault-injector events observed", ("kind",)),
    "secagg_boundary_bytes_total": (
        "counter", "bytes crossing the secure-aggregation trust boundary",
        ("direction",)),
    "secagg_shard_folds_total": (
        "counter", "masked updates folded per secure-sharded shard TSA",
        ("task", "shard")),
    "fleet_arrivals_total": (
        "counter", "fleet tick arrivals by admission status", ("status",)),
    "fleet_sessions_total": (
        "counter", "completed fleet sessions by outcome", ("outcome",)),
    "round_trip_seconds": (
        "histogram", "client round-trip duration, simulated", ("task",)),
    "queue_wait_seconds": (
        "histogram", "aggregator queue wait before processing, simulated",
        ("task",)),
    "update_staleness": (
        "histogram", "staleness of admitted updates, in versions behind",
        ("task",)),
    "inflight_sessions": (
        "gauge", "active client sessions, sampled each heartbeat", ("task",)),
    "queue_depth_seconds": (
        "gauge", "aggregator drain backlog, sampled each heartbeat", ("node",)),
}

#: per-metric histogram bucket overrides (others use DEFAULT_BUCKETS)
_BUCKETS: dict[str, tuple[float, ...]] = {
    "update_staleness": (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
}

#: every span name the tracer emits: name -> what it covers
SPAN_CATALOG: dict[str, str] = {
    "round_trip": "one client participation, selection to terminal outcome",
    "download": "model download stage of a round-trip",
    "train": "local training stage of a round-trip",
    "upload": "report + upload stage of a round-trip",
    "admit": "server-side aggregation of one dequeued upload",
    "round": "one task round: the window between consecutive server steps",
    "secagg_epoch": "one secure-sharded buffer epoch, closed at its unmask release",
    "fleet_session": "deep-traced session of the columnar fleet driver",
}

#: every wall-clock profiling phase: name -> the hot path it times
PHASE_CATALOG: dict[str, str] = {
    "shard_fold": "sharded-core fold of one arrival",
    "root_merge": "root reducer merging shard partials at a server step",
    "pool_dispatch": "process-pool slab write + task dispatch",
    "pool_barrier": "process-pool ack wait at epoch barriers",
    "secagg_submit": "secure client participation + masked submission",
    "secagg_finalize": "secure epoch unmask + model step",
}


class TelemetryReport:
    """Everything a telemetry-on run exports, bundled for the harness.

    Surfaced as ``RunResult.telemetry``; holds live references to the
    registry, tracer, profiler, and the run's event log.
    """

    def __init__(self, metrics, tracer, profiler, log) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.profiler = profiler
        self.log = log

    def summary(self) -> dict[str, Any]:
        """JSON-able digest: metric values, span tallies, phase profile."""
        snap = self.metrics.snapshot()
        metrics: dict[str, Any] = {}
        for name, family in snap.items():
            series = {
                "|".join(k): (v if not isinstance(v, dict) else
                              {"count": v["count"], "sum": v["sum"]})
                for k, v in family["series"].items()
            }
            metrics[name] = {"kind": family["kind"], "series": series}
        return {
            "metrics": metrics,
            "spans": {
                "totals": self.tracer.name_totals(),
                "open": self.tracer.open_count,
                "evicted": self.tracer.evicted,
            },
            "events": self.log.kind_totals(),
            "profile": self.profiler.summary() if self.profiler else {},
        }

    def to_jsonl(self) -> str:
        """Spans and structured events merged into one JSONL trace."""
        return merged_jsonl(self.tracer, self.log)

    def prometheus(self) -> str:
        """The metrics registry in Prometheus text exposition format."""
        return to_prometheus(self.metrics)


class _SessionSpans:
    __slots__ = ("root", "stage")

    def __init__(self, root: int, stage: int) -> None:
        self.root = root
        self.stage = stage


class RunTelemetry:
    """Observer attached to a simulation when the spec enables telemetry."""

    def __init__(self, max_spans: int = 100_000, profiling: bool = True) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer(max_spans=max_spans)
        self.profiler = PhaseProfiler() if profiling else None
        self._sessions: dict[int, _SessionSpans] = {}
        self._last_step: dict[str, float] = {}
        self._sim: "FederatedSimulation | None" = None
        self._secure_cores: dict[str, Any] = {}
        self._swept: dict[tuple[str, tuple[str, ...]], float] = {}
        self._faults_annotated = 0
        for name, (kind, help_text, labels) in METRIC_CATALOG.items():
            if kind == "counter":
                self.metrics.counter(name, help_text, labels)
            elif kind == "gauge":
                self.metrics.gauge(name, help_text, labels)
            else:
                self.metrics.histogram(
                    name, help_text, labels,
                    buckets=_BUCKETS.get(name, DEFAULT_BUCKETS),
                )
        # Pre-resolved series for the fleet's per-session hot path: one
        # bound-method call per event instead of the full labeled lookup.
        self._fleet_ok = self.metrics._series("fleet_sessions_total", ("aggregated",))
        self._fleet_failed = self.metrics._series("fleet_sessions_total", ("failed",))
        self._fleet_dur = self.metrics._series("round_trip_seconds", ("fleet",))

    # -- wiring ---------------------------------------------------------------

    def attach(self, sim: "FederatedSimulation") -> "RunTelemetry":
        """Install this observer on a built simulation (system plane)."""
        self._sim = sim
        sim.telemetry = self
        sim.coordinator.observer = self
        for rt in sim.task_runtimes.values():
            rt.observer = self
            if self.profiler is not None:
                self._attach_profiler(rt.core)
        return self

    def _attach_profiler(self, core) -> None:
        """Hand the profiler to the core (every core has the seam and
        records only the phases its shape has) and to its worker pool."""
        core.profiler = self.profiler
        pool = getattr(core, "pool", None) or getattr(core, "_pool", None)
        if pool is not None and hasattr(type(pool), "profiler"):
            pool.profiler = self.profiler

    # -- orchestrator hooks ---------------------------------------------------

    def on_checkin(self, status: str) -> None:
        """One check-in resolved (assigned / saturated / cooldown / ...)."""
        self.metrics.inc("checkins_total", (status,))

    def on_heartbeat(self, sim: "FederatedSimulation") -> None:
        """Heartbeat tick: sample in-flight sessions and queue backlogs."""
        for name, rt in sim.task_runtimes.items():
            self.metrics.set("inflight_sessions", rt.active_count(), (name,))
        for node in sim.aggregators:
            self.metrics.set(
                "queue_depth_seconds", node.queue_depth_seconds(),
                (str(node.node_id),),
            )

    # -- session lifecycle hooks (client runtime) -----------------------------

    def on_session_begin(self, session: "ClientSession") -> None:
        """A selected client attached; open its round-trip span tree."""
        now = session.sim.now
        root = self.tracer.start(
            "round_trip", now,
            task=session.task_rt.config.name, device=session.device_id,
        )
        stage = self.tracer.start("download", now, parent=root)
        self._sessions[id(session)] = _SessionSpans(root, stage)

    def _next_stage(self, session: "ClientSession", name: str) -> None:
        entry = self._sessions.get(id(session))
        if entry is None:
            return
        now = session.sim.now
        self.tracer.end(entry.stage, now)
        entry.stage = self.tracer.start(name, now, parent=entry.root)

    def on_session_downloaded(self, session: "ClientSession") -> None:
        """Download finished; the training stage starts."""
        self._next_stage(session, "train")

    def on_session_upload(self, session: "ClientSession") -> None:
        """Training finished; the report + upload stage starts."""
        self._next_stage(session, "upload")

    def on_update_admitted(self, session, outcome, staleness: int) -> None:
        """The aggregation core accepted this session's upload."""
        now = session.sim.now
        task = session.task_rt.config.name
        label = outcome.name.lower()
        entry = self._sessions.get(id(session))
        if entry is not None:
            self.tracer.end(entry.stage, now)
            entry.stage = self.tracer.record(
                "admit", now, now, parent=entry.root,
                outcome=label, staleness=staleness,
            )
        self.metrics.inc("updates_admitted_total", (task, label))
        self.metrics.observe("update_staleness", staleness, (task,))

    def on_session_end(self, session, outcome, exec_time: float) -> None:
        """Terminal outcome reached; close the round-trip span."""
        now = session.sim.now
        task = session.task_rt.config.name
        label = outcome.name.lower()
        entry = self._sessions.pop(id(session), None)
        if entry is not None:
            # end() is idempotent: a stage already closed (or recorded as
            # an instantaneous admit span) is left untouched.
            self.tracer.end(entry.stage, now, status=label)
            self.tracer.end(entry.root, now, status=label, exec_time_s=exec_time)
        self.metrics.inc("sessions_total", (task, label))
        self.metrics.observe("round_trip_seconds", now - session.start_time, (task,))

    # -- aggregator hooks -----------------------------------------------------

    def on_enqueue(self, task: str, wait_s: float) -> None:
        """An upload was queued; record its wait before processing."""
        self.metrics.observe("queue_wait_seconds", wait_s, (task,))

    def on_server_step(self, task: str, step, loss: float, now: float) -> None:
        """A server step closed one task round; record the round span."""
        start = self._last_step.get(task, 0.0)
        self._last_step[task] = now
        self.tracer.record(
            "round", start, now,
            task=task, version=step.version, num_updates=step.num_updates,
            loss=loss,
        )
        self.metrics.inc("server_steps_total", (task,))
        core = self._secure_sharded_core(task)
        if core is not None:
            self.tracer.record(
                "secagg_epoch", start, now,
                task=task, version=step.version,
                num_updates=step.num_updates,
                live_shards=len(core.live_shards()),
                shard_folds=core.shard_loads(),
            )

    def _secure_sharded_core(self, task: str):
        """The task's core when it is a secure one with more than one
        shard, else None.

        Sharded is read from ``num_shards``, secure from the boundary
        meters only the secure core keeps.  Resolved once per task and
        cached (read-only lookup)."""
        if task in self._secure_cores:
            return self._secure_cores[task]
        core = None
        if self._sim is not None:
            rt = self._sim.task_runtimes.get(task)
            candidate = getattr(rt, "core", None)
            if (
                candidate is not None
                and candidate.num_shards > 1
                and hasattr(candidate, "boundary_bytes_in_total")
            ):
                core = candidate
        self._secure_cores[task] = core
        return core

    # -- coordinator hooks ----------------------------------------------------

    def on_failover(self, reason: str) -> None:
        """The coordinator re-placed one shard after a node failure."""
        self.metrics.inc("task_failovers_total", (reason,))

    # -- fleet hooks (columnar million-client driver) -------------------------

    def on_fleet_tick(self, admitted: int, turned_away: int, ineligible: int) -> None:
        """One fleet tick's arrival accounting (vectorized, per tick)."""
        if admitted:
            self.metrics.inc("fleet_arrivals_total", ("admitted",), admitted)
        if turned_away:
            self.metrics.inc("fleet_arrivals_total", ("turned_away",), turned_away)
        if ineligible:
            self.metrics.inc("fleet_arrivals_total", ("ineligible",), ineligible)

    def on_fleet_session_end(
        self, device_id: int, start: float, now: float, failed: bool, deep: bool
    ) -> None:
        """One fleet session completed; spans only for deep-traced sessions."""
        (self._fleet_failed if failed else self._fleet_ok).inc()
        self._fleet_dur.observe(now - start)
        if deep:
            self.tracer.record(
                "fleet_session", start, now,
                status="failed" if failed else "ok", device=device_id,
            )

    # -- finalize -------------------------------------------------------------

    def _sweep(self, name: str, labels: tuple[str, ...], current: float) -> None:
        """Fold an externally-accumulated counter in, idempotently."""
        key = (name, labels)
        delta = current - self._swept.get(key, 0.0)
        if delta > 0:
            self.metrics.inc(name, labels, delta)
            self._swept[key] = current

    def finalize(self, result: "RunResult") -> TelemetryReport:
        """Read-only end-of-run sweep; returns the exportable report.

        Folds component counters (coordinator, selectors, secure cores)
        into the registry, counts fault events, and annotates completed
        round-trip spans with the fault windows that overlapped them.
        """
        sim = self._sim
        if sim is not None:
            coord = sim.coordinator
            self._sweep("assignments_total", ("made",), coord.assignments_made)
            self._sweep(
                "assignments_total", ("rejected",), coord.assignments_rejected)
            self._sweep(
                "stale_map_retries_total", (),
                sum(s.stale_map_retries for s in sim.selectors),
            )
            for name, rt in sim.task_runtimes.items():
                core = rt.core
                bin_ = getattr(core, "boundary_bytes_in_total", None)
                if bin_ is not None:
                    self._sweep("secagg_boundary_bytes_total", ("in",), bin_)
                    self._sweep(
                        "secagg_boundary_bytes_total", ("out",),
                        core.boundary_bytes_out_total,
                    )
                    if core.num_shards > 1:
                        for sid, folds in enumerate(core.shard_loads()):
                            self._sweep(
                                "secagg_shard_folds_total",
                                (name, str(sid)), folds,
                            )
        for kind, total in result.log.kind_totals().items():
            if kind.startswith("fault_") or kind == "upload_lost":
                self._sweep("fault_events_total", (kind,), total)
        self._annotate_faults(result)
        return TelemetryReport(
            self.metrics, self.tracer, self.profiler, result.log
        )

    def _annotate_faults(self, result: "RunResult") -> None:
        """Attach overlapping fault windows to completed round-trip spans."""
        windows: list[tuple[str, float, float]] = []
        seen = 0
        for record in result.log:
            if not (record.kind.startswith("fault_") or record.kind == "upload_lost"):
                continue
            seen += 1
            if seen <= self._faults_annotated:
                continue  # already applied by an earlier finalize
            end = float(record.detail.get("until_s", record.time))
            windows.append((record.kind, record.time, end))
        self._faults_annotated = seen
        if not windows:
            return
        spans = [
            s for s in self.tracer.completed()
            if s.name in ("round_trip", "fleet_session")
        ] + self.tracer.open_spans()
        for kind, start, end in windows:
            for span in spans:
                span_end = span.end_s if span.end_s is not None else float("inf")
                if span.start_s <= end and span_end >= start:
                    span.annotate({"fault": kind, "at_s": start, "until_s": end})
