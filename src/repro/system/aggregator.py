"""Aggregator node and per-task runtime (Section 6.3, Appendix E).

An :class:`AggregatorNode` is persistent and stateful: it hosts one or
more tasks for their whole lifetime (tasks move only on failure or load
imbalance), drains an in-memory queue of uploaded updates with *sharded
parallel aggregation* (arriving updates go to the earliest-free shard —
the simulation analogue of hashing the aggregating thread id to an
intermediate aggregate), heartbeats to the Coordinator, and reports
per-task client demand.

An :class:`FLTaskRuntime` owns one task: its config, its aggregation core
(FedBuff or SyncFL — the mode switch of Appendix E.3), its trainer
adapter, and the set of live client sessions.  It is where server steps
trigger the paper's post-step actions: evaluating the new model, aborting
stale clients (async) and round stragglers (sync).
:class:`SecureFLTaskRuntime` is the same runtime with its FedBuff core
behind Asynchronous SecAgg (Section 5).
"""

from __future__ import annotations

from typing import Callable

from repro.core.fedbuff import FedBuffAggregator
from repro.core.syncfl import SyncRoundAggregator
from repro.core.types import TaskConfig, TrainingMode
from repro.system.secure import SecureBufferedAggregator
from repro.sim.engine import Simulator
from repro.sim.trace import MetricsTrace, Outcome, ServerStepRecord
from repro.system.adapters import TrainerAdapter
from repro.system.client_runtime import ClientSession, CohortDispatcher, PendingTraining
from repro.utils.logging import EventLog

__all__ = ["FLTaskRuntime", "SecureFLTaskRuntime", "AggregatorNode"]


class FLTaskRuntime:
    """Server-side runtime of one FL task.

    ``cohort`` is the dispatcher every client training of the task runs
    through (see :mod:`repro.system.client_runtime`); without one the
    runtime builds a cap-1 dispatcher over ``adapter``.
    """

    # Set (per instance) by repro.sim.faults.FaultInjector when a
    # network_loss fault is scheduled; None means no interception and
    # zero overhead on the upload path.
    fault_gate = None

    # Set (per instance) by repro.obs.telemetry.RunTelemetry.attach when
    # the spec enables telemetry; None means no observation and zero
    # overhead beyond the attribute load.
    observer = None

    def __init__(
        self,
        config: TaskConfig,
        adapter: TrainerAdapter,
        sim: Simulator,
        trace: MetricsTrace,
        log: EventLog,
        on_slot_free: Callable[[], None] | None = None,
        cohort: CohortDispatcher | None = None,
    ):
        self.config = config
        self.adapter = adapter
        self.sim = sim
        self.trace = trace
        self.log = log
        self.on_slot_free = on_slot_free or (lambda: None)
        self.cohort = CohortDispatcher(adapter) if cohort is None else cohort

        self.core = self._build_core(config, adapter)

        self.sessions: dict[int, ClientSession] = {}
        self.pending_assignments = 0
        self.node: "AggregatorNode | None" = None  # set on placement

    def _build_core(self, config: TaskConfig, adapter: TrainerAdapter):
        """Construct the task's aggregation core (the mode switch).

        Seam for the secure and sharded runtimes: they override this to
        stand up their own core instead, so the base constructor never
        builds (and throws away) a plain aggregator.
        """
        if config.mode is TrainingMode.ASYNC:
            return FedBuffAggregator(
                adapter.state,
                goal=config.aggregation_goal,
                max_staleness=config.max_staleness,
                example_weighting=adapter.recommended_example_weighting,
                normalize_by=adapter.recommended_normalization,
            )
        return SyncRoundAggregator(
            adapter.state,
            goal=config.aggregation_goal,
            over_selection=config.over_selection,
            example_weighting=adapter.recommended_example_weighting,
        )

    # -- demand (Section 6.2 / Appendix E.3) -----------------------------------

    def demand(self) -> int:
        """Clients this task wants right now.

        Async: ``concurrency − active − pending`` (Appendix E.3).
        Sync: the round's remaining cohort want, also capped by
        concurrency.
        """
        occupied = len(self.sessions) + self.pending_assignments
        headroom = self.config.concurrency - occupied
        if isinstance(self.core, SyncRoundAggregator):
            want = self.core.demand() - self.pending_assignments
            return max(0, min(want, headroom))
        return max(0, headroom)

    def demand_entries(self, node: "AggregatorNode") -> dict[str, int]:
        """This task's entries in ``node``'s heartbeat demand report.

        The whole-task runtime reports one entry from its single hosting
        node; the sharded runtime overrides this with per-shard entries
        for the shards ``node`` hosts.
        """
        return {self.config.name: self.demand()}

    def workload_on(self, node: "AggregatorNode") -> float:
        """This task's share of ``node``'s estimated workload
        (Section 6.3's ``concurrency × model size`` heuristic)."""
        return self.config.concurrency * self.config.model_size_bytes

    def is_routable(self) -> bool:
        """Whether a client assigned to this task could reach a live host."""
        return self.node is not None and self.node.alive

    # -- session lifecycle ------------------------------------------------------

    def attach_session(self, session: ClientSession) -> None:
        """A selected client confirmed its assignment and starts work."""
        self.pending_assignments = max(0, self.pending_assignments - 1)
        self.sessions[session.device_id] = session
        session.begin()

    def session_ended(self, session: ClientSession) -> None:
        """Free the client's slot (any outcome) and ask for replacement."""
        self.sessions.pop(session.device_id, None)
        self.on_slot_free()

    def active_count(self) -> int:
        """Sessions currently attached."""
        return len(self.sessions)

    # -- upload path ------------------------------------------------------------

    def upload_arrived(
        self, session: ClientSession, payload: PendingTraining
    ) -> None:
        """An update reached the server; hand it to the hosting node's queue."""
        if self.fault_gate is not None and self.fault_gate.intercept_upload(
            self, session
        ):
            return  # injected network loss dropped the upload
        if self.node is None or not self.node.alive:
            # Hosting aggregator died while the update was in flight: the
            # update is lost; the client will be re-routed next time (the
            # abort also drops its parked training).
            self.core.client_failed(session.device_id)
            session.abort(Outcome.ABORTED)
            return
        self.node.enqueue_update(self, session, payload)

    def process_update(
        self, session: ClientSession, payload: PendingTraining
    ) -> None:
        """Deserialize + aggregate one update (runs on an aggregation shard)."""
        if self.sessions.get(session.device_id) is not session:
            # Aborted while queued (its parked training was dropped at
            # abort time).  Identity check, not membership: the device may
            # already be back under a NEW session, which must not let this
            # stale upload through.
            return
        # Demanding this result trains a cohort of parked clients in one
        # batched call.
        result = self.cohort.resolve(payload)
        try:
            update, step = self.core.receive_update(result)
        except KeyError:
            session.abort(Outcome.ABORTED)
            return
        outcome = Outcome.AGGREGATED if update.weight > 0 else Outcome.DISCARDED
        if self.observer is not None:
            self.observer.on_update_admitted(session, outcome, update.staleness)
        # complete() fires on_end -> session_ended, which frees the slot.
        session.complete(outcome, staleness=update.staleness)
        if step is not None:
            self._on_server_step(step)

    def _on_server_step(self, step) -> None:
        """Post-step actions: evaluate, abort stragglers/stale clients."""
        loss = self.adapter.current_loss()
        self.trace.record_server_step(
            ServerStepRecord(
                time=self.sim.now,
                task=self.config.name,
                version=step.version,
                num_updates=step.num_updates,
                mean_staleness=step.mean_staleness,
                loss=loss,
            )
        )
        self.log.emit(
            self.sim.now, f"task:{self.config.name}", "server_step",
            version=step.version, loss=loss,
        )
        if self.observer is not None:
            self.observer.on_server_step(self.config.name, step, loss, self.sim.now)
        # SyncFL: everyone still training when the round closed is
        # discarded (over-selection waste).
        for device_id in step.discarded:
            sess = self.sessions.get(device_id)
            if sess is not None:
                sess.abort(Outcome.DISCARDED)
        # AsyncFL: abort clients whose staleness exceeded the bound
        # ("After every server model update, the aggregator aborts clients
        # whose staleness is larger than ... maximum staleness").
        if self.config.mode is TrainingMode.ASYNC:
            for device_id in self.core.stale_clients():
                self.core.client_failed(device_id)
                sess = self.sessions.get(device_id)
                if sess is not None:
                    sess.abort(Outcome.ABORTED)

    # -- failure handling (Appendix E.4) --------------------------------------

    def on_reassigned(self) -> None:
        """The hosting aggregator died; buffered updates and sessions are lost.

        Model state and version survive (checkpointed); everything in the
        failed node's memory does not.
        """
        lost, dropped = self.core.drop_buffer_and_inflight()
        self.log.emit(
            self.sim.now, f"task:{self.config.name}", "task_reassigned",
            lost_buffered=lost, dropped_clients=len(dropped),
        )
        for session in list(self.sessions.values()):
            session.abort(Outcome.ABORTED)
        self.sessions.clear()
        self.pending_assignments = 0
        self.on_slot_free()


class SecureFLTaskRuntime(FLTaskRuntime):
    """Server-side runtime of one task aggregated through Asynchronous SecAgg.

    The whole-task runtime with a masked core: FedBuff's buffer lives
    inside a TSA (Section 5), so the server never sees an update in the
    clear.
    """

    def _build_core(self, config: TaskConfig, adapter: TrainerAdapter):
        if config.mode is not TrainingMode.ASYNC:
            raise ValueError(
                "secure aggregation is implemented via the Asynchronous "
                "SecAgg protocol; set mode=ASYNC (the paper's SMPC-based "
                "synchronous SecAgg is out of scope, Section 5)"
            )
        return SecureBufferedAggregator(
            adapter.state,
            goal=config.aggregation_goal,
            vector_length=adapter.state.size,
            max_staleness=config.max_staleness,
            example_weighting=adapter.recommended_example_weighting,
        )


class AggregatorNode:
    """A persistent aggregator process hosting several task runtimes."""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        log: EventLog,
        drain_threads: int = 4,
        update_process_time_s: float = 0.01,
    ):
        if drain_threads < 1:
            raise ValueError("drain_threads must be at least 1")
        if update_process_time_s < 0:
            raise ValueError("update_process_time_s must be non-negative")
        self.node_id = node_id
        self.sim = sim
        self.log = log
        self.drain_threads = drain_threads
        self.update_process_time_s = update_process_time_s
        self.tasks: dict[str, FLTaskRuntime] = {}
        self.alive = True
        self.last_heartbeat = 0.0
        self._thread_free_at = [0.0] * drain_threads
        self.updates_processed = 0

    # -- placement ------------------------------------------------------------

    def host(self, task_rt: FLTaskRuntime) -> None:
        """Take over a task (initial placement or failover)."""
        task_rt.node = self
        self.tasks[task_rt.config.name] = task_rt
        self.log.emit(
            self.sim.now, f"aggregator:{self.node_id}", "task_hosted",
            task=task_rt.config.name,
        )

    def drop_task(self, name: str) -> FLTaskRuntime | None:
        """Stop hosting a task (it is being moved elsewhere)."""
        return self.tasks.pop(name, None)

    def estimated_workload(self) -> float:
        """Coordinator's placement heuristic: Σ concurrency × model size
        (sharded tasks contribute only their hosted shards' share)."""
        return sum(t.workload_on(self) for t in self.tasks.values())

    # -- queue + sharded parallel aggregation ------------------------------------

    def enqueue_update(
        self,
        task_rt: FLTaskRuntime,
        session: ClientSession,
        payload: PendingTraining,
    ) -> None:
        """Push an uploaded update into the in-memory queue.

        The draining thread pool is modeled as ``drain_threads`` parallel
        servers; an arriving update is dispatched to the earliest-free
        thread and costs ``update_process_time_s`` of deserialization +
        intermediate aggregation.
        """
        now = self.sim.now
        thread = min(
            range(self.drain_threads), key=lambda i: self._thread_free_at[i]
        )
        start = max(now, self._thread_free_at[thread])
        done = start + self.update_process_time_s
        self._thread_free_at[thread] = done
        self.updates_processed += 1
        if task_rt.observer is not None:
            task_rt.observer.on_enqueue(task_rt.config.name, start - now)
        self.sim.schedule(done - now, lambda: task_rt.process_update(session, payload))

    def queue_depth_seconds(self) -> float:
        """How far behind the busiest drain thread is (backpressure signal)."""
        return max(0.0, max(self._thread_free_at) - self.sim.now)

    # -- liveness ------------------------------------------------------------

    def demand_report(self) -> dict[str, int]:
        """Per-task client demand, shipped with each heartbeat.

        Sharded tasks hosted here contribute one entry per hosted shard
        (``task/s<shard>``) instead of a single whole-task entry.
        """
        report: dict[str, int] = {}
        for rt in self.tasks.values():
            report.update(rt.demand_entries(self))
        return report

    def fail(self) -> None:
        """Kill the node (failure-injection hook)."""
        self.alive = False
        self.log.emit(self.sim.now, f"aggregator:{self.node_id}", "failed")

    def recover(self) -> None:
        """Bring the node back empty (tasks were reassigned elsewhere)."""
        self.alive = True
        self._thread_free_at = [self.sim.now] * self.drain_threads
        self.log.emit(self.sim.now, f"aggregator:{self.node_id}", "recovered")
