"""Aggregator node and the one task runtime (Section 6.3, Appendix E).

An :class:`AggregatorNode` is persistent and stateful: it hosts one or
more tasks for their whole lifetime (tasks move only on failure or load
imbalance), drains an in-memory queue of uploaded updates with *sharded
parallel aggregation* (arriving updates go to the earliest-free shard —
the simulation analogue of hashing the aggregating thread id to an
intermediate aggregate), heartbeats to the Coordinator, and reports
per-task client demand.

An :class:`FLTaskRuntime` owns one task: its config, the aggregation
core its plane chose (FedBuff or SyncFL — the mode switch of Appendix
E.3 — masked behind Asynchronous SecAgg, sharded, or both; see
:mod:`repro.system.planes`), its trainer adapter, and the set of live
client sessions.  It is where server steps trigger the paper's
post-step actions: evaluating the new model, aborting stale clients
(async) and round stragglers (sync).

Every core speaks the same shard protocol (``num_shards``,
``shard_of``, ``shard_alive``, ``drop_shard``, ``revive_shard``) and an
unsharded core is its one-shard case, so the runtime has one hosting
model and one failover path:

* a ``shard_nodes`` map places each shard on an :class:`AggregatorNode`
  (several shards may share a node; ``node`` is shard 0's host, where
  the root reducer rides).  Uploads route to the node hosting the
  client's shard; each hosting node's heartbeat carries per-shard
  demand entries (``task/s3: 12``), the even split of the task's
  headroom over the live shards.
* :meth:`FLTaskRuntime.drop_shards_on` fails over the shards a dead
  node hosted: their partial folds and in-flight contributions are
  dropped, and the Coordinator re-places each one on the least-loaded
  live node, reviving it empty.  A task that keeps a live shard loses
  only the dropped shards' clients — routing steers the dead slice to
  the survivors.  A task that loses *every* shard loses every session,
  in attachment order, together with its pending assignments: with no
  host left, a client still downloading has nowhere to upload to
  (clients of a lost Aggregator fail and retry, Appendix E.4).
"""

from __future__ import annotations

from typing import Callable

from repro.core.syncfl import SyncRoundAggregator
from repro.core.types import TaskConfig, TrainingMode
from repro.sim.engine import Simulator
from repro.sim.trace import MetricsTrace, Outcome, ServerStepRecord
from repro.system.adapters import TrainerAdapter
from repro.system.client_runtime import ClientSession, CohortDispatcher, PendingTraining
from repro.utils.logging import EventLog

__all__ = ["FLTaskRuntime", "AggregatorNode"]


class FLTaskRuntime:
    """Server-side runtime of one FL task.

    ``core`` is the aggregation core the task's plane chose (see
    :mod:`repro.system.planes`); the runtime places, fails over and
    re-places it shard by shard.  ``cohort`` is the dispatcher every
    client training of the task runs through (see
    :mod:`repro.system.client_runtime`); without one the runtime builds
    a cap-1 dispatcher over ``adapter``.
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
        core,
        sim: Simulator,
        trace: MetricsTrace,
        log: EventLog,
        on_slot_free: Callable[[], None] | None = None,
        cohort: CohortDispatcher | None = None,
    ):
        self.config = config
        self.adapter = adapter
        self.core = core
        self.sim = sim
        self.trace = trace
        self.log = log
        self.on_slot_free = on_slot_free or (lambda: None)
        self.cohort = CohortDispatcher(adapter) if cohort is None else cohort

        self.sessions: dict[int, ClientSession] = {}
        self.pending_assignments = 0
        self.shard_nodes: dict[int, AggregatorNode] = {}  # shard -> host

    @property
    def node(self) -> "AggregatorNode | None":
        """Shard 0's host (the root reducer rides with shard 0)."""
        return self.shard_nodes.get(0)

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

    # -- placement ------------------------------------------------------------

    def place_shard(self, shard_id: int, node: "AggregatorNode") -> None:
        """Host one shard on ``node`` (initial placement, move or failover)."""
        if not (0 <= shard_id < self.core.num_shards):
            raise ValueError(f"no such shard {shard_id}")
        self.shard_nodes[shard_id] = node
        if node.tasks.get(self.config.name) is not self:
            node.tasks[self.config.name] = self
        self.log.emit(
            self.sim.now, f"aggregator:{node.node_id}", "shard_hosted",
            task=self.config.name, shard=shard_id,
        )

    def hosted_shards(self, node: "AggregatorNode") -> list[int]:
        """Shards of this task currently hosted on ``node``."""
        return sorted(
            sid for sid, n in self.shard_nodes.items() if n is node
        )

    def unplaced_shards(self) -> list[int]:
        """Shards with no hosting node (lost their host, not yet re-placed)."""
        return [
            sid for sid in range(self.core.num_shards)
            if sid not in self.shard_nodes
        ]

    def is_routable(self) -> bool:
        """Clients can be assigned while any shard's host is alive."""
        for node in self.shard_nodes.values():
            if node.alive:
                return True
        return False

    # -- per-node demand / workload (heartbeat reports) -------------------------

    def demand_entries(self, node: "AggregatorNode") -> dict[str, int]:
        """Per-shard demand entries for the shards ``node`` hosts.

        The task's headroom is split evenly over the live shards
        (remainder to the lowest shard ids), so summing every hosting
        node's heartbeat report recovers the task's total demand.
        """
        live = [
            sid for sid in sorted(self.shard_nodes)
            if self.shard_nodes[sid].alive and self.core.shard_alive(sid)
        ]
        if not live:
            return {}
        share, remainder = divmod(self.demand(), len(live))
        return {
            f"{self.config.name}/s{sid}": share + (1 if rank < remainder else 0)
            for rank, sid in enumerate(live)
            if self.shard_nodes[sid] is node
        }

    def workload_on(self, node: "AggregatorNode") -> float:
        """This task's share of ``node``'s estimated workload.

        Section 6.3's ``concurrency × model size`` placement heuristic,
        scaled by the fraction of shards hosted there.
        """
        hosted = len(self.hosted_shards(node))
        return (
            self.config.concurrency * self.config.model_size_bytes
            * hosted / self.core.num_shards
        )

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
        """Route the upload to the queue of the node hosting the client's shard."""
        if self.fault_gate is not None and self.fault_gate.intercept_upload(
            self, session
        ):
            return  # injected network loss dropped the upload
        shard_id = self.core.shard_of(session.device_id)
        node = self.shard_nodes.get(shard_id)
        if node is None or not node.alive or not self.core.shard_alive(shard_id):
            # The shard (or its host) died while the update was in
            # flight: the update is lost; the client will be re-routed
            # next time (the abort also drops its parked training).
            self.core.client_failed(session.device_id)
            session.abort(Outcome.ABORTED)
            return
        node.enqueue_update(self, session, payload)
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

    # -- failure handling (Appendix E.4, per shard) -----------------------------

    def drop_shards_on(self, node: "AggregatorNode") -> list[int]:
        """A hosting node died: fail over every shard it hosted.

        Each such shard's partial fold and in-flight contributions are
        dropped; the shard is left *unplaced* and dead until the
        Coordinator re-places it.  While another shard keeps a host,
        only the dropped shards' clients abort — routing steers their
        slice to the survivors.  When no shard keeps a host, every
        session aborts in attachment order (routed or not) and the
        pending assignments go with them.  Model state and version
        survive either way (they are checkpointed).  Returns the shard
        ids dropped.
        """
        dropped_shards = self.hosted_shards(node)
        if not dropped_shards:
            return dropped_shards
        total_loss = len(dropped_shards) == len(self.shard_nodes)
        for sid in dropped_shards:
            lost, dropped_clients = self.core.drop_shard(sid)
            del self.shard_nodes[sid]
            self.log.emit(
                self.sim.now, f"task:{self.config.name}", "shard_failed",
                shard=sid, node=node.node_id, lost_buffered=lost,
                dropped_clients=len(dropped_clients),
            )
            if not total_loss:
                for cid in dropped_clients:
                    sess = self.sessions.get(cid)
                    if sess is not None:
                        sess.abort(Outcome.ABORTED)
        if total_loss:
            for session in list(self.sessions.values()):
                self.core.client_failed(session.device_id)
                session.abort(Outcome.ABORTED)
            self.sessions.clear()
            self.pending_assignments = 0
        self.on_slot_free()
        return dropped_shards

    # -- teardown ---------------------------------------------------------------

    def close(self) -> None:
        """Release core resources (worker processes, shared memory).

        A no-op for inline cores; idempotent.  The process pool also
        has a GC finalizer, so forgetting to call this leaks nothing
        past interpreter exit — but tests and long-running callers should
        close deterministically.
        """
        close = getattr(self.core, "close", None)
        if close is not None:
            close()


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
        self.crashes = 0  # lets a sweep see a crash it did not catch live
        self.last_heartbeat = 0.0
        self._thread_free_at = [0.0] * drain_threads
        self.updates_processed = 0

    # -- placement ------------------------------------------------------------

    def drop_task(self, name: str) -> FLTaskRuntime | None:
        """Stop hosting a task (it is being moved elsewhere)."""
        return self.tasks.pop(name, None)

    def estimated_workload(self) -> float:
        """Coordinator's placement heuristic: Σ concurrency × model size
        (each task contributes its hosted shards' share)."""
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
        """Per-shard client demand (``task/s<shard>``), shipped with
        each heartbeat."""
        report: dict[str, int] = {}
        for rt in self.tasks.values():
            report.update(rt.demand_entries(self))
        return report

    def fail(self) -> None:
        """Kill the node (failure-injection hook)."""
        self.alive = False
        self.crashes += 1
        self.log.emit(self.sim.now, f"aggregator:{self.node_id}", "failed")

    def recover(self) -> None:
        """Bring the node back with idle drain threads.

        What it hosted at the crash is lost even if no failure sweep saw
        it down: the Coordinator's next sweep sees ``crashes`` move and
        fails those shards over.
        """
        self.alive = True
        self._thread_free_at = [self.sim.now] * self.drain_threads
        self.log.emit(self.sim.now, f"aggregator:{self.node_id}", "recovered")
