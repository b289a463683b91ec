"""The Coordinator: task placement, client assignment, failure recovery.

Section 4: "there is only one Coordinator"; it (1) assigns FL tasks to
Aggregators, (2) assigns clients to FL tasks, and (3) provides centralized
coordination and ensures tasks progress in the face of Aggregator
failures.

Client assignment follows Section 6.2 exactly:

* **demand tracking** — each Aggregator reports per-task demand with its
  heartbeats; the Coordinator pools them and *explicitly accounts for
  clients that have been assigned but have not yet confirmed* (the
  ``pending_assignments`` counter on each task runtime);
* **eligibility** — a task is eligible for a client if the client is
  compatible and the task has positive demand;
* **assignment** — the Coordinator picks uniformly at random among
  eligible tasks and instructs the Selector to forward the client to the
  responsible Aggregator.

Failure handling follows Appendix E.4: aggregator death is detected by
missed heartbeats (or, for a crash the node came back from between two
sweeps, by its crash count) and the shards it hosted move to the
least-loaded live node — every task is placed and failed over per shard,
an unsharded task being the one-shard case; coordinator death pauses
*new* assignments only — participating clients are unaffected — and
recovery spends a configurable window rebuilding the assignment view
before resuming.
"""

from __future__ import annotations

import numpy as np

from repro.sim.engine import Simulator
from repro.system.aggregator import AggregatorNode, FLTaskRuntime
from repro.utils.backoff import RetryPolicy
from repro.utils.logging import EventLog

__all__ = ["Coordinator"]


class Coordinator:
    """Singleton control plane of the simulated deployment."""

    # Set by repro.obs.telemetry.RunTelemetry.attach when the spec
    # enables telemetry; None means zero overhead on failover paths.
    observer = None

    def __init__(
        self,
        sim: Simulator,
        log: EventLog,
        rng: np.random.Generator,
        heartbeat_interval_s: float = 10.0,
        heartbeat_miss_limit: int = 3,
        recovery_period_s: float = 30.0,
        placement_retry: RetryPolicy | None = None,
    ):
        if heartbeat_interval_s <= 0 or heartbeat_miss_limit < 1:
            raise ValueError("invalid heartbeat parameters")
        self.sim = sim
        self.log = log
        self.rng = rng
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_miss_limit = heartbeat_miss_limit
        self.recovery_period_s = recovery_period_s
        # How re-placement of unhosted shards is paced across failure
        # sweeps.  The default retries forever with no extra delay — the
        # historical behaviour, sweep-paced.
        self.placement_retry = placement_retry or RetryPolicy()

        self.aggregators: list[AggregatorNode] = []
        self.tasks: dict[str, FLTaskRuntime] = {}
        self.assignment_seq = 0  # bumped on every placement change
        self.alive = True
        self._recovering_until = -1.0
        self.assignments_made = 0
        self.assignments_rejected = 0
        # Each node's crash count as of the last sweep.
        self._crashes_seen: dict[int, int] = {}
        # Re-placement retry bookkeeping, keyed (task, shard).
        self._retry_counts: dict[tuple[str, int], int] = {}
        self._retry_after: dict[tuple[str, int], float] = {}
        self._retry_noted_at: dict[tuple[str, int], float] = {}
        self._abandoned: set[tuple[str, int]] = set()

    # -- registration / placement ------------------------------------------------

    @property
    def shard_placement(self) -> dict[str, dict[int, int]]:
        """task -> shard -> id of the node hosting it (placed shards only)."""
        return {
            name: {sid: node.node_id for sid, node in rt.shard_nodes.items()}
            for name, rt in self.tasks.items()
        }

    def register_aggregator(self, node: AggregatorNode) -> None:
        """Add an aggregator to the pool."""
        node.last_heartbeat = self.sim.now
        self.aggregators.append(node)

    def register_task(self, task_rt: FLTaskRuntime) -> None:
        """Accept a task and spread its shards over the live aggregators.

        Greedy least-estimated-workload per shard (Section 6.3), in
        ascending shard order — every placed shard immediately counts
        toward its host's workload, so ``S`` shards on ``N`` comparable
        nodes land ceil(S/N) per node.
        """
        name = task_rt.config.name
        self.tasks[name] = task_rt
        live = self._live_nodes()
        if not live:
            raise RuntimeError("no live aggregators to place task on")
        for shard_id in range(task_rt.core.num_shards):
            node = min(live, key=lambda a: a.estimated_workload())
            task_rt.place_shard(shard_id, node)
        self.assignment_seq += 1
        self.log.emit(
            self.sim.now, "coordinator", "task_placed",
            task=name, seq=self.assignment_seq,
            shards={sid: n.node_id for sid, n in task_rt.shard_nodes.items()},
        )

    def _live_nodes(self) -> list[AggregatorNode]:
        return [a for a in self.aggregators if a.alive]

    def _replace_dead_shards(
        self, task_rt: FLTaskRuntime, reason: str = "node_dead"
    ) -> list[int]:
        """Re-place shards that lost their host, reviving them empty.

        With no live node (or while the retry policy's backoff holds a
        shard back) the shards stay dead — their slice remains re-routed
        to the survivors, or the task takes no clients if none is left —
        and a later sweep retries, until the policy's attempt budget
        abandons them.
        """
        live = self._live_nodes()
        name = task_rt.config.name
        revived: list[int] = []
        now = self.sim.now
        for shard_id in task_rt.unplaced_shards():
            key = (name, shard_id)
            if key in self._abandoned:
                continue
            if not live:
                self._note_retry(key, reason="no_live_node")
                continue
            if now < self._retry_after.get(key, 0.0):
                continue  # backoff window still open; a later sweep retries
            node = min(live, key=lambda a: a.estimated_workload())
            task_rt.place_shard(shard_id, node)
            task_rt.core.revive_shard(shard_id)
            revived.append(shard_id)
            self.log.emit(
                now, "coordinator", "shard_replaced",
                task=name, shard=shard_id, node=node.node_id,
                reason=reason, retries=self._retry_counts.pop(key, 0),
            )
            if self.observer is not None:
                self.observer.on_failover(reason)
            self._retry_after.pop(key, None)
            self._retry_noted_at.pop(key, None)
        if revived:
            self.assignment_seq += 1
            self.log.emit(
                self.sim.now, "coordinator", "shards_replaced",
                task=name, shards=revived, seq=self.assignment_seq,
            )
        return revived

    def _note_retry(self, key: tuple[str, int], reason: str) -> None:
        """Count one failed re-placement attempt against the retry policy.

        At most one attempt is counted per (key, sweep) — the dead-node
        pass and the re-placement pass of the same ``sweep_failures``
        call must not double-bill a shard.
        """
        now = self.sim.now
        if self._retry_noted_at.get(key) == now:
            return
        self._retry_noted_at[key] = now
        attempt = self._retry_counts.get(key, 0) + 1
        self._retry_counts[key] = attempt
        task, shard = key
        if not self.placement_retry.should_retry(attempt):
            self._abandoned.add(key)
            self.log.emit(
                now, "coordinator", "placement_abandoned",
                task=task, shard=shard, reason=reason, retries=attempt,
            )
            return
        self._retry_after[key] = now + self.placement_retry.retry_delay(
            attempt, self.rng
        )
        self.log.emit(
            now, "coordinator", "placement_retry",
            task=task, shard=shard, reason=reason, retry=attempt,
            next_attempt_s=self._retry_after[key],
        )

    # -- client assignment (Section 6.2) ----------------------------------------

    def assign_client(self, compatible_tasks: list[str] | None = None) -> FLTaskRuntime | None:
        """Pick an eligible task for a checking-in client, or reject.

        ``compatible_tasks`` restricts eligibility (multi-tenant clients
        may only be able to train some models); ``None`` means all.
        """
        if not self.alive or self.sim.now < self._recovering_until:
            self.assignments_rejected += 1
            return None
        eligible = [
            rt
            for name, rt in self.tasks.items()
            if (compatible_tasks is None or name in compatible_tasks)
            and rt.demand() > 0
            and rt.is_routable()
        ]
        if not eligible:
            self.assignments_rejected += 1
            return None
        choice = eligible[int(self.rng.integers(len(eligible)))]
        choice.pending_assignments += 1
        self.assignments_made += 1
        return choice

    # -- heartbeats + failure detection (Appendix E.4) ------------------------------

    def on_heartbeat(self, node: AggregatorNode, demand: dict[str, int]) -> None:
        """Record liveness and the node's per-task demand report."""
        node.last_heartbeat = self.sim.now
        self.log.emit(
            self.sim.now, "coordinator", "heartbeat",
            node=node.node_id, demand=sum(demand.values()),
        )

    def sweep_failures(self) -> list[str]:
        """Detect dead aggregators and fail over the shards they hosted.

        Returns the names of tasks with a shard re-placed or dropped.
        Called periodically by the orchestrator (and directly by
        failure-injection tests).  A node is failed over when it is
        down, when its heartbeats expired, or when it crashed since the
        last sweep even if it is already back: a crash loses the node's
        in-memory state whether or not a sweep saw it down.  During a
        deployment-wide outage (no live node at all) nothing is placed —
        shards stay unhosted, client assignment pauses, and every
        subsequent sweep retries until capacity recovers.
        """
        if not self.alive:
            return []
        deadline = self.heartbeat_miss_limit * self.heartbeat_interval_s
        moved: list[str] = []
        for node in self.aggregators:
            crashed = node.crashes != self._crashes_seen.get(node.node_id, 0)
            self._crashes_seen[node.node_id] = node.crashes
            expired = self.sim.now - node.last_heartbeat > deadline
            if (node.alive and not expired and not crashed) or not node.tasks:
                continue
            if not node.alive:
                reason = "node_dead"
            elif expired:
                reason = "heartbeat_expired"
                node.alive = False
            else:
                reason = "node_restarted"
            for name in list(node.tasks):
                # Only the dead node's shards lose state; the rest of the
                # task keeps folding.  (A task spans nodes: dedupe it.)
                task_rt = node.drop_task(name)
                task_rt.drop_shards_on(node)
                self._replace_dead_shards(task_rt, reason=reason)
                if name not in moved:
                    moved.append(name)
        # Retry shards that could not be re-placed earlier (dropped above,
        # or orphaned by an earlier all-nodes-dead sweep) — a recovered
        # node picks them up.  With no live node anywhere they simply stay
        # unhosted (clients stop being assigned via is_routable) and the
        # next sweep retries — a deployment-wide outage must not crash
        # the heartbeat loop.
        unplaced: list[str] = []
        for name, task_rt in self.tasks.items():
            if not task_rt.unplaced_shards():
                continue
            if self._replace_dead_shards(task_rt, reason="retry"):
                if name not in moved:
                    moved.append(name)
            else:
                unplaced.append(name)
        if unplaced:
            self.log.emit(
                self.sim.now, "coordinator", "tasks_unplaced", tasks=unplaced,
            )
        if moved:
            self.log.emit(self.sim.now, "coordinator", "tasks_reassigned", tasks=moved)
        return moved

    def rebalance_overloaded(self, queue_threshold_s: float = 30.0) -> list[str]:
        """Move tasks off overloaded aggregators (Section 6.3).

        "The Coordinator moves tasks between Aggregators only when it
        detects failed or overloaded Aggregators."  Overload is detected
        through aggregation-queue backpressure; the lightest task of an
        overloaded multi-task node moves to the least-loaded peer.  This
        is a *planned* move: unlike failover, no state is lost — sessions
        keep running and route to the new host on their next upload.
        Only one-shard tasks are move candidates (a sharded task's load is
        already spread shard-wise; only failover moves its shards).

        ``queue_threshold_s`` comes from
        :attr:`~repro.system.orchestrator.SystemConfig.rebalance_queue_threshold_s`
        when driven by the orchestrator's heartbeat loop.
        """
        if not self.alive:
            return []
        live = self._live_nodes()
        if len(live) < 2:
            return []
        moved: list[str] = []
        for node in live:
            queue_depth_s = node.queue_depth_seconds()
            if queue_depth_s <= queue_threshold_s or len(node.tasks) < 2:
                continue
            movable = [
                n for n, rt in node.tasks.items() if rt.core.num_shards == 1
            ]
            if not movable:
                continue
            name = min(
                movable,
                key=lambda n: node.tasks[n].config.concurrency
                * node.tasks[n].config.model_size_bytes,
            )
            target = min(
                (a for a in live if a is not node),
                key=lambda a: a.estimated_workload(),
            )
            task_rt = node.drop_task(name)
            task_rt.place_shard(0, target)
            self.assignment_seq += 1
            moved.append(name)
            self.log.emit(
                self.sim.now, "coordinator", "task_rebalanced",
                task=name, source=node.node_id, target=target.node_id,
                queue_depth_s=round(queue_depth_s, 3),
                queue_threshold_s=queue_threshold_s,
                demand=task_rt.demand(),
            )
        return moved

    # -- coordinator failure (Appendix E.4) --------------------------------------

    def fail(self) -> None:
        """The Coordinator process dies.  Participating clients continue;
        no new clients are assigned until a new leader is elected."""
        self.alive = False
        self.log.emit(self.sim.now, "coordinator", "failed")

    def recover(self) -> None:
        """Leader re-elected; enter the recovery period (typically 30 s)
        rebuilding the assignment map from aggregator reports."""
        self.alive = True
        self._recovering_until = self.sim.now + self.recovery_period_s
        self.assignment_seq += 1
        self.log.emit(
            self.sim.now, "coordinator", "recovered",
            resuming_at=self._recovering_until,
        )

    @property
    def accepting_assignments(self) -> bool:
        """Whether new clients can currently be assigned."""
        return self.alive and self.sim.now >= self._recovering_until
