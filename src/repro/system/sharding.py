"""System wiring of the sharded aggregation plane (Section 6.3 at scale).

One FL task past a single aggregator: the task's
:class:`~repro.core.sharding.ShardedFedBuffAggregator` runs ``S`` shard
cores, and this module spreads those shards across *multiple*
:class:`~repro.system.aggregator.AggregatorNode` processes.

* :class:`ShardedFLTaskRuntime` owns the sharded core plus the
  shard→node placement map.  Client uploads route to the node hosting
  the client's shard (the shard itself was chosen at download time by
  the core's routing policy — :class:`HashShardRouting` or
  :class:`LoadAwareShardRouting`, re-exported here); each hosting node's
  heartbeat carries *per-shard* demand entries (``task/s3: 12``), the
  even split of the task's headroom over the live shards.
* Shard failover reuses the heartbeat/sweep machinery: when the
  Coordinator declares a node dead, the shards it hosted drop their
  partial folds and in-flight contributions
  (:meth:`ShardedFedBuffAggregator.drop_shard` — sessions routed to
  those shards are aborted, everything else keeps running), their slice
  re-routes to the surviving shards, and the Coordinator re-places each
  dead shard on the least-loaded live node, reviving it empty.  With no
  live node available the shard simply stays dead — its slice remains
  re-routed — until a recovery sweep finds capacity.

Only the two sharded planes with ``num_shards > 1`` construct any of
this (:class:`repro.system.planes.ShardedPlane`); their ``num_shards=1``
point runs the unsharded code, untouched.
"""

from __future__ import annotations

from typing import Callable

from repro.core.parallel import ProcessShardedFedBuffAggregator
from repro.core.sharding import (
    HashShardRouting,
    LoadAwareShardRouting,
    ShardedFedBuffAggregator,
)
from repro.core.types import TaskConfig, TrainingMode
from repro.sim.engine import Simulator
from repro.sim.trace import MetricsTrace, Outcome
from repro.system.adapters import TrainerAdapter
from repro.system.aggregator import AggregatorNode, FLTaskRuntime
from repro.system.client_runtime import ClientSession, CohortDispatcher, PendingTraining
from repro.utils.logging import EventLog

__all__ = [
    "HashShardRouting",
    "LoadAwareShardRouting",
    "ShardedFLTaskRuntime",
]


class ShardedFLTaskRuntime(FLTaskRuntime):
    """Server-side runtime of one FL task whose aggregation is sharded.

    Everything the base runtime does (sessions, demand, post-step
    actions, cohort dispatch) is inherited; what changes is the
    aggregation core (``S`` shard cores + root reducer) and the hosting
    model: instead of one ``node``, a ``shard_nodes`` map places each
    shard on an :class:`AggregatorNode` (several shards may share a
    node).  ``self.node`` tracks shard 0's host — the root reducer is
    colocated with the first shard.
    """

    def __init__(
        self,
        config: TaskConfig,
        adapter: TrainerAdapter,
        sim: Simulator,
        trace: MetricsTrace,
        log: EventLog,
        on_slot_free: Callable[[], None] | None = None,
        cohort: CohortDispatcher | None = None,
        num_shards: int = 2,
        shard_routing: str = "hash",
        executor: str = "inline",
    ):
        if config.mode is not TrainingMode.ASYNC:
            raise ValueError(
                "sharded aggregation requires mode=ASYNC: FedBuff's "
                "buffered fold is what the shards partially evaluate"
            )
        # Stashed before the base constructor runs, because it calls the
        # _build_core seam, which consumes them.
        self._shard_core_opts = (num_shards, shard_routing, executor)
        super().__init__(config, adapter, sim, trace, log, on_slot_free, cohort)
        self.shard_nodes: dict[int, AggregatorNode] = {}

    def _executor_event_sink(self) -> Callable[[str, dict], None]:
        """Structured-event sink for the process executor.

        Executor events (dead-worker fallback and friends) land in the
        event log under the task's name, so a trace reader can see when
        a run silently degraded to the inline fold.
        """
        sim, log, name = self.sim, self.log, self.config.name

        def _executor_event(kind: str, fields: dict) -> None:
            log.emit(sim.now, f"task:{name}", kind, **fields)

        return _executor_event

    def _build_core(self, config: TaskConfig, adapter: TrainerAdapter):
        """Stand up the sharded float core (inline or process executor)."""
        num_shards, shard_routing, executor = self._shard_core_opts
        core_kwargs = dict(
            goal=config.aggregation_goal,
            num_shards=num_shards,
            routing=shard_routing,
            max_staleness=config.max_staleness,
            example_weighting=adapter.recommended_example_weighting,
            normalize_by=adapter.recommended_normalization,
        )
        if executor == "process":
            return ProcessShardedFedBuffAggregator(
                adapter.state,
                on_event=self._executor_event_sink(),
                **core_kwargs,
            )
        return ShardedFedBuffAggregator(adapter.state, **core_kwargs)

    # -- placement ------------------------------------------------------------

    def place_shard(self, shard_id: int, node: AggregatorNode) -> None:
        """Host one shard on ``node`` (initial placement or failover)."""
        if not (0 <= shard_id < self.core.num_shards):
            raise ValueError(f"no such shard {shard_id}")
        self.shard_nodes[shard_id] = node
        if shard_id == 0:
            self.node = node  # the root reducer rides with shard 0
        if node.tasks.get(self.config.name) is not self:
            node.tasks[self.config.name] = self
        self.log.emit(
            self.sim.now, f"aggregator:{node.node_id}", "shard_hosted",
            task=self.config.name, shard=shard_id,
        )

    def hosted_shards(self, node: AggregatorNode) -> list[int]:
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
        return any(node.alive for node in self.shard_nodes.values())

    # -- per-node demand / workload (heartbeat reports) -------------------------

    def _live_shard_ids(self) -> list[int]:
        return [
            sid for sid in sorted(self.shard_nodes)
            if self.shard_nodes[sid].alive and self.core.shard_alive(sid)
        ]

    def demand_entries(self, node: AggregatorNode) -> dict[str, int]:
        """Per-shard demand entries for the shards ``node`` hosts.

        The task's headroom is split evenly over the live shards
        (remainder to the lowest shard ids), so summing every hosting
        node's heartbeat report recovers the task's total demand.
        """
        live = self._live_shard_ids()
        if not live:
            return {}
        total = self.demand()
        share, remainder = divmod(total, len(live))
        entries: dict[str, int] = {}
        for rank, sid in enumerate(live):
            if self.shard_nodes[sid] is node:
                entries[f"{self.config.name}/s{sid}"] = share + (
                    1 if rank < remainder else 0
                )
        return entries

    def workload_on(self, node: AggregatorNode) -> float:
        """This task's share of ``node``'s estimated workload.

        The placement heuristic's ``concurrency × model size`` product,
        scaled by the fraction of shards hosted there.
        """
        hosted = len(self.hosted_shards(node))
        return (
            self.config.concurrency * self.config.model_size_bytes
            * hosted / self.core.num_shards
        )

    # -- upload path ------------------------------------------------------------

    def upload_arrived(
        self, session: ClientSession, payload: PendingTraining
    ) -> None:
        """Route the upload to the node hosting the client's shard."""
        if self.fault_gate is not None and self.fault_gate.intercept_upload(
            self, session
        ):
            return  # injected network loss dropped the upload
        shard_id = self.core.shard_of(session.device_id)
        node = self.shard_nodes.get(shard_id) if shard_id is not None else None
        if (
            shard_id is None
            or node is None
            or not node.alive
            or not self.core.shard_alive(shard_id)
        ):
            # The shard (or its host) died while the update was in
            # flight: the contribution is lost, exactly like the
            # single-aggregator dead-node path.
            self.core.client_failed(session.device_id)
            session.abort(Outcome.ABORTED)
            return
        node.enqueue_update(self, session, payload)

    # -- failure handling (Appendix E.4, per shard) -----------------------------

    def drop_shards_on(self, node: AggregatorNode) -> list[int]:
        """A hosting node died: fail over every shard it hosted.

        Each such shard's partial fold and in-flight contributions are
        dropped (their sessions aborted); the shard is left *unplaced*
        and dead — routing steers its slice to the surviving shards —
        until the Coordinator re-places it.  Sessions on other shards
        keep running: that is the whole point of partial failure.
        Returns the shard ids dropped.
        """
        dropped_shards = self.hosted_shards(node)
        for sid in dropped_shards:
            lost, dropped_clients = self.core.drop_shard(sid)
            del self.shard_nodes[sid]
            self.log.emit(
                self.sim.now, f"task:{self.config.name}", "shard_failed",
                shard=sid, node=node.node_id, lost_buffered=lost,
                dropped_clients=len(dropped_clients),
            )
            for cid in dropped_clients:
                sess = self.sessions.get(cid)
                if sess is not None:
                    sess.abort(Outcome.ABORTED)
        if dropped_shards:
            self.on_slot_free()
        return dropped_shards

    def on_reassigned(self) -> None:  # pragma: no cover - guarded by coordinator
        raise RuntimeError(
            "sharded tasks fail over per shard (drop_shards_on), never "
            "as a whole"
        )

    # -- teardown ---------------------------------------------------------------

    def close(self) -> None:
        """Release executor resources (worker processes, shared memory).

        A no-op for the inline executor; idempotent.  The process pool
        also has a GC finalizer, so forgetting to call this leaks
        nothing past interpreter exit — but tests and long-lived drivers
        should close deterministically.
        """
        close = getattr(self.core, "close", None)
        if close is not None:
            close()
