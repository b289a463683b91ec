"""FedBuff — buffered asynchronous aggregation (Nguyen et al., 2021).

This is the algorithm PAPAYA's AsyncFL mode implements (Section 3.1):

* there are no rounds — clients download, train, and upload independently;
* the aggregator accumulates a *staleness- and example-weighted* sum of
  client deltas in a buffer;
* when the buffer holds ``K`` (the aggregation goal) updates, the weighted
  average is handed to the server optimizer, the model version increments,
  and the buffer resets;
* clients whose update would be too stale are aborted (Appendix E.2).

The core here is deliberately free of any notion of time or transport —
the discrete-event system layer (:mod:`repro.system`) drives it.  It is
also free of any notion of *what* the vectors mean, via the model-state
interface in :mod:`repro.core.state`, so the identical bookkeeping runs
both real-gradient and surrogate experiments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.sharding import AggregationPlaneClock, _Shard, make_routing
from repro.core.staleness import PolynomialStaleness, StalenessPolicy
from repro.core.types import ModelUpdate, TrainingResult

__all__ = ["ServerStepInfo", "AggregationCore", "FedBuffAggregator"]


@dataclass(frozen=True)
class ServerStepInfo:
    """Telemetry for one server model update.

    Attributes
    ----------
    version:
        Model version *produced* by this step (first step produces 1).
    num_updates:
        Client updates aggregated into this step (== K for FedBuff;
        == goal for SyncFL).
    total_weight:
        Sum of aggregation weights in the buffer.
    mean_staleness / max_staleness:
        Staleness statistics of the aggregated updates.
    contributors:
        Client ids whose updates were aggregated.
    discarded:
        Client ids whose updates arrived but were thrown away (SyncFL
        over-selection only; always empty for FedBuff).
    """

    version: int
    num_updates: int
    total_weight: float
    mean_staleness: float
    max_staleness: int
    contributors: tuple[int, ...]
    discarded: tuple[int, ...] = ()


class AggregationCore:
    """The aggregation protocol every core runs, over a pluggable buffer.

    SyncFL/AsyncFL is a mode change of one component (Appendix E.3) and
    Asynchronous SecAgg is buffered aggregation whose buffer happens to
    be masked (Section 5), so the protocol exists once, here: the
    in-flight map and download registration, the rejections that happen
    *before* anything is counted (:meth:`_take`), the open epoch's
    arrival-order lists (:meth:`_record`), the server-step record
    (:meth:`_apply_step`), and aggregator failover (as the one-shard
    case of the shard protocol the task runtime drives).  Updates are
    admitted one arrival at a time (:meth:`receive_update`), as each
    upload reaches the aggregator (Appendix E.2).  A core supplies its
    admission rule (``_admit``: what an arrival weighs, via :meth:`_take`
    then :meth:`_record`) and three hooks over its buffer: the fold
    (:meth:`_fold`), the epoch average (``_server_step``, handing it to
    :meth:`_apply_step`), and :meth:`_reset_epoch`.  The defaults here
    are SyncFL's: one plain float64 buffer and one shard.
    :class:`FedBuffAggregator` folds into per-shard partials instead and
    overrides the shard protocol.
    """

    # Set by repro.obs.telemetry.RunTelemetry.attach when the spec
    # enables wall-clock profiling; a core feeds the PhaseProfiler the
    # phases its shape has (a sharded core its shard folds and root
    # merges, the secure core its secagg phases, SyncFL none).  None
    # (the default) keeps every fold path timing-free.
    profiler = None

    def __init__(self, state, goal: int, example_weighting: str = "linear"):
        if goal < 1:
            raise ValueError("aggregation goal must be at least 1")
        if example_weighting not in ("linear", "log", "none"):
            raise ValueError(f"unknown example_weighting {example_weighting!r}")
        self.state = state
        self.goal = goal
        self.example_weighting = example_weighting

        self.version = 0
        self.updates_received = 0
        self._buffer: np.ndarray | None = None
        self._weight_sum = 0.0
        # The open epoch in arrival order, one entry per buffered update.
        self._weights: list[float] = []
        self._staleness_acc: list[int] = []
        self._contributors: list[int] = []
        self._in_flight: dict[int, int] = {}  # client id -> initial version
        self.step_history: list[ServerStepInfo] = []

    # -- client protocol ------------------------------------------------------

    def register_download(self, client_id: int) -> tuple[int, np.ndarray]:
        """A client downloads the current model; returns (version, vector).

        The aggregator records the client's initial model version, which is
        how staleness is tracked (Appendix E.2: "For each client, the
        aggregator records initial model version").
        """
        self._in_flight[client_id] = self.version
        return self.version, self.state.current()

    def client_failed(self, client_id: int) -> None:
        """Drop an in-flight client (device failure, timeout, or abort)."""
        self._in_flight.pop(client_id, None)

    def in_flight_count(self) -> int:
        """Number of clients currently training against this task."""
        return len(self._in_flight)

    def stale_clients(self) -> list[int]:
        """In-flight clients to abort after a server step (none by default)."""
        return []

    # -- admission --------------------------------------------------------------

    def _example_weight(self, num_examples: int) -> float:
        if self.example_weighting == "linear":
            return float(num_examples)
        if self.example_weighting == "log":
            return float(np.log1p(num_examples))
        return 1.0

    def _take(self, result: TrainingResult) -> int:
        """Consume the client's in-flight entry; returns its initial version.

        Every rejection happens here, before :meth:`_record` counts
        anything: an unknown client raises ``KeyError`` with no state
        change; a wrong-length delta raises ``ValueError`` with the
        in-flight entry consumed (the one rule for every ``ValueError``
        rejection — subclasses add theirs by extending this method).
        """
        initial = self._in_flight.pop(result.client_id, None)
        if initial is None:
            raise KeyError(
                f"client {result.client_id} is not in flight; "
                "updates must follow register_download"
            )
        if result.delta.shape != (self.state.size,):
            raise ValueError(
                f"client {result.client_id} uploaded a delta of length "
                f"{result.delta.size}, the model has {self.state.size}"
            )
        return initial

    def _record(self, client_id: int, weight: float, staleness: int) -> None:
        """Count one admitted update into the open epoch."""
        self._weight_sum += weight
        self.updates_received += 1
        self._weights.append(weight)
        self._staleness_acc.append(staleness)
        self._contributors.append(client_id)

    def _keep_entries(self, keep: list[int]) -> None:
        """Cut the open epoch down to arrival positions ``keep``."""
        self._weights = [self._weights[i] for i in keep]
        self._staleness_acc = [self._staleness_acc[i] for i in keep]
        self._contributors = [self._contributors[i] for i in keep]
        # Sequential re-fold in arrival order: bit-identical to the
        # weight sum an aggregator fed only the survivors would have
        # accumulated.
        self._weight_sum = sum(self._weights, 0.0)

    # -- aggregation ------------------------------------------------------------

    def receive_update(
        self, result: TrainingResult
    ) -> tuple[ModelUpdate, ServerStepInfo | None]:
        """Buffer one client update; maybe trigger a server step.

        Returns the recorded :class:`ModelUpdate` (with the weight that was
        applied) and, if the aggregation goal was reached, the
        :class:`ServerStepInfo` for the step it triggered.
        """
        buffered = len(self._contributors)
        update = self._admit(result)
        if len(self._contributors) == buffered:
            return update, None  # discarded on admission (SyncFL late arrival)
        self._fold(update)
        info = self._finalize_epoch() if len(self._contributors) >= self.goal else None
        return update, info

    def _fold(self, update: ModelUpdate) -> None:
        """Fold one admitted update into the buffer (scalar AXPY)."""
        result = update.result
        if self._buffer is None:
            self._buffer = np.zeros_like(result.delta, dtype=np.float64)
        self._buffer += update.weight * result.delta.astype(np.float64)

    def _finalize_epoch(self) -> ServerStepInfo:
        """The goal is met: one server step, then a fresh epoch."""
        info = self._server_step()
        self._reset_epoch()
        return info

    def _apply_step(
        self, avg: np.ndarray, total_weight: float, discarded: tuple[int, ...] = ()
    ) -> ServerStepInfo:
        """Advance the model by the epoch's average and record the step."""
        self.state.apply(avg, self.buffered_count)
        self.version += 1
        info = ServerStepInfo(
            version=self.version,
            num_updates=self.buffered_count,
            total_weight=total_weight,
            mean_staleness=float(np.mean(self._staleness_acc)),
            max_staleness=int(np.max(self._staleness_acc)),
            contributors=tuple(self._contributors),
            discarded=discarded,
        )
        self.step_history.append(info)
        return info

    def _reset_epoch(self) -> None:
        """Open an empty epoch (after a server step, or on failover)."""
        self._buffer = None
        self._weight_sum = 0.0
        self._weights = []
        self._staleness_acc = []
        self._contributors = []

    def drop_buffer_and_inflight(self) -> tuple[int, list[int]]:
        """Discard buffered updates and in-flight registrations.

        Models aggregator failure/reassignment (Appendix E.4): the task's
        model state and version survive (they are checkpointed), but
        updates sitting in the failed aggregator's in-memory queue and the
        sessions it was driving are lost.  Returns (buffered updates lost,
        in-flight client ids dropped).
        """
        lost = self.buffered_count
        dropped = list(self._in_flight)
        self._reset_epoch()
        self._in_flight.clear()
        return lost, dropped

    # -- shard protocol: a core that cannot shard is the one-shard case --------
    #
    # The task runtime places, fails over and re-places every core per
    # shard.  Only SyncRoundAggregator uses these stubs; FedBuffAggregator
    # overrides all of them with its ``num_shards`` shard partials.

    num_shards = 1
    _shard_live = True

    def shard_of(self, client_id: int) -> int | None:
        """Every client routes to the one shard."""
        return 0

    def shard_alive(self, shard_id: int) -> bool:
        """Whether the shard accepts contributions (not dropped, or revived)."""
        return self._shard_live

    def drop_shard(self, shard_id: int) -> tuple[int, list[int]]:
        """The shard's host died: the whole buffer and every in-flight
        client go (:meth:`drop_buffer_and_inflight`)."""
        self._shard_live = False
        return self.drop_buffer_and_inflight()

    def revive_shard(self, shard_id: int) -> None:
        """Bring the dropped shard back empty (re-placed on a live node)."""
        self._shard_live = True

    # -- introspection ------------------------------------------------------------

    @property
    def buffered_count(self) -> int:
        """Updates currently sitting in the buffer."""
        return len(self._contributors)


def _untimed(phase, shard_id=None, n=1) -> None:
    """:meth:`FedBuffAggregator._timer`'s stop when nothing is timed."""


class FedBuffAggregator(AggregationCore):
    """Buffered asynchronous aggregation with staleness weighting, folded
    into ``num_shards`` intermediate aggregates (Section 6.3).

    Every admitted update is folded into the partial of the shard its
    client was routed to at download time; at the aggregation goal the
    root reducer merges the partials in ascending shard order and hands
    the merged buffer to the server optimizer.  One partial merges as
    the identity, so the default ``num_shards=1`` is the unsharded
    FedBuff fold bit for bit — and it routes without consulting the
    routing policy (there is one shard to go to).

    Parameters
    ----------
    state:
        Model state (real vector + server optimizer, or surrogate).
    goal:
        ``K`` — updates per server step (paper: 10–30 % of concurrency
        works well; their headline runs use K=100).
    staleness_policy:
        Down-weighting of stale updates; default ``1/sqrt(1+s)``.
    max_staleness:
        In-flight clients beyond this staleness are reported by
        :meth:`stale_clients` for aborting.
    example_weighting:
        ``"linear"`` (paper: weight by the number of examples trained
        on), ``"log"`` (dampened, log1p), or ``"none"``.
    normalize_by:
        ``"weight_sum"`` divides the buffer by the total weight
        (weighted mean, default); ``"goal"`` divides by K as in the
        original FedBuff formulation.
    num_shards:
        ``S`` — shard partials folding arrival slices.
    routing:
        ``"hash"``, ``"load"``, or a routing object with
        ``route(client_id, shards) -> shard_id`` (consulted only when
        ``num_shards > 1``).
    clock:
        Optional :class:`~repro.core.sharding.AggregationPlaneClock`
        collecting the measured per-fold / per-merge costs into the
        parallel-lane schedule (perf harness only; ``None`` skips all
        timing).
    """

    def __init__(
        self,
        state,
        goal: int,
        staleness_policy: StalenessPolicy | None = None,
        max_staleness: int = 100,
        example_weighting: str = "linear",
        normalize_by: str = "weight_sum",
        *,
        num_shards: int = 1,
        routing="hash",
        clock: AggregationPlaneClock | None = None,
    ):
        super().__init__(state, goal, example_weighting)
        if normalize_by not in ("weight_sum", "goal"):
            raise ValueError(f"unknown normalize_by {normalize_by!r}")
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.staleness_policy = staleness_policy or PolynomialStaleness(0.5)
        self.max_staleness = max_staleness
        self.normalize_by = normalize_by
        self.num_shards = num_shards
        self.routing = make_routing(routing) if isinstance(routing, str) else routing
        self.clock = clock
        # Whether folds and the root merge run as shard-lane work, through
        # the _fold_one / _merge_shards seams the plane clock times and the
        # process executor overrides.  One inline shard with no clock has
        # no lanes: it folds and steps in place, as unsharded FedBuff does,
        # and is never charged as shard work.
        self._lanes = num_shards > 1 or clock is not None
        self._shards = [_Shard() for _ in range(num_shards)]
        self._shard_of: dict[int, int] = {}  # in-flight client id -> shard id
        # Shard of each buffered entry, parallel to the arrival-order
        # lists; lets drop_shard() excise exactly one shard's slice of
        # the open epoch.
        self._entry_shards: list[int] = []
        self.shard_failovers = 0

    # -- client protocol ------------------------------------------------------

    def register_download(self, client_id: int) -> tuple[int, np.ndarray]:
        """Record the download and route the client to a live shard.

        With *every* shard dead (the whole plane lost its hosts and no
        capacity has recovered yet) the client is registered but left
        unrouted: ``shard_of`` stays ``None``, the system layer aborts
        the session at upload time, and :meth:`_take` rejects the
        update.
        """
        self._in_flight[client_id] = self.version
        shards = self._shards
        shard_of = self._shard_of
        old = shard_of.pop(client_id, None)  # re-registration while in flight
        if old is not None:
            shards[old].in_flight -= 1
        if self.num_shards == 1:
            shard_id = 0 if shards[0].alive else None
        else:
            try:
                shard_id = self.routing.route(client_id, shards)
            except RuntimeError:
                shard_id = None
        if shard_id is not None:
            shard_of[client_id] = shard_id
            shards[shard_id].in_flight += 1
        return self.version, self.state.current()

    def client_failed(self, client_id: int) -> None:
        super().client_failed(client_id)
        self._unroute(client_id)

    def stale_clients(self) -> list[int]:
        """In-flight clients whose staleness already exceeds the maximum.

        The paper aborts these after every server model update
        (Appendix E.2); the system layer calls this right after a step.
        """
        return [
            cid
            for cid, v0 in self._in_flight.items()
            if self.version - v0 > self.max_staleness
        ]

    def shard_of(self, client_id: int) -> int | None:
        """The shard an in-flight client is routed to (None if unknown)."""
        return self._shard_of.get(client_id)

    def shard_alive(self, shard_id: int) -> bool:
        """Whether a shard is currently accepting contributions."""
        return self._shards[shard_id].alive

    # -- admission --------------------------------------------------------------

    def _unroute(self, client_id: int) -> None:
        """Release the client's shard slot, if it holds one."""
        shard_id = self._shard_of.pop(client_id, None)
        if shard_id is not None:
            self._shards[shard_id].in_flight -= 1

    def _take(self, result: TrainingResult) -> int:
        # An update whose client never got a shard (registered while the
        # whole plane was dead) is rejected before its in-flight entry is
        # consumed.
        client_id = result.client_id
        if client_id not in self._shard_of and client_id in self._in_flight:
            raise KeyError(
                f"client {client_id} registered while no shard was live; "
                "its contribution is lost (plane-wide outage)"
            )
        try:
            initial = super()._take(result)
            if initial != result.initial_version:
                raise ValueError(
                    f"client {client_id} reported initial version "
                    f"{result.initial_version}, aggregator recorded {initial}"
                )
        except ValueError:
            # The in-flight entry is consumed; the shard slot goes with it.
            self._unroute(client_id)
            raise
        return initial

    def _transform_result(self, result: TrainingResult) -> TrainingResult:
        """Hook applied to every incoming result before weighting/buffering.

        The base aggregator is a pass-through; subclasses use it for
        per-update preprocessing (e.g. DP clipping).
        """
        return result

    def _admit(self, result: TrainingResult) -> ModelUpdate:
        """Validate in-flight state, compute one update's weight, and
        count it into its routed shard's slice of the open epoch."""
        staleness = self.version - self._take(result)
        result = self._transform_result(result)
        weight = self._example_weight(result.num_examples) * self.staleness_policy(
            staleness
        )
        client_id = result.client_id
        self._record(client_id, weight, staleness)
        shard_id = self._shard_of.pop(client_id)
        shard = self._shards[shard_id]
        shard.in_flight -= 1
        shard.count += 1
        shard.folds_total += 1
        self._entry_shards.append(shard_id)
        return ModelUpdate(result=result, arrival_version=self.version, weight=weight)

    def _timer(self):
        """Start timing one interval of shard-lane or root-lane work.

        Returns ``stop(phase, shard_id=None, n=1)``, which charges the
        elapsed wall-clock to the plane clock (``shard_id``'s lane as
        ``n`` folds, or the root merge when ``None``) and, with more
        than one shard, to the profiler's ``phase`` (skipped when
        ``None``).  With neither to charge nothing reads the clock.
        """
        clock = self.clock
        profiler = self.profiler if self.num_shards > 1 else None
        if clock is None and profiler is None:
            return _untimed
        t0 = time.perf_counter()

        def stop(phase: str | None, shard_id: int | None = None, n: int = 1) -> None:
            dt = time.perf_counter() - t0
            if clock is not None:
                if shard_id is None:
                    clock.record_merge(dt)
                else:
                    clock.record_fold(shard_id, dt, n)
            if profiler is not None and phase is not None:
                profiler.record(phase, dt)

        return stop

    # -- aggregation ------------------------------------------------------------

    def receive_update(
        self, result: TrainingResult
    ) -> tuple[ModelUpdate, ServerStepInfo | None]:
        """Fold one update into its shard; maybe trigger the root merge."""
        if not self._lanes:
            update = self._admit(result)
            self._shards[0].fold(update.weight, update.result.delta)
        else:
            stop = self._timer()
            update = self._admit(result)
            shard_id = self._entry_shards[-1]
            self._fold_one(shard_id, update.result, update)
            # Admission + fold both run on the shard's thread.
            stop("shard_fold", shard_id)
        info = self._finalize_epoch() if len(self._contributors) >= self.goal else None
        return update, info

    # -- fold kernels (the seam the process executor overrides) ----------------

    def _fold_one(self, shard_id: int, result: TrainingResult,
                  update: ModelUpdate) -> None:
        """Fold one admitted update into its shard's partial (scalar AXPY).

        ``repro.core.parallel`` overrides this (and :meth:`_merge_shards`)
        to run the identical float operations on a worker process;
        everything around the fold — admission, counts, entry bookkeeping
        — stays on this class so both executors share one accounting path.
        """
        self._shards[shard_id].fold(update.weight, result.delta)

    def _merge_shards(self) -> np.ndarray:
        """Root reduce: fold shard partials in ascending shard order.

        The order is deterministic by construction (shard id, with empty
        shards skipped), so re-running the same arrival sequence merges
        identically; with exactly one non-empty partial the merge is the
        identity, which is what makes one shard the unsharded fold.
        """
        return self._sum_partials(
            [s.buffer for s in self._shards if s.buffer is not None]
        )

    def _sum_partials(self, partials: list[np.ndarray]) -> np.ndarray:
        """The root reduce both executors share: ``p0 + p1``, then
        ``+= p_k`` in list order.  Bit-identical to ``np.add.reduce``
        over the list (the same left-to-right adds) without the
        ``(S, L)`` array numpy would first stack it into.  One partial
        is returned as is, not copied."""
        if not partials:  # all contributions were zero-weight-dropped shards
            return np.zeros(self.state.size, dtype=np.float64)
        if len(partials) == 1:
            return partials[0]
        merged = partials[0] + partials[1]
        for partial in partials[2:]:
            merged += partial
        return merged

    def _server_step(self) -> ServerStepInfo:
        if not self._lanes:  # every buffered update is in the one partial
            return self._step_buffer(self._shards[0].buffer)
        stop = self._timer()
        info = self._step_buffer(self._merge_shards())
        stop("root_merge")
        return info

    def _step_buffer(self, buffer: np.ndarray) -> ServerStepInfo:
        """Average the merged buffer and step the model."""
        denom = self._weight_sum if self.normalize_by == "weight_sum" else float(self.goal)
        if denom <= 0:
            # All-zero weights (e.g. hard-cutoff policy zeroed everything):
            # step over a zero delta so the version still advances.
            avg = np.zeros_like(buffer)
        else:
            avg = buffer / denom
        return self._apply_step(avg.astype(np.float32), self._weight_sum)

    # -- failover (Appendix E.4, per shard) ------------------------------------

    def drop_shard(self, shard_id: int) -> tuple[int, list[int]]:
        """One shard's host died: discard its partial fold and its slice.

        The shard's buffered contributions never reached the root and
        are excised from the pending step's accounting; its in-flight
        clients are dropped (their uploads will be rejected exactly as
        after ``client_failed``).  The shard is marked dead so routing
        steers around it until :meth:`revive_shard`.  Returns (buffered
        updates lost, dropped client ids).

        Losing the *last* live shard is the whole-plane failure (the
        runtime's total-loss rule): the open epoch and every in-flight
        client go, as in :meth:`drop_buffer_and_inflight`.
        """
        shard = self._shards[shard_id]
        shard.alive = False
        self.shard_failovers += 1
        if not any(s.alive for s in self._shards):
            return self.drop_buffer_and_inflight()
        dropped = sorted(
            cid for cid, sid in self._shard_of.items() if sid == shard_id
        )
        for cid in dropped:
            self._shard_of.pop(cid)
            self._in_flight.pop(cid, None)
        shard.in_flight = 0
        lost = shard.count
        if lost:
            keep = [i for i, sid in enumerate(self._entry_shards) if sid != shard_id]
            self._entry_shards = [self._entry_shards[i] for i in keep]
            self._keep_entries(keep)
        shard.clear()
        return lost, dropped

    def revive_shard(self, shard_id: int) -> None:
        """Bring a dead shard back empty (re-placed on a live node)."""
        shard = self._shards[shard_id]
        shard.alive = True
        shard.clear()
        shard.in_flight = 0

    def _reset_epoch(self) -> None:
        super()._reset_epoch()
        for shard in self._shards:
            shard.clear()
        self._entry_shards = []

    def drop_buffer_and_inflight(self) -> tuple[int, list[int]]:
        """Whole-plane failure: every shard partial and session is lost."""
        out = super().drop_buffer_and_inflight()
        for shard in self._shards:
            shard.in_flight = 0
        self._shard_of.clear()
        return out

    # -- introspection ------------------------------------------------------------

    def live_shards(self) -> list[int]:
        """Ids of shards currently accepting contributions."""
        return [i for i, s in enumerate(self._shards) if s.alive]

    def shard_loads(self) -> list[int]:
        """Lifetime folds per shard (the load-skew telemetry)."""
        return [s.folds_total for s in self._shards]

    def shard_buffered(self) -> list[int]:
        """Updates currently sitting in each shard's open epoch."""
        return [s.count for s in self._shards]

    def shard_in_flight(self) -> list[int]:
        """In-flight clients routed to each shard."""
        return [s.in_flight for s in self._shards]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(goal={self.goal}, "
            f"shards={self.num_shards}, routing={self.routing.name}, "
            f"version={self.version}, buffered={self.buffered_count}, "
            f"in_flight={len(self._in_flight)})"
        )
