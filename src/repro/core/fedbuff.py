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

from dataclasses import dataclass

import numpy as np

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
    (:meth:`_apply_step`), aggregator failover (as the one-shard case of
    the shard protocol the task runtime drives), and the one goal-bounded
    block driver.  A core supplies its admission rule (``_admit``: what
    an arrival weighs, via :meth:`_take` then :meth:`_record`) and three
    hooks over its buffer: the fold (:meth:`_fold` per arrival,
    :meth:`_fold_chunk` per block chunk), the epoch average
    (``_server_step``, handing it to :meth:`_apply_step`), and
    :meth:`_reset_epoch`.  The defaults here are the plain float64
    buffer FedBuff and SyncFL share.
    """

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

    def receive_update_block(
        self, results: list[TrainingResult]
    ) -> list[tuple[ModelUpdate, ServerStepInfo | None]]:
        """Buffer a vectorized block of client updates.

        Semantically identical to calling :meth:`receive_update` once per
        result, in order — including any server steps triggered mid-block
        (staleness of later updates is measured against the version those
        steps produced).  Only the fold differs: each goal-bounded chunk
        reaches the buffer through one :meth:`_fold_chunk` — a
        weights-by-deltas matrix product on the float cores (per shard
        when sharded; agreeing with the per-update AXPYs to float64
        rounding, ~1e-12 relative, far inside the 1e-8 bound the
        differential suite enforces), one ``submit_block`` across the
        secure boundary on the secure ones (bit-identical).  This is the
        API for direct cohort-style drivers; inside a simulation each
        upload stays its own timestamped event.
        """
        out: list[tuple[ModelUpdate, ServerStepInfo | None]] = []
        pos = 0
        while pos < len(results):
            take = min(len(results) - pos, self.goal - self.buffered_count)
            chunk = results[pos : pos + take]
            pos += take
            admitted: list[ModelUpdate] = []
            try:
                for result in chunk:
                    buffered = self.buffered_count
                    update = self._admit(result)
                    out.append((update, None))
                    if self.buffered_count > buffered:
                        admitted.append(update)
            finally:
                # On a mid-chunk rejection, everything admitted so far is
                # still folded — the same state the sequential path
                # would have left behind before raising.
                if admitted:
                    self._fold_chunk(admitted)
            if self.buffered_count >= self.goal:
                out[-1] = (out[-1][0], self._finalize_epoch())
        return out

    def _fold(self, update: ModelUpdate) -> None:
        """Fold one admitted update into the buffer (scalar AXPY)."""
        result = update.result
        if self._buffer is None:
            self._buffer = np.zeros_like(result.delta, dtype=np.float64)
        self._buffer += update.weight * result.delta.astype(np.float64)

    def _fold_chunk(self, admitted: list[ModelUpdate]) -> None:
        """Fold what one block chunk admitted, as one matrix product."""
        weights = np.array([u.weight for u in admitted], dtype=np.float64)
        deltas = np.stack([u.result.delta for u in admitted]).astype(np.float64)
        if self._buffer is None:
            self._buffer = np.zeros(deltas.shape[1], dtype=np.float64)
        self._buffer += weights @ deltas

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

    # -- shard protocol: an unsharded core is the one-shard case ---------------
    #
    # The task runtime places, fails over and re-places every core per
    # shard; ``ShardRoutingMixin`` overrides all of this for S shards.

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


class FedBuffAggregator(AggregationCore):
    """Buffered asynchronous aggregation with staleness weighting.

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
    """

    def __init__(
        self,
        state,
        goal: int,
        staleness_policy: StalenessPolicy | None = None,
        max_staleness: int = 100,
        example_weighting: str = "linear",
        normalize_by: str = "weight_sum",
    ):
        super().__init__(state, goal, example_weighting)
        if normalize_by not in ("weight_sum", "goal"):
            raise ValueError(f"unknown normalize_by {normalize_by!r}")
        self.staleness_policy = staleness_policy or PolynomialStaleness(0.5)
        self.max_staleness = max_staleness
        self.normalize_by = normalize_by

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

    # -- aggregation ------------------------------------------------------------

    def _take(self, result: TrainingResult) -> int:
        initial = super()._take(result)
        if initial != result.initial_version:
            raise ValueError(
                f"client {result.client_id} reported initial version "
                f"{result.initial_version}, aggregator recorded {initial}"
            )
        return initial

    def _transform_result(self, result: TrainingResult) -> TrainingResult:
        """Hook applied to every incoming result before weighting/buffering.

        The base aggregator is a pass-through; subclasses use it for
        per-update preprocessing (e.g. DP clipping) so that both the
        single-update and the vectorized block path share one definition.
        """
        return result

    def _admit(self, result: TrainingResult) -> ModelUpdate:
        """Validate in-flight state and compute one update's weight."""
        staleness = self.version - self._take(result)
        result = self._transform_result(result)
        weight = self._example_weight(result.num_examples) * self.staleness_policy(
            staleness
        )
        self._record(result.client_id, weight, staleness)
        return ModelUpdate(result=result, arrival_version=self.version, weight=weight)

    def _server_step(self) -> ServerStepInfo:
        denom = self._weight_sum if self.normalize_by == "weight_sum" else float(self.goal)
        if denom <= 0:
            # All-zero weights (e.g. hard-cutoff policy zeroed everything):
            # step over a zero delta so the version still advances.
            avg = np.zeros_like(self._buffer)
        else:
            avg = self._buffer / denom
        return self._apply_step(avg.astype(np.float32), self._weight_sum)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(goal={self.goal}, version={self.version}, "
            f"buffered={self.buffered_count}, in_flight={len(self._in_flight)})"
        )
