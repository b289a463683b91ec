"""Buffered asynchronous aggregation *through* Asynchronous SecAgg.

This is the integration the paper's abstract claims as the headline
contribution: "a novel asynchronous secure aggregation protocol ...
enables the implementation of FL with buffered asynchronous aggregation".

:class:`SecureBufferedAggregator` mirrors the interface of
:class:`repro.core.fedbuff.FedBuffAggregator` (so :class:`FLTaskRuntime`
can host either transparently) but the server-side buffer only ever holds
*masked* group vectors:

* every buffer epoch *re-keys* one long-lived TSA (``begin_round``): the
  unmask release is one-shot per round, so each server step gets its own
  Figure 16 session, but the attestation identity, verifiable log and the
  pre-minted DH leg supply (:class:`LegPool`, shared across epochs) are
  stood up once for the lifetime of the task;
* a participating client fixed-point-encodes its delta, masks it with a
  PRNG-expanded one-time pad, uploads the masked vector, and seals the
  16-byte seed to the TSA — after verifying the attestation quote and the
  verifiable-log inclusion proof;
* FedBuff's weights (example count × staleness factor) are applied
  through the *weighted unmask* extension: the server scales masked
  updates by integer weights and the TSA returns the identically weighted
  mask sum, so the server learns only the weighted aggregate;
* at the aggregation goal the epoch finalizes: unmask, decode, divide by
  the total weight, hand the average delta to the server optimizer.

The honest-but-curious server therefore never observes an individual
update in the clear — while retaining FedBuff's staleness handling,
version bookkeeping, and abort semantics exactly.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.fedbuff import ServerStepInfo
from repro.core.staleness import PolynomialStaleness, StalenessPolicy
from repro.core.types import ModelUpdate, TrainingResult
from repro.secagg.attestation import SigningAuthority
from repro.secagg.client import LogBundle, SecAggClient
from repro.secagg.fixedpoint import FixedPointCodec
from repro.secagg.groups import PowerOfTwoGroup
from repro.secagg.merkle import VerifiableLog
from repro.secagg.server import LegPool, SecAggServer
from repro.secagg.tsa import TrustedSecureAggregator
from repro.utils.rng import child_rng

__all__ = [
    "LegPool",
    "SecureBufferedAggregator",
    "client_submission",
    "publish_manifest",
]

# Staleness/example weights are reals; the group needs integers.  This is
# the fixed-point scale for *weights* (value 1.0 -> 64), giving ~1.5% weight
# resolution while keeping the overflow budget comfortable in a 64-bit group.
WEIGHT_SCALE = 64


def publish_manifest(log: VerifiableLog, tsa: TrustedSecureAggregator) -> LogBundle:
    """Publish the trusted binary to ``log``; the proof clients verify."""
    entry = b"manifest|" + tsa.binary_hash
    index = log.append(entry)
    return LogBundle(
        entry=entry,
        index=index,
        size=log.size,
        root=log.root(),
        proof=log.inclusion_proof(index),
    )


def client_submission(
    seed: int,
    codec: FixedPointCodec,
    authority: SigningAuthority,
    log_bundle: LogBundle,
    server: SecAggServer,
    delta: np.ndarray,
    client_id: int,
    version: int,
    updates_received: int,
    num_examples: int,
):
    """The client half of one secure participation, up to the upload.

    The one definition every path runs — the single plane, each inline
    shard, each shard worker process, and the executor fallback's replay
    — so a client's randomness stream (keyed by the *global*
    ``version``/``updates_received`` counters, never by which server's
    leg it uses) and hence its masked vector are bit-identical wherever
    the participation executes.
    """
    tsa = server.tsa
    client = SecAggClient(
        client_id=client_id,
        codec=codec,
        authority=authority,
        expected_binary_hash=tsa.binary_hash,
        expected_params_hash=tsa.params_hash,
        rng=child_rng(seed, "secagg-client", client_id, version, updates_received),
    )
    return client.participate(
        delta, server.assign_leg(), log_bundle=log_bundle,
        num_examples=num_examples,
    )


class SecureBufferedAggregator:
    """FedBuff semantics over masked updates (drop-in for the plain core).

    Parameters
    ----------
    state:
        Model state to advance (real vector or surrogate).
    goal:
        Aggregation goal K — also the TSA threshold ``t`` of each epoch:
        the unmask cannot be requested before K clients contributed.
    vector_length:
        Elements per update (``state.size``).
    staleness_policy, max_staleness, example_weighting:
        As in :class:`repro.core.fedbuff.FedBuffAggregator`.
    clip_value:
        Fixed-point clipping bound for delta elements.
    group_bits / fp_scale:
        Group width and fixed-point scale.  The defaults give exact
        aggregation for thousands of clipped updates with scaled integer
        weights (see the overflow analysis in ``FixedPointCodec``).
    seed:
        Determinism root for DH keys, mask seeds, and client randomness.
    leg_pool_block:
        Legs minted per :class:`LegPool` refill (default: the aggregation
        goal, so one refill covers one epoch's cohort).
    cache_masks:
        Forwarded to the TSA — cache recovered masks as contiguous rows
        so the weighted release is one fused reduction (see
        :class:`repro.secagg.tsa.TrustedSecureAggregator`).
    """

    # Set by repro.obs.telemetry.RunTelemetry.attach when wall-clock
    # profiling is on: the client-side secure participation
    # ("secagg_submit") and the epoch unmask + step ("secagg_finalize")
    # feed a PhaseProfiler.  None (the default) adds no timing.
    profiler = None

    def __init__(
        self,
        state,
        goal: int,
        vector_length: int,
        staleness_policy: StalenessPolicy | None = None,
        max_staleness: int = 100,
        example_weighting: str = "linear",
        clip_value: float = 4.0,
        group_bits: int = 64,
        fp_scale: float = 2**16,
        seed: int = 0,
        leg_pool_block: int | None = None,
        cache_masks: bool = True,
    ):
        if goal < 1:
            raise ValueError("aggregation goal must be at least 1")
        if example_weighting not in ("linear", "log", "none"):
            raise ValueError(f"unknown example_weighting {example_weighting!r}")
        self.state = state
        self.goal = goal
        self.vector_length = vector_length
        self.staleness_policy = staleness_policy or PolynomialStaleness(0.5)
        self.max_staleness = max_staleness
        self.example_weighting = example_weighting
        self.clip_value = clip_value
        self.seed = seed

        self.group = PowerOfTwoGroup(group_bits)
        self.codec = FixedPointCodec(self.group, scale=fp_scale, clip_value=clip_value)
        self.authority = SigningAuthority()
        # One verifiable log for the lifetime of the task; every epoch's
        # TSA runs the same trusted binary, so one log entry suffices.
        self.log = VerifiableLog()
        self._log_bundle: LogBundle | None = None

        self.version = 0
        self.updates_received = 0
        self.epochs_completed = 0
        self.boundary_bytes_in_total = 0
        self.boundary_bytes_out_total = 0
        self._in_flight: dict[int, int] = {}
        self.step_history: list[ServerStepInfo] = []

        self._cache_masks = cache_masks
        self._leg_pool_block = leg_pool_block if leg_pool_block is not None else goal
        self._epoch_tsa: TrustedSecureAggregator | None = None
        self._epoch_server: SecAggServer | None = None
        self._leg_pool: LegPool | None = None
        self._epoch_boundary_mark = (0, 0)
        self._epoch_weights: dict[int, int] = {}
        self._epoch_weight_total = 0.0
        self._epoch_staleness: list[int] = []
        self._epoch_contributors: list[int] = []
        self._begin_epoch()

    # -- epoch management ------------------------------------------------------

    def _begin_epoch(self) -> None:
        """Open the next buffer epoch's Figure 16 session.

        The first call stands up the long-lived trusted party, publishes
        its binary to the verifiable log, and pre-mints the shared leg
        pool; every later call just re-keys a new TSA round
        (``begin_round``) — no authority, log, or mint-from-zero on the
        epoch path.
        """
        if self._epoch_tsa is None:
            tsa = TrustedSecureAggregator(
                self.group,
                self.vector_length,
                threshold=self.goal,
                authority=self.authority,
                rng=child_rng(self.seed, "tsa-epoch", 0),
                cache_masks=self._cache_masks,
            )
            self._log_bundle = publish_manifest(self.log, tsa)
            self._epoch_tsa = tsa
            # Mark before the prefill so the first epoch still accounts
            # for its share of mint traffic, as the per-epoch TSA did.
            self._epoch_boundary_mark = (tsa.boundary_bytes_in, tsa.boundary_bytes_out)
            self._leg_pool = LegPool(
                tsa, block_size=self._leg_pool_block, prefill=self._leg_pool_block
            )
        else:
            self._epoch_tsa.begin_round()
            self._epoch_server.begin_round()
            self._epoch_boundary_mark = (
                self._epoch_tsa.boundary_bytes_in,
                self._epoch_tsa.boundary_bytes_out,
            )
        if self._epoch_server is None:
            self._epoch_server = SecAggServer(
                self._epoch_tsa, self.codec, leg_pool=self._leg_pool
            )
        self._epoch_weights = {}
        self._epoch_weight_total = 0.0
        self._epoch_staleness = []
        self._epoch_contributors = []

    # -- FedBuff-compatible client protocol ----------------------------------------

    def register_download(self, client_id: int) -> tuple[int, np.ndarray]:
        """Record the client's initial version; hand out the model."""
        self._in_flight[client_id] = self.version
        return self.version, self.state.current()

    def client_failed(self, client_id: int) -> None:
        """Drop an in-flight client."""
        self._in_flight.pop(client_id, None)

    def in_flight_count(self) -> int:
        """Clients currently training against this task."""
        return len(self._in_flight)

    @property
    def _count(self) -> int:
        """Buffered contributions in the open epoch.

        Named after the float cores' buffer counter so the recovery
        audit (:func:`repro.sim.faults.recovery_report`) reads the
        secure planes' buffered-now figure through the same attribute.
        """
        return len(self._epoch_contributors)

    def stale_clients(self) -> list[int]:
        """In-flight clients beyond the staleness bound (to abort)."""
        return [
            cid
            for cid, v0 in self._in_flight.items()
            if self.version - v0 > self.max_staleness
        ]

    def drop_buffer_and_inflight(self) -> tuple[int, list[int]]:
        """Aggregator failover: the epoch's masked buffer is lost too."""
        lost = len(self._epoch_contributors)
        dropped = list(self._in_flight)
        self._in_flight.clear()
        self._begin_epoch()
        return lost, dropped

    @property
    def buffered_count(self) -> int:
        """Masked updates accepted in the open epoch."""
        return len(self._epoch_contributors)

    # -- aggregation ------------------------------------------------------------

    def _example_weight(self, num_examples: int) -> float:
        if self.example_weighting == "linear":
            return float(num_examples)
        if self.example_weighting == "log":
            return float(np.log1p(num_examples))
        return 1.0

    def _admit(self, result: TrainingResult) -> tuple[float, int, int]:
        """Validate one result against the in-flight map and weigh it.

        Returns ``(weight, w_int, staleness)``; the one definition of the
        state checks and the weight quantization for the per-arrival, the
        block, and the process-executor paths.
        """
        initial = self._in_flight.pop(result.client_id, None)
        if initial is None:
            raise KeyError(f"client {result.client_id} is not in flight")
        if initial != result.initial_version:
            raise ValueError(
                f"client {result.client_id} reported initial version "
                f"{result.initial_version}, aggregator recorded {initial}"
            )
        staleness = self.version - result.initial_version
        weight = self._example_weight(result.num_examples) * self.staleness_policy(
            staleness
        )
        return weight, max(1, int(round(weight * WEIGHT_SCALE))), staleness

    def _server_for(self, client_id: int) -> SecAggServer:
        """The server whose TSA hands this client its DH leg.

        Seam for the sharded subclass: there it is the client's *routed
        shard's* server — the client-side protocol is otherwise
        identical (its randomness never depends on the leg).
        """
        return self._epoch_server

    def _client_ctx(self) -> tuple:
        """What every participating client knows about this deployment:
        the leading arguments of :func:`client_submission`."""
        return self.seed, self.codec, self.authority, self._log_bundle

    def _participate(self, result: TrainingResult):
        """Run the client-side secure participation for one result."""
        return client_submission(
            *self._client_ctx(), self._server_for(result.client_id),
            result.delta, result.client_id, self.version,
            self.updates_received, result.num_examples,
        )

    def _prepare_submission(self, result: TrainingResult):
        """``(submission, weight, w_int, staleness)`` for the block paths."""
        weight, w_int, staleness = self._admit(result)
        return self._participate(result), weight, w_int, staleness

    def _fold_client(self, result: TrainingResult, w_int: int) -> int:
        """Participate and submit one admitted arrival; returns its leg index.

        Seam for the sharded subclasses, which submit to the client's
        shard-local server (inline) or hand the whole step to the
        shard's worker process.
        """
        submission = self._participate(result)
        if not self._epoch_server.submit(submission):
            raise RuntimeError("secure submission rejected by honest TSA")
        return submission.leg_index

    def _record_contribution(
        self, result: TrainingResult, leg_index: int, w_int: int, staleness: int
    ) -> None:
        self._epoch_weights[leg_index] = w_int
        self._epoch_weight_total += w_int
        self._epoch_staleness.append(staleness)
        self._epoch_contributors.append(result.client_id)
        self.updates_received += 1

    def receive_update(
        self, result: TrainingResult
    ) -> tuple[ModelUpdate, ServerStepInfo | None]:
        """Run the client's secure participation, then maybe step.

        The client-side work (quote + log verification, DH completion,
        masking, sealing) happens here because in the simulation the
        "wire" is a method call; the privacy boundary is preserved — the
        epoch server only receives the masked vector and the sealed seed.
        """
        t0 = time.perf_counter() if self.profiler is not None else 0.0
        weight, w_int, staleness = self._admit(result)
        leg_index = self._fold_client(result, w_int)
        self._record_contribution(result, leg_index, w_int, staleness)
        if self.profiler is not None:
            self.profiler.record("secagg_submit", time.perf_counter() - t0)

        update = ModelUpdate(result=result, arrival_version=self.version, weight=weight)
        info = None
        if len(self._epoch_contributors) >= self.goal:
            info = self._finalize_epoch()
        return update, info

    def receive_update_block(
        self, results: list[TrainingResult]
    ) -> list[tuple[ModelUpdate, ServerStepInfo | None]]:
        """Drain a cohort of training results through the block data plane.

        Semantically identical to calling :meth:`receive_update` once per
        result, in order — including epochs finalized mid-block (later
        results' staleness is measured against the stepped version) — but
        each goal-bounded chunk crosses the secure boundary as *one*
        ``submit_block``: the completing messages are forwarded at
        check-in (amortized DH legs) and the TSA expands and folds the
        chunk's masks as a single fused block.  Aggregates are
        bit-identical to the per-arrival path.

        Like the plain :meth:`FedBuffAggregator.receive_update_block
        <repro.core.fedbuff.FedBuffAggregator.receive_update_block>`,
        this is the API for direct cohort-style drivers; inside a
        simulation each upload stays its own timestamped event.
        """
        out: list[tuple[ModelUpdate, ServerStepInfo | None]] = []
        pos = 0
        while pos < len(results):
            take = min(
                len(results) - pos, self.goal - len(self._epoch_contributors)
            )
            chunk = results[pos : pos + take]
            pos += take
            server = self._epoch_server
            pending = []
            records = []  # (leg_index, w_int, epoch position) per pending
            rejected = 0
            try:
                for result in chunk:
                    submission, weight, w_int, staleness = self._prepare_submission(
                        result
                    )
                    server.complete_checkin(submission)
                    pending.append(submission)
                    records.append(
                        (submission.leg_index, w_int, len(self._epoch_contributors))
                    )
                    self._record_contribution(
                        result, submission.leg_index, w_int, staleness
                    )
                    out.append(
                        (
                            ModelUpdate(
                                result=result,
                                arrival_version=self.version,
                                weight=weight,
                            ),
                            None,
                        )
                    )
            finally:
                # On a mid-chunk validation error everything gathered so
                # far is still submitted — the state the sequential path
                # would have left behind before raising.  Contributions
                # the TSA rejects are rolled back so the epoch's weights
                # never reference a leg the TSA did not process.
                if pending:
                    flags = server.submit_block(pending)
                    for (leg_index, w_int, entry), ok in zip(
                        reversed(records), reversed(flags)
                    ):
                        if ok:
                            continue
                        rejected += 1
                        self._epoch_weights.pop(leg_index, None)
                        self._epoch_weight_total -= w_int
                        del self._epoch_staleness[entry]
                        del self._epoch_contributors[entry]
                        self.updates_received -= 1
            if rejected:
                raise RuntimeError("secure submission rejected by honest TSA")
            if len(self._epoch_contributors) >= self.goal:
                info = self._finalize_epoch()
                out[-1] = (out[-1][0], info)
        return out

    def _step(self, weighted_sum: np.ndarray) -> ServerStepInfo:
        """Apply the epoch's decoded weighted sum as one server step."""
        avg = (weighted_sum / self._epoch_weight_total).astype(np.float32)
        self.state.apply(avg, len(self._epoch_contributors))
        self.version += 1
        self.epochs_completed += 1
        info = ServerStepInfo(
            version=self.version,
            num_updates=len(self._epoch_contributors),
            total_weight=self._epoch_weight_total / WEIGHT_SCALE,
            mean_staleness=float(np.mean(self._epoch_staleness)),
            max_staleness=int(np.max(self._epoch_staleness)),
            contributors=tuple(self._epoch_contributors),
        )
        self.step_history.append(info)
        return info

    def _finalize_epoch(self) -> ServerStepInfo:
        """Unmask the weighted aggregate, step the model, roll the epoch."""
        t0 = time.perf_counter() if self.profiler is not None else 0.0
        tsa = self._epoch_tsa
        info = self._step(
            self._epoch_server.finalize(
                weights=self._epoch_weights, max_abs=self.clip_value
            )
        )
        # The TSA is long-lived; its meters are cumulative, so the epoch's
        # share is the delta since the round was opened.
        mark_in, mark_out = self._epoch_boundary_mark
        self.boundary_bytes_in_total += tsa.boundary_bytes_in - mark_in
        self.boundary_bytes_out_total += tsa.boundary_bytes_out - mark_out
        self._begin_epoch()
        if self.profiler is not None:
            self.profiler.record("secagg_finalize", time.perf_counter() - t0)
        return info

    def __repr__(self) -> str:
        return (
            f"SecureBufferedAggregator(goal={self.goal}, version={self.version}, "
            f"buffered={self.buffered_count}, in_flight={len(self._in_flight)})"
        )
