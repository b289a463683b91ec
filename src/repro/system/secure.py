"""Buffered asynchronous aggregation *through* Asynchronous SecAgg.

This is the integration the paper's abstract claims as the headline
contribution: "a novel asynchronous secure aggregation protocol ...
enables the implementation of FL with buffered asynchronous aggregation".

:class:`SecureBufferedAggregator` *is* a
:class:`repro.core.fedbuff.FedBuffAggregator` (so :class:`FLTaskRuntime`
can host either transparently) whose server-side buffer only ever holds
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

from repro.core.fedbuff import FedBuffAggregator, ServerStepInfo
from repro.core.staleness import StalenessPolicy
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


class SecureBufferedAggregator(FedBuffAggregator):
    """FedBuff whose buffer is masked (drop-in for the plain core).

    Admission, staleness, the epoch's arrival-order lists and the step
    record are the inherited FedBuff ones; this class supplies what is
    secure: the ``WEIGHT_SCALE`` weight quantisation, the masked fold,
    the unmask + decode epoch average, re-keying at every epoch reset,
    and the boundary-byte meters.

    Parameters
    ----------
    state:
        Model state to advance (real vector or surrogate).
    goal:
        Aggregation goal K — also the TSA threshold ``t`` of each epoch:
        the unmask cannot be requested before K clients contributed, and
        the :class:`LegPool` mints K legs per refill (one refill covers
        one epoch's cohort).
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
        cache_masks: bool = True,
    ):
        super().__init__(state, goal, staleness_policy, max_staleness, example_weighting)
        self.vector_length = vector_length
        self.clip_value = clip_value
        self.seed = seed

        self.group = PowerOfTwoGroup(group_bits)
        self.codec = FixedPointCodec(self.group, scale=fp_scale, clip_value=clip_value)
        self.authority = SigningAuthority()
        # One verifiable log for the lifetime of the task; every epoch's
        # TSA runs the same trusted binary, so one log entry suffices.
        self.log = VerifiableLog()

        self.epochs_completed = 0
        self.boundary_bytes_in_total = 0
        self.boundary_bytes_out_total = 0
        self._cache_masks = cache_masks
        self._stand_up()

    # -- epoch management ------------------------------------------------------

    def _stand_up(self) -> None:
        """Stand up the task's long-lived trusted party, once.

        Publishes its binary to the verifiable log and pre-mints the
        shared leg pool; every later epoch just re-keys a new TSA round
        (:meth:`_rekey`) — no authority, log, or mint-from-zero on the
        epoch path.
        """
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
        self._leg_pool = LegPool(tsa, block_size=self.goal, prefill=self.goal)
        self._epoch_server = SecAggServer(tsa, self.codec, leg_pool=self._leg_pool)
        self._epoch_weights: dict[int, int] = {}  # leg index -> integer weight

    def _rekey(self) -> None:
        """Open the next buffer epoch's Figure 16 session (its own seam,
        so the sharded plane swaps the re-key but keeps the reset chain)."""
        self._epoch_tsa.begin_round()
        self._epoch_server.begin_round()
        self._epoch_boundary_mark = (
            self._epoch_tsa.boundary_bytes_in,
            self._epoch_tsa.boundary_bytes_out,
        )
        self._epoch_weights = {}

    def _reset_epoch(self) -> None:
        """After a step or on failover (the masked buffer is lost too):
        the unmask release is one-shot per round, so every epoch re-keys."""
        super()._reset_epoch()
        self._rekey()

    # -- aggregation ------------------------------------------------------------

    @staticmethod
    def _w_int(weight: float) -> int:
        """The integer weight the masked fold applies for a real ``weight``."""
        return max(1, int(round(weight * WEIGHT_SCALE)))

    def _record(self, client_id: int, weight: float, staleness: int) -> None:
        # The masked fold applies integer weights, so the epoch is
        # accounted in exactly those: multiples of 1/WEIGHT_SCALE, which
        # float64 sums without rounding.
        super()._record(client_id, self._w_int(weight) / WEIGHT_SCALE, staleness)

    def _client_ctx(self) -> tuple:
        """What every participating client knows about this deployment:
        the leading arguments of :func:`client_submission`."""
        return self.seed, self.codec, self.authority, self._log_bundle

    def _participate(self, result: TrainingResult, server: SecAggServer, arrival: int):
        """Run the client-side secure participation for one result —
        the ``arrival``-th the task received — against ``server``'s leg."""
        return client_submission(
            *self._client_ctx(), server, result.delta, result.client_id,
            self.version, arrival, result.num_examples,
        )

    def _fold_client(self, result: TrainingResult, w_int: int) -> bool:
        """Participate and submit the arrival just admitted; False if
        the TSA rejected it.

        Seam for the sharded subclasses, which submit to the client's
        shard-local server (inline) or hand the whole step to the
        shard's worker process.
        """
        server = self._epoch_server
        submission = self._participate(result, server, self.updates_received - 1)
        if not server.submit(submission):
            return False
        self._epoch_weights[submission.leg_index] = w_int
        return True

    def _fold(self, update: ModelUpdate) -> None:
        if not self._fold_client(update.result, self._w_int(update.weight)):
            self._reject([self.buffered_count - 1])

    def _fold_chunk(self, admitted: list[ModelUpdate]) -> None:
        """Cross the secure boundary once for the whole chunk.

        The completing messages are forwarded at check-in (amortized DH
        legs) and the TSA expands and folds the chunk's masks as a
        single fused ``submit_block``.  Aggregates are bit-identical to
        the per-arrival path.
        """
        server = self._epoch_server
        first = self.updates_received - len(admitted)
        pending = []
        for i, update in enumerate(admitted):
            submission = self._participate(update.result, server, first + i)
            server.complete_checkin(submission)
            pending.append(submission)
        flags = server.submit_block(pending)
        entry = self.buffered_count - len(admitted)
        rejected = []
        for i, (update, submission, ok) in enumerate(zip(admitted, pending, flags)):
            if ok:
                self._epoch_weights[submission.leg_index] = self._w_int(update.weight)
            else:
                rejected.append(entry + i)
        if rejected:
            self._reject(rejected)

    def _reject(self, entries: list[int]) -> None:
        """Roll TSA-rejected contributions back out of the open epoch,
        so its weights never reference a leg the TSA did not process."""
        self._keep_entries(
            [i for i in range(self.buffered_count) if i not in entries]
        )
        self.updates_received -= len(entries)
        raise RuntimeError("secure submission rejected by honest TSA")

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
        update = self._admit(result)
        self._fold(update)
        if self.profiler is not None:
            self.profiler.record("secagg_submit", time.perf_counter() - t0)
        info = self._finalize_epoch() if self.buffered_count >= self.goal else None
        return update, info

    def _step(self, weighted_sum: np.ndarray) -> ServerStepInfo:
        """Apply the epoch's decoded weighted sum as one server step."""
        avg = (weighted_sum / (self._weight_sum * WEIGHT_SCALE)).astype(np.float32)
        self.epochs_completed += 1
        return self._apply_step(avg, self._weight_sum)

    def _server_step(self) -> ServerStepInfo:
        """Unmask the weighted aggregate and step the model."""
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
        return info

    def _finalize_epoch(self) -> ServerStepInfo:
        """Unmask the weighted aggregate, step the model, roll the epoch."""
        t0 = time.perf_counter() if self.profiler is not None else 0.0
        info = super()._finalize_epoch()
        if self.profiler is not None:
            self.profiler.record("secagg_finalize", time.perf_counter() - t0)
        return info
