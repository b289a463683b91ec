"""Buffered asynchronous aggregation *through* Asynchronous SecAgg.

This is the integration the paper's abstract claims as the headline
contribution: "a novel asynchronous secure aggregation protocol ...
enables the implementation of FL with buffered asynchronous aggregation".

:class:`SecureBufferedAggregator` *is* a
:class:`repro.core.fedbuff.FedBuffAggregator` (so :class:`FLTaskRuntime`
can host either transparently) whose server-side buffer only ever holds
*masked* group vectors:

* the buffer is folded by ``num_shards`` long-lived TSA + server pairs
  (one at the default ``num_shards=1``), each over its routed slice of
  the arrivals, with a per-shard :class:`LegPool` minting DH legs on
  demand; at the goal a trusted root reducer merges the shards' partial
  unmasks and releases one unmask vector per epoch;
* every buffer epoch *re-keys* each shard's TSA (``begin_round``): the
  unmask release is one-shot per round, so each server step gets its own
  Figure 16 session, but the attestation identity, verifiable log and
  minted legs are stood up once for the lifetime of the task;
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
from repro.core.sharding import (
    AggregationPlaneClock,
    _ShardSlice,
    merge_group_partials,
)
from repro.core.staleness import StalenessPolicy
from repro.core.types import ModelUpdate, TrainingResult
from repro.secagg.attestation import SigningAuthority
from repro.secagg.client import LogBundle, SecAggClient
from repro.secagg.fixedpoint import FixedPointCodec
from repro.secagg.groups import PowerOfTwoGroup
from repro.secagg.merkle import VerifiableLog
from repro.secagg.server import LegPool, SecAggServer
from repro.secagg.tsa import TrustedSecureAggregator, TrustedShardReducer
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

    The one definition every path runs — each inline shard, each shard
    worker process, and the executor fallback's replay — so a client's randomness stream (keyed by the *global*
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


class _SecureShard(_ShardSlice):
    """One shard: a TSA + server pair folding masked updates over its slice."""

    __slots__ = ("tsa", "server", "pool", "weights", "boundary_mark")

    def __init__(
        self,
        shard_id: int,
        seed: int,
        group: PowerOfTwoGroup,
        codec: FixedPointCodec,
        authority: SigningAuthority,
        vector_length: int,
        goal: int,
        cache_masks: bool,
    ) -> None:
        """Stand the shard up from the deployment seed.

        ``threshold = goal`` on every shard, so each leg's quote binds
        the *same* params hash whatever the shard count.  Demand minting
        (one leg per arriving client) keeps the total legs minted per
        epoch across shards at goal legs/epoch for any routing — the
        boundary meters depend on it.
        """
        super().__init__()
        self.tsa = TrustedSecureAggregator(
            group,
            vector_length,
            threshold=goal,
            authority=authority,
            rng=child_rng(seed, "tsa-epoch", 0, shard_id),
            cache_masks=cache_masks,
        )
        self.pool = LegPool(self.tsa, block_size=1, prefill=0)
        self.server = SecAggServer(self.tsa, codec, leg_pool=self.pool)
        self.weights: dict[int, int] = {}  # leg index -> integer weight
        self.boundary_mark = (0, 0)

    def clear(self) -> None:
        """Forget the open epoch's accepted contributions."""
        self.weights = {}
        self.count = 0

    def rekey(self) -> None:
        """Open a fresh TSA round: whatever round state the shard held
        (recovered seeds, cached mask rows, accepted masked updates) is
        discarded.  Minted legs survive, as across any ``begin_round``."""
        self.tsa.begin_round()
        self.server.begin_round()
        self.clear()

    def meters(self) -> tuple[int, int]:
        """Cumulative boundary bytes (in, out) of this shard's TSA."""
        return self.tsa.boundary_bytes_in, self.tsa.boundary_bytes_out

    def participate(
        self, client_ctx: tuple, delta: np.ndarray, client_id: int,
        version: int, updates_received: int, w_int: int, num_examples: int,
    ) -> bool:
        """One logged arrival, client step to TSA admit, on this shard.

        The worker lane's ``participate`` op and the executor fallback's
        replay step — one definition, so a replayed shard is
        bit-identical to the worker's.  ``client_ctx`` is the
        deployment's ``(seed, codec, authority, log_bundle)`` (see
        ``SecureBufferedAggregator._client_ctx``).
        """
        submission = client_submission(
            *client_ctx, self.server, delta, client_id, version,
            updates_received, num_examples,
        )
        if not self.server.submit(submission):
            return False
        self.weights[submission.leg_index] = w_int
        return True

    def release_partial(self) -> tuple[np.ndarray, np.ndarray, int, int]:
        """This shard's epoch contribution to the root merge.

        ``(masked weighted sum, partial unmask, processed, total |w|)``.
        The partial unmask stays inside the trust domain — only the
        reducer's one merged vector crosses the boundary — and burns the
        TSA's one-shot release latch until the next :meth:`rekey`.
        """
        live = {k: v for k, v in self.weights.items() if v}
        masked, total_w = self.server.masked_weighted_sum(live)
        unmask = self.tsa.release_unmask_partial(live)
        return masked, unmask, self.tsa.processed_count, total_w


class SecureBufferedAggregator(FedBuffAggregator):
    """FedBuff whose buffer is masked (drop-in for the plain core).

    Admission, staleness, routing, the epoch's arrival-order lists, shard
    failover and the step record are the inherited FedBuff ones; this
    class supplies what is secure: the ``WEIGHT_SCALE`` weight
    quantisation, one long-lived TSA + server pair per shard folding
    masked updates, the trusted root reducer
    (:class:`~repro.secagg.tsa.TrustedShardReducer`) that merges the
    shards' partial unmasks and releases one unmask per epoch, re-keying
    at every epoch reset, and the boundary-byte meters.  Group math is
    exact, so every shard count and routing gives the same masked sum,
    unmask, model and meters (``==``; see
    :mod:`repro.system.secure_sharding`).

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
    cache_masks:
        Forwarded to the TSAs — cache recovered masks as contiguous rows
        so the weighted release is one fused reduction (see
        :class:`repro.secagg.tsa.TrustedSecureAggregator`).
    num_shards, routing, clock:
        As in :class:`repro.core.fedbuff.FedBuffAggregator`: ``S`` shard
        TSA/server pairs folding arrival slices.
    """

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
        *,
        num_shards: int = 1,
        routing="hash",
        clock: AggregationPlaneClock | None = None,
    ):
        super().__init__(
            state, goal, staleness_policy, max_staleness, example_weighting,
            num_shards=num_shards, routing=routing, clock=clock,
        )
        self.vector_length = vector_length
        self.clip_value = clip_value
        self.seed = seed

        self.group = PowerOfTwoGroup(group_bits)
        self.codec = FixedPointCodec(self.group, scale=fp_scale, clip_value=clip_value)
        self.authority = SigningAuthority()
        # One verifiable log for the lifetime of the task; every shard's
        # TSA runs the same trusted binary, so one log entry suffices.
        self.log = VerifiableLog()

        self.epochs_completed = 0
        self.boundary_bytes_in_total = 0
        self.boundary_bytes_out_total = 0
        self.last_merged_masked_sum: np.ndarray | None = None
        self.last_unmask: np.ndarray | None = None
        self._cache_masks = cache_masks
        self._reducer_mark = 0
        self._stand_up()

    # -- epoch management ------------------------------------------------------

    def _stand_up(self) -> None:
        """Stand up ``S`` long-lived shard TSAs plus the root reducer,
        once, and publish the one manifest entry (every shard runs the
        same trusted binary); every later epoch just re-keys
        (:meth:`_rekey`)."""
        self._shards = [
            _SecureShard(
                sid, self.seed, self.group, self.codec, self.authority,
                self.vector_length, self.goal, self._cache_masks,
            )
            for sid in range(self.num_shards)
        ]
        self._log_bundle = publish_manifest(self.log, self._shards[0].tsa)
        self._reducer = TrustedShardReducer(
            self.group, self.vector_length, self.goal
        )

    def _rekey(self) -> None:
        """Re-key each live shard's round and re-arm the reducer; dead
        shards are re-keyed at :meth:`revive_shard` time instead."""
        for shard in self._shards:
            if shard.alive:
                shard.rekey()
        self._reducer.begin_round()
        for shard, mark in zip(self._shards, self._shard_meters()):
            shard.boundary_mark = mark
        self._reducer_mark = self._reducer.boundary_bytes_out

    def _shard_meters(self) -> list[tuple[int, int]]:
        """Cumulative boundary bytes (in, out) per shard TSA."""
        return [shard.meters() for shard in self._shards]

    def _reset_epoch(self) -> None:
        """After a step or on failover (the masked partials are lost too):
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

    def _fold_client(self, result: TrainingResult, w_int: int) -> bool:
        """Run the client-side secure participation for the arrival just
        admitted against its shard's server leg, and submit it; False if
        the TSA rejected it.  The weight lands in the *shard's*
        leg->weight map: leg indices are a per-TSA namespace.  The
        process executor overrides this seam to hand the whole step to
        the shard's worker."""
        shard_id = self._entry_shards[-1]
        shard = self._shards[shard_id]
        submission = client_submission(
            *self._client_ctx(), shard.server, result.delta, result.client_id,
            self.version, self.updates_received - 1, result.num_examples,
        )
        stop = self._timer()
        ok = shard.server.submit(submission)
        stop("shard_fold", shard_id)
        if ok:
            shard.weights[submission.leg_index] = w_int
        return ok

    def _reject(self) -> None:
        """Roll the TSA-rejected arrival just admitted back out of the
        open epoch, so its weights never reference a leg the TSA did not
        process."""
        shard = self._shards[self._entry_shards.pop()]
        shard.count -= 1
        shard.folds_total -= 1
        self._keep_entries(list(range(self.buffered_count - 1)))
        self.updates_received -= 1
        raise RuntimeError("secure submission rejected by honest TSA")

    def receive_update(
        self, result: TrainingResult
    ) -> tuple[ModelUpdate, ServerStepInfo | None]:
        """Run the client's secure participation, then maybe step.

        The client-side work (quote + log verification, DH completion,
        masking, sealing) happens here because in the simulation the
        "wire" is a method call; the privacy boundary is preserved — the
        shard's server only receives the masked vector and the sealed
        seed.
        """
        t0 = time.perf_counter() if self.profiler is not None else 0.0
        update = self._admit(result)
        if not self._fold_client(update.result, self._w_int(update.weight)):
            self._reject()
        if self.profiler is not None:
            self.profiler.record("secagg_submit", time.perf_counter() - t0)
        info = self._finalize_epoch() if self.buffered_count >= self.goal else None
        return update, info

    def _collect_partials(self) -> list[tuple[int, np.ndarray, np.ndarray, int, int]]:
        """``(shard, masked sum, partial unmask, processed, |w|)`` per
        contributing shard, ascending — the one step the executors do
        differently (here: computed in place, on the shard's lane)."""
        out = []
        for sid, shard in enumerate(self._shards):
            if not shard.weights:
                continue  # dead (excised at drop time) or simply empty
            stop = self._timer()
            out.append((sid, *shard.release_partial()))
            # Partial extraction runs on the shard's lane; it adds no
            # fold to the tally (those were counted per arrival).
            stop(None, sid, 0)
        return out

    def _server_step(self) -> ServerStepInfo:
        """Merge shard partials, unmask once, step the model."""
        partials = self._collect_partials()
        stop = self._timer()
        merged_masked = merge_group_partials(
            self.group, [(sid, masked) for sid, masked, *_ in partials],
            self.vector_length,
        )
        unmask = self._reducer.merge_released_partials(
            [(sid, part) for sid, _, part, _, _ in partials],
            sum(processed for *_, processed, _ in partials),
        )
        weighted_sum = self.codec.decode_sum(
            self.group.sub(merged_masked, unmask),
            max(sum(w for *_, w in partials), 1),
            self.clip_value,
        )
        self.last_merged_masked_sum = merged_masked
        self.last_unmask = unmask
        avg = (weighted_sum / (self._weight_sum * WEIGHT_SCALE)).astype(np.float32)
        self.epochs_completed += 1
        info = self._apply_step(avg, self._weight_sum)
        stop("root_merge")
        # Long-lived shard TSAs have cumulative meters; the epoch's share
        # is each shard's delta since its round opened, plus the
        # reducer's one merged release.
        for shard, (m_in, m_out) in zip(self._shards, self._shard_meters()):
            mark_in, mark_out = shard.boundary_mark
            self.boundary_bytes_in_total += m_in - mark_in
            self.boundary_bytes_out_total += m_out - mark_out
        self.boundary_bytes_out_total += (
            self._reducer.boundary_bytes_out - self._reducer_mark
        )
        return info

    def _finalize_epoch(self) -> ServerStepInfo:
        """Unmask the weighted aggregate, step the model, roll the epoch."""
        t0 = time.perf_counter() if self.profiler is not None else 0.0
        info = super()._finalize_epoch()
        if self.profiler is not None:
            self.profiler.record("secagg_finalize", time.perf_counter() - t0)
        return info

    # -- failover (Appendix E.4, per shard) ------------------------------------
    #
    # drop_shard() is FedBuff's: the shard's masked contributions never
    # reached the root (its partial is computed at finalize time from
    # state that just died), so excising its arrival-order entries leaves
    # the epoch exactly as if the core had been fed only the survivors'
    # arrivals — the dead slice's masks cancel out of nothing.

    def revive_shard(self, shard_id: int) -> None:
        """Bring a dead shard back empty, re-keying its TSA round.

        The re-key composes failover with epoch rotation: whatever round
        state the shard held when its host died is discarded, so its
        next partial covers exactly the contributions accepted after
        revival.
        """
        super().revive_shard(shard_id)
        self._shards[shard_id].rekey()
