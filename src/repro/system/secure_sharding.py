"""Hierarchical secure aggregation — sharded TSAs under one trusted root.

PAPAYA runs its two scale axes *together*: buffered asynchronous secure
aggregation (Section 5) sharded across many aggregators (Section 6.3).
This module composes the repro's two existing planes the same way
instead of adding a third beside them:

* each of ``S`` shards runs its own long-lived TSA + server pair
  (:class:`~repro.secagg.tsa.TrustedSecureAggregator` /
  :class:`~repro.secagg.server.SecAggServer`) over its arrival slice,
  with a per-shard :class:`~repro.secagg.server.LegPool` minting DH legs
  on demand;
* the untrusted root merges the shards' *masked* weighted group sums in
  deterministic ascending-shard order
  (:func:`repro.core.sharding.merge_group_partials`), and the trusted
  root (:class:`~repro.secagg.tsa.TrustedShardReducer`) merges the
  matching partial unmasks, enforces the **global** threshold, and
  releases one unmask vector per buffer epoch;
* a single decode then yields the weighted aggregate — the server still
  never observes an individual update in the clear.

Equivalence contract
--------------------
Stronger than the float plane's: group math mod 2^bits is exact under
machine wraparound, so for any shard count and either routing policy the
merged masked sum, the released unmask, the decoded model delta, and the
cumulative boundary-byte meters are **exactly equal** (``==``, no
tolerance) to the single secure plane fed the same arrivals.  Three
facts make this composition sound:

* a client's mask seed and DH key come from its *own* randomness stream
  (keyed by global ``version``/``updates_received`` counters, which stay
  global here), in a fixed order independent of which shard's leg it
  uses — so per-client masked vectors are bit-identical across planes;
* per-shard demand-minted legs (``block_size=1``) keep the total legs
  minted per epoch equal to the single plane's pool amortization, and a
  shard's partial release never crosses the trust boundary — only the
  reducer's one merged vector does — so the meters agree byte for byte;
* wraparound addition is associative and commutative, so reassociating
  the weighted folds by shard changes no output bit.

Shard failover composes with epoch re-keying exactly like the float
plane's :meth:`drop_shard`/:meth:`revive_shard`: a dead shard's slice is
excised from the open epoch (its masked contributions never reached the
root; the masks cancel out of nothing), routing steers around it, and
reviving re-keys the shard's TSA round so the survivor state matches a
single secure aggregator fed only the surviving arrivals.
"""

from __future__ import annotations

import numpy as np

from repro.core.fedbuff import ServerStepInfo
from repro.core.parallel import ProcessExecutorMixin, ShardWorkerPool, WorkerPoolError
from repro.core.sharding import (
    AggregationPlaneClock,
    ShardRoutingMixin,
    _ShardSlice,
    merge_group_partials,
)
from repro.core.types import ModelUpdate, TrainingResult
from repro.secagg.attestation import SigningAuthority
from repro.secagg.fixedpoint import FixedPointCodec
from repro.secagg.groups import PowerOfTwoGroup
from repro.secagg.merkle import VerifiableLog
from repro.secagg.server import LegPool, SecAggServer
from repro.secagg.tsa import TrustedSecureAggregator, TrustedShardReducer
from repro.system.secure import (
    SecureBufferedAggregator,
    client_submission,
    publish_manifest,
)
from repro.utils.rng import child_rng

__all__ = [
    "SecureLane",
    "SecureShardedAggregator",
    "ProcessSecureShardedAggregator",
]


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
        the *same* params hash a single-plane client would verify.
        Demand minting (one leg per arriving client) keeps the total
        legs minted per epoch across shards equal to the single plane's
        pool amortization (goal legs/epoch) for any routing — the
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

        This is the worker lane's ``participate`` op and the executor
        fallback's replay step — one definition, so a replayed shard is
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


class SecureLane:
    """The secure pool lane: each worker OWNS its shard's TSA + server.

    Unlike the float lane (which only folds), a secure lane runs the
    whole per-arrival pipeline — deterministic client participation
    (the client's randomness is keyed by global counters the parent
    ships with each task), demand leg minting, attestation verification,
    and the TSA admit — because the 2048-bit modexps are what dominate
    secure aggregation's critical path; shipping only the fold would
    leave them serialized on the parent.  Everything is rebuilt from the
    deployment seed with the exact ``child_rng`` derivations the inline
    plane uses (it *is* a :class:`_SecureShard`), so the shard state is
    bit-identical to an inline shard fed the same arrivals.

    Ops: ``participate`` (logged; ``args = (client_id, version,
    updates_received, w_int, num_examples)``; a TSA rejection fails the
    pool), ``finalize_partial`` (writes the masked weighted sum and the
    partial unmask into this shard's two output rows, acks
    ``(processed, total_w)``), ``begin_round`` (re-key; also the pool's
    epoch reset), ``meters`` (cumulative boundary bytes, read-only).
    """

    out_rows = 2
    out_dtype = np.uint64
    reset_op = "begin_round"

    def __init__(
        self, seed: int, goal: int, group_bits: int, fp_scale: float,
        clip_value: float, cache_masks: bool,
    ):
        self.seed = seed
        self.goal = goal
        self.group_bits = group_bits
        self.fp_scale = fp_scale
        self.clip_value = clip_value
        self.cache_masks = cache_masks

    def open(self, shard_id: int, inputs: np.ndarray, rows: np.ndarray):
        group = PowerOfTwoGroup(self.group_bits)
        codec = FixedPointCodec(
            group, scale=self.fp_scale, clip_value=self.clip_value
        )
        authority = SigningAuthority()
        shard = _SecureShard(
            shard_id, self.seed, group, codec, authority, inputs.shape[1],
            self.goal, self.cache_masks,
        )
        ctx = (self.seed, codec, authority,
               publish_manifest(VerifiableLog(), shard.tsa))

        def handle(op: str, slots: tuple[int, ...], args: tuple):
            if op == "participate":
                if not shard.participate(ctx, inputs[slots[0]], *args):
                    return WorkerPoolError(
                        f"shard {shard_id} worker rejected a secure submission"
                    )
            elif op == "finalize_partial":
                rows[0], rows[1], processed, total_w = shard.release_partial()
                return processed, total_w
            elif op == "begin_round":
                shard.rekey()
            else:  # "meters"
                return shard.meters()

        return handle

    def __repr__(self) -> str:
        return f"SecureLane(goal={self.goal})"


class SecureShardedAggregator(ShardRoutingMixin, SecureBufferedAggregator):
    """Sharded :class:`SecureBufferedAggregator` (drop-in, same contract).

    Parameters are those of the single secure plane plus:

    num_shards:
        ``S`` — parallel shard TSA/server pairs folding arrival slices.
    routing:
        ``"hash"``, ``"load"``, or a routing object with
        ``route(client_id, shards) -> shard_id`` (the float plane's
        policies, reused verbatim).
    clock:
        Optional :class:`~repro.core.sharding.AggregationPlaneClock`
        collecting measured per-fold / per-merge costs into the
        parallel-lane schedule (perf harness only).
    """

    def __init__(
        self,
        state,
        goal: int,
        vector_length: int,
        *,
        num_shards: int = 1,
        routing="hash",
        clock: AggregationPlaneClock | None = None,
        **kwargs,
    ):
        # Before the base constructor, whose _stand_up builds the shards.
        self._init_routing(num_shards, routing, clock)
        self._reducer_mark = 0
        self.last_merged_masked_sum: np.ndarray | None = None
        self.last_unmask: np.ndarray | None = None
        super().__init__(state, goal, vector_length, **kwargs)

    # -- epoch management ------------------------------------------------------

    def _stand_up(self) -> None:
        """Stand up ``S`` long-lived shard TSAs plus the root reducer,
        and publish the one manifest entry (every shard runs the same
        trusted binary)."""
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

    # -- aggregation ------------------------------------------------------------

    def _fold_client(self, result: TrainingResult, w_int: int) -> bool:
        """Submit to the client's shard server.  The weight lands in the
        *shard's* leg->weight map: leg indices are a per-TSA namespace,
        so a flat epoch map would collide."""
        shard_id = self._entry_shards[-1]
        shard = self._shards[shard_id]
        submission = self._participate(
            result, shard.server, self.updates_received - 1
        )
        stop = self._timer()
        ok = shard.server.submit(submission)
        stop("shard_fold", shard_id)
        if ok:
            shard.weights[submission.leg_index] = w_int
        return ok

    def _fold_chunk(self, admitted: list[ModelUpdate]) -> None:
        """One ``submit_block`` per shard, ascending — the single
        plane's block data plane, reused per shard; bit-identical to the
        per-arrival path (the block fold only reassociates exact group
        sums)."""
        entry = self.buffered_count - len(admitted)
        first = self.updates_received - len(admitted)
        pending: dict[int, list] = {}  # shard id -> (entry, submission, w_int)
        for i, update in enumerate(admitted):
            shard_id = self._entry_shards[entry + i]
            server = self._shards[shard_id].server
            submission = self._participate(update.result, server, first + i)
            server.complete_checkin(submission)
            pending.setdefault(shard_id, []).append(
                (entry + i, submission, self._w_int(update.weight))
            )
        rejected = []
        for shard_id in sorted(pending):
            shard = self._shards[shard_id]
            stop = self._timer()
            flags = shard.server.submit_block([sub for _, sub, _ in pending[shard_id]])
            stop("shard_fold", shard_id, len(flags))
            for (at, submission, w_int), ok in zip(pending[shard_id], flags):
                if ok:
                    shard.weights[submission.leg_index] = w_int
                else:
                    rejected.append(at)
        if rejected:
            self._reject(rejected)

    def _reject(self, entries: list[int]) -> None:
        for entry in entries:
            shard = self._shards[self._entry_shards[entry]]
            shard.count -= 1
            shard.folds_total -= 1
        self._entry_shards = [
            sid for i, sid in enumerate(self._entry_shards) if i not in entries
        ]
        super()._reject(entries)

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
        info = self._step(weighted_sum)
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

    # -- failover (Appendix E.4, per shard) ------------------------------------
    #
    # drop_shard() is the mixin's: the shard's masked contributions never
    # reached the root (its partial is computed at finalize time from
    # state that just died), so excising its arrival-order entries leaves
    # the epoch exactly as if a single secure aggregator had been fed
    # only the survivors' arrivals — the dead slice's masks cancel out of
    # nothing.

    def revive_shard(self, shard_id: int) -> None:
        """Bring a dead shard back empty, re-keying its TSA round.

        The re-key composes failover with epoch rotation: whatever round
        state the shard held when its host died is discarded, so its
        next partial covers exactly the contributions accepted after
        revival.
        """
        super().revive_shard(shard_id)
        self._shards[shard_id].rekey()

    def __repr__(self) -> str:
        return (
            f"SecureShardedAggregator(goal={self.goal}, "
            f"shards={self.num_shards}, routing={self.routing.name}, "
            f"version={self.version}, buffered={self.buffered_count}, "
            f"in_flight={len(self._in_flight)})"
        )


class ProcessSecureShardedAggregator(ProcessExecutorMixin, SecureShardedAggregator):
    """Secure sharded aggregation on real worker processes.

    Each shard's *entire* secure pipeline — deterministic client
    participation, demand leg minting, attestation verification, TSA
    admit — runs on that shard's worker process (a
    :class:`~repro.core.parallel.ShardWorkerPool` on the
    :class:`SecureLane`).  The parent validates arrivals, routes, keeps
    the FedBuff bookkeeping, and at the aggregation goal merges the
    shards' masked group sums and partial unmasks (written to the pool's
    output slab) under the trusted root reducer — the inherited epoch
    tail; only *collecting* the partials differs.

    Bit-identical to the inline plane: workers derive every key, seed,
    and mask from the same ``child_rng`` chains, and leg indices are
    sequential per shard on both sides, so the parent can assign them
    without waiting for acks.

    A dead worker (or an exhausted input slab, or a reported rejection)
    triggers a permanent fallback to the inline executor (see
    :meth:`_restore_inline_shards`), after which the inherited inline
    plane continues from exactly the state the workers held.
    """

    def __init__(
        self,
        state,
        goal: int,
        vector_length: int,
        *,
        start_method: str | None = None,
        on_event=None,
        **kwargs,
    ):
        super().__init__(state, goal, vector_length, **kwargs)
        if self.group.dtype != np.uint64:
            raise ValueError(
                "the secure process executor shares uint64 group slabs; "
                f"group dtype is {self.group.dtype}"
            )
        # Cumulative worker boundary meters as of the last finalize, per
        # shard — the epoch marks, exactly like the inline plane's.
        self._worker_meters = [(0, 0)] * self.num_shards
        pool = ShardWorkerPool(
            num_shards=self.num_shards,
            vector_length=vector_length,
            slots=2 * goal,
            lane=SecureLane(
                self.seed, goal, self.group.bits, self.codec.scale,
                self.clip_value, self._cache_masks,
            ),
            start_method=start_method,
            on_event=on_event,
        )
        self._attach_pool(pool, True, on_event)

    def _restore_inline_shards(self) -> None:
        """Catch the dormant inline shards up to the workers' state.

        The inline shards (built by ``_stand_up``, never fed while
        the pool was active) have virgin TSA RNGs and empty rounds.
        Burn each worker's pre-epoch leg mints off the inline pool so
        the mint RNG aligns, mark the boundary meters (pre-epoch traffic
        was already accounted from worker acks), then replay the open
        epoch's participations with the same derivations in dispatch
        order against the still-live input slab.
        """
        for sid, shard in enumerate(self._shards):
            for _ in range(self._pool.dispatched_before_epoch(sid)):
                shard.pool.take()
            shard.boundary_mark = shard.meters()
            shard.weights = {}
        ctx = self._client_ctx()
        for sid, _, (slot,), args in self._pool.epoch_log():
            if not self._shards[sid].participate(
                ctx, self._pool.inputs[slot], *args
            ):
                raise RuntimeError("secure submission rejected by honest TSA")

    # -- overridden pipeline seams ---------------------------------------------

    def _shard_meters(self) -> list[tuple[int, int]]:
        if self._pool_active:
            return self._worker_meters
        return super()._shard_meters()

    def _fold_client(self, result: TrainingResult, w_int: int) -> bool:
        """Hand the client step + admit to the shard's worker."""
        shard_id = self._entry_shards[-1]
        args = (result.client_id, self.version, self.updates_received - 1, w_int,
                result.num_examples)
        if not self._on_pool(
            self._pool.dispatch, shard_id, "participate", args, (result.delta,),
            shard=shard_id,
        ):
            return super()._fold_client(result, w_int)
        # Demand minting is one leg per arrival, so per-shard leg
        # indices are sequential — the worker's assign_leg returns
        # exactly the index of this fold.
        shard = self._shards[shard_id]
        shard.weights[shard.folds_total - 1] = w_int
        return True

    def receive_update_block(
        self, results: list[TrainingResult]
    ) -> list[tuple[ModelUpdate, ServerStepInfo | None]]:
        """Per-arrival dispatch *is* the block plane here: every arrival
        already crosses to its worker asynchronously, so cohort drains
        reduce to the sequential path (identical semantics and bits)."""
        if not self._pool_active:
            return super().receive_update_block(results)
        return [self.receive_update(result) for result in results]

    def _collect_partials(self):
        out = []

        def from_workers() -> None:
            self._pool.barrier()
            for sid, shard in enumerate(self._shards):
                if shard.weights:
                    processed, total_w = self._pool.call(sid, "finalize_partial")
                    masked, unmask = self._pool.rows(sid)
                    out.append(
                        (sid, masked.copy(), unmask.copy(), processed, total_w)
                    )
            self._refresh_meters()

        if self._on_pool(from_workers):
            return out
        return super()._collect_partials()

    def _refresh_meters(self) -> None:
        self._worker_meters = [
            self._pool.call(sid, "meters") for sid in range(self.num_shards)
        ]

    def revive_shard(self, shard_id: int) -> None:
        super().revive_shard(shard_id)
        self._on_pool(self._pool.discard_shard, shard_id)

    def drop_buffer_and_inflight(self) -> tuple[int, list[int]]:
        # The re-opened epoch's marks must exclude the lost epoch's
        # boundary traffic, as the inline plane's do.
        self._on_pool(self._refresh_meters)
        return super().drop_buffer_and_inflight()
