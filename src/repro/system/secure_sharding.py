"""The secure core's process executor — each shard's TSA on a worker.

:class:`~repro.system.secure.SecureBufferedAggregator` folds masked
updates into ``num_shards`` shard TSA + server pairs under one trusted
root reducer.  This module runs those shards on real worker processes
(a :class:`~repro.core.parallel.ShardWorkerPool` on the
:class:`SecureLane`), bit-identically to the inline core:

* a :class:`SecureLane` worker *owns* its shard's TSA + server pair,
  rebuilt from the deployment seed with the same ``child_rng``
  derivations the inline shard uses, and runs the whole per-arrival
  pipeline (client participation, demand leg minting, attestation
  verification, TSA admit) — the 2048-bit modexps dominate secure
  aggregation's critical path, so shipping only the fold would leave
  them serialized on the parent;
* :class:`ProcessSecureShardedAggregator` keeps the FedBuff bookkeeping,
  routing and the root merge on the parent and collects the shards'
  masked sums and partial unmasks from the pool's output slab.

Equivalence contract
--------------------
Group math mod 2^bits is exact under machine wraparound, so for any
shard count, routing policy and executor the merged masked sum, the
released unmask, the decoded model delta, and the cumulative
boundary-byte meters are **exactly equal** (``==``, no tolerance) to the
one-shard secure core fed the same arrivals.  Three facts make this
sound:

* a client's mask seed and DH key come from its *own* randomness stream
  (keyed by global ``version``/``updates_received`` counters), in a
  fixed order independent of which shard's leg it uses — so per-client
  masked vectors are bit-identical across shard counts;
* per-shard demand-minted legs (``block_size=1``) keep the total legs
  minted per epoch at one per arrival for any routing, and a shard's
  partial release never crosses the trust boundary — only the reducer's
  one merged vector does — so the meters agree byte for byte;
* wraparound addition is associative and commutative, so reassociating
  the weighted folds by shard changes no output bit.

Shard failover composes with epoch re-keying like the float core's
``drop_shard``/``revive_shard``: a dead shard's slice is excised from
the open epoch (its masked contributions never reached the root; the
masks cancel out of nothing), routing steers around it, and reviving
re-keys the shard's TSA round so the survivor state matches a one-shard
secure core fed only the surviving arrivals.
"""

from __future__ import annotations

import numpy as np

from repro.core.parallel import ProcessExecutorMixin, ShardWorkerPool, WorkerPoolError
from repro.core.types import TrainingResult
from repro.secagg.attestation import SigningAuthority
from repro.secagg.fixedpoint import FixedPointCodec
from repro.secagg.groups import PowerOfTwoGroup
from repro.secagg.merkle import VerifiableLog
from repro.system.secure import (
    SecureBufferedAggregator,
    _SecureShard,
    publish_manifest,
)

__all__ = [
    "SecureLane",
    "ProcessSecureShardedAggregator",
]


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


class ProcessSecureShardedAggregator(ProcessExecutorMixin, SecureBufferedAggregator):
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
            self._pool.dispatch, shard_id, "participate", args, result.delta,
            shard=shard_id,
        ):
            return super()._fold_client(result, w_int)
        # Demand minting is one leg per arrival, so per-shard leg
        # indices are sequential — the worker's assign_leg returns
        # exactly the index of this fold.
        shard = self._shards[shard_id]
        shard.weights[shard.folds_total - 1] = w_int
        return True

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
