"""The untrusted server side of Asynchronous SecAgg (Figure 16 steps 2, 5, 7–8).

The server is honest-but-curious: it follows the protocol but sees
everything that crosses it.  It therefore only ever handles *masked*
updates — the incremental aggregation property that makes the protocol
compatible with FedBuff: each arriving masked update is folded into a
running group sum immediately, no cohort required.

The data plane is vectorized alongside the TSA's: :meth:`submit_block`
forwards K submissions in one TSA round trip, and the finalize folds the
accepted masked updates with allocation-free in-place multiply-accumulate
passes instead of K allocate-scale-and-add round trips.  Both paths
produce bit-identical aggregates (group math is exact mod 2^bits).
"""

from __future__ import annotations

import numpy as np

from repro.secagg.client import ClientSubmission
from repro.secagg.fixedpoint import FixedPointCodec
from repro.secagg.tsa import KeyExchangeLeg, ProtocolError, TrustedSecureAggregator

__all__ = ["LegPool", "SecAggServer"]


class LegPool:
    """Pre-minted DH key-exchange legs, refillable in blocks.

    The paper's trusted party prepares "N (N > n) DH key exchange
    protocol instances" ahead of client arrivals; minting one costs a
    2048-bit modexp, so the pool mints ``block_size`` at a time against a
    TSA and hands legs out one by one.  A pool survives
    :meth:`~repro.secagg.tsa.TrustedSecureAggregator.begin_round`, so the
    system layer shares one across buffer epochs — a steady-state epoch
    consumes pre-minted supply, and a refill is one amortized block round
    trip, not K individual mints.  :class:`SecAggServer` also uses one
    internally for its local leg stock.

    Parameters
    ----------
    tsa:
        The trusted party that owns the legs' private halves.
    block_size:
        Legs minted per refill.
    prefill:
        Legs to mint immediately (default: one block).
    """

    def __init__(
        self,
        tsa: TrustedSecureAggregator,
        block_size: int = 64,
        prefill: int | None = None,
    ):
        if block_size < 1:
            raise ValueError("block_size must be at least 1")
        self.tsa = tsa
        self.block_size = block_size
        self.minted = 0
        self._legs: list[KeyExchangeLeg] = []
        prefill = block_size if prefill is None else prefill
        if prefill:
            self._legs = list(reversed(tsa.prepare_legs(prefill)))
            self.minted += prefill

    @property
    def available(self) -> int:
        """Pre-minted legs ready to hand out."""
        return len(self._legs)

    def take(self) -> KeyExchangeLeg:
        """Pop one fresh leg, refilling by one block when the pool is dry."""
        if not self._legs:
            self._legs = list(reversed(self.tsa.prepare_legs(self.block_size)))
            self.minted += self.block_size
        return self._legs.pop()


class SecAggServer:
    """Aggregates masked updates; orchestrates legs and the final unmask.

    Parameters
    ----------
    tsa:
        The trusted party (in production: reached over an attested
        channel; here: a direct reference whose boundary is metered).
    codec:
        Fixed-point codec shared by all parties.
    initial_legs:
        How many DH legs to pre-mint (the paper's ``N > n``).
    refill_size:
        How many legs to mint when the supply runs dry.  Defaults to
        ``initial_legs`` so a cohort of K clients pays one refill round
        trip, not ``ceil(K / 16)`` of them.
    leg_pool:
        Optional external :class:`LegPool` (shared across buffer epochs
        by the system layer).  When given, the server mints nothing
        itself; otherwise it runs a private pool sized by
        ``initial_legs``/``refill_size``.
    """

    def __init__(
        self,
        tsa: TrustedSecureAggregator,
        codec: FixedPointCodec,
        initial_legs: int = 16,
        refill_size: int | None = None,
        leg_pool: LegPool | None = None,
    ):
        if refill_size is not None and refill_size < 1:
            raise ValueError("refill_size must be at least 1")
        self.tsa = tsa
        self.codec = codec
        self.refill_size = refill_size if refill_size is not None else max(1, initial_legs)
        self._pool = (
            leg_pool
            if leg_pool is not None
            else LegPool(tsa, block_size=self.refill_size, prefill=initial_legs)
        )
        self._masked_sum = codec.group.zeros(tsa.vector_length)
        self._accepted: list[ClientSubmission] = []
        # Block submissions defer their fold to finalize time (one
        # in-place pass over the retained masked vectors); scalar
        # submissions stay on the eager running sum.
        self._block_accepted: list[ClientSubmission] = []
        self._finalized = False

    def begin_round(self) -> None:
        """Reset for the next buffer epoch, keeping warm state.

        Clears everything round-scoped — the running masked sum, accepted
        submissions, the finalized latch — while retaining the leg supply
        (pool or local stock), mirroring
        :meth:`TrustedSecureAggregator.begin_round` so a long-lived
        server pair serves a sequence of epochs.  The caller re-keys the
        TSA separately.
        """
        self._masked_sum = self.codec.group.zeros(self.tsa.vector_length)
        self._accepted = []
        self._block_accepted = []
        self._finalized = False

    # -- step 2: hand a leg to a checking-in client -------------------------------

    def assign_leg(self) -> KeyExchangeLeg:
        """Hand out a fresh, never-used key-exchange leg.

        The pool mints more on demand (``refill_size`` at a time) —
        clients check in asynchronously and the supply must never gate
        them.
        """
        return self._pool.take()

    def complete_checkin(self, submission: ClientSubmission) -> bool:
        """Forward a client's DH completing message at check-in time.

        Amortized-DH-leg control plane: the TSA derives and caches the
        channel key now, so the later :meth:`submit` /
        :meth:`submit_block` does no modexp on the aggregation path.
        """
        return self.tsa.complete_leg(
            submission.leg_index, submission.completing_message
        )

    # -- step 5: incremental aggregation ----------------------------------------

    def submit(self, submission: ClientSubmission) -> bool:
        """Forward demasking info to the TSA; on acceptance, aggregate.

        The masked update is added to the running sum only when the TSA
        accepted the matching seed — otherwise the masked sum and the
        mask sum would diverge and the final unmask would be garbage.
        Returns whether the contribution counted.
        """
        if self._finalized:
            return False
        if submission.masked_update.shape != (self.tsa.vector_length,):
            raise ValueError("masked update has wrong length")
        if submission.masked_update.dtype != self.codec.group.dtype:
            # Validate before the TSA burns the leg: a malformed update
            # must not leave the mask sum holding a mask whose masked
            # update was never aggregated.
            raise TypeError(
                f"expected group dtype {self.codec.group.dtype}, "
                f"got {submission.masked_update.dtype}"
            )
        accepted = self.tsa.process_client(
            submission.leg_index,
            submission.completing_message,
            submission.sealed_seed,
        )
        if accepted:
            self.codec.group.add_into(self._masked_sum, submission.masked_update)
            self._accepted.append(submission)
        return accepted

    def submit_block(self, submissions: list[ClientSubmission]) -> list[bool]:
        """Forward K submissions in one TSA round trip.

        Semantically identical to K sequential :meth:`submit` calls —
        per-submission acceptance flags, rejection behaviour, and the
        final aggregate are the same — but the TSA expands and folds the
        accepted masks as one block, and the server defers its own fold
        to finalize time, where the retained masked vectors are folded
        with allocation-free in-place passes.  Shape/dtype validation
        happens up front: a malformed submission raises before anything
        in the block is processed.
        """
        if self._finalized:
            return [False] * len(submissions)
        group = self.codec.group
        for submission in submissions:
            if submission.masked_update.shape != (self.tsa.vector_length,):
                raise ValueError("masked update has wrong length")
            if submission.masked_update.dtype != group.dtype:
                raise TypeError(
                    f"expected group dtype {group.dtype}, "
                    f"got {submission.masked_update.dtype}"
                )
        flags = self.tsa.process_client_block(
            [
                (s.leg_index, s.completing_message, s.sealed_seed)
                for s in submissions
            ]
        )
        accepted = [s for s, ok in zip(submissions, flags) if ok]
        self._accepted.extend(accepted)
        self._block_accepted.extend(accepted)
        return flags

    @property
    def accepted_count(self) -> int:
        """Contributions aggregated so far."""
        return len(self._accepted)

    @property
    def accepted_submissions(self) -> tuple[ClientSubmission, ...]:
        """The accepted submissions (masked — safe for the server to hold)."""
        return tuple(self._accepted)

    def masked_weighted_sum(
        self, weights: dict[int, int]
    ) -> tuple[np.ndarray, int]:
        """``Σ w_i·(masked update)_i`` over the accepted submissions.

        The shard-server half of hierarchical secure aggregation: a shard
        computes its weighted *masked* partial for the root merge without
        requesting any unmask and without burning the finalize latch —
        the root performs the single unmask + decode after merging the
        shard partials in ascending-shard order.  The fold is the exact
        multiply-accumulate sequence of :meth:`finalize`'s weighted
        branch (acceptance order, zero weights contribute the identity),
        so merging shard partials reassociates — never changes — the
        single server's group sum.

        Returns ``(masked partial, total |w|)``; pure read, callable at
        most once per epoch's finalize path but safe to recompute.
        """
        group = self.codec.group
        masked = group.zeros(self.tsa.vector_length)
        tmp = np.empty(self.tsa.vector_length, dtype=group.dtype)
        total_w = 0
        for sub in self._accepted:
            w = weights.get(sub.leg_index, 0)
            if w:
                group.mac_into(masked, sub.masked_update, w, tmp)
                total_w += abs(w)
        return masked, total_w

    # -- steps 7–8: unmask and decode ----------------------------------------

    def finalize(
        self, weights: dict[int, int] | None = None, max_abs: float = 1.0
    ) -> np.ndarray:
        """Request the unmask and return the aggregated *real* update sum.

        Parameters
        ----------
        weights:
            Optional per-leg integer weights.  When given, the server
            scales each masked update accordingly and asks the TSA for the
            identically weighted mask sum, so it learns only the weighted
            aggregate ``Σ w_i v_i``.
        max_abs:
            A priori bound on each real update's magnitude, used for the
            fixed-point overflow soundness check.

        Raises
        ------
        ProtocolError
            Propagated from the TSA when below threshold or already
            released.
        """
        if self._finalized:
            raise ProtocolError("aggregation already finalized")
        group = self.codec.group
        if weights is None:
            masked = self._masked_sum
            if self._block_accepted:
                # Deferred block folds: one in-place pass per retained
                # masked vector, no allocation.
                masked = masked.copy()
                for sub in self._block_accepted:
                    group.add_into(masked, sub.masked_update)
            unmask = self.tsa.release_unmask()
            summands = len(self._accepted)
            bound = max_abs
        else:
            # One allocation-free multiply-accumulate per weighted
            # submission — bit-identical to the sequential
            # scale-then-add folds, zero weights contribute the identity.
            masked = group.zeros(self.tsa.vector_length)
            tmp = np.empty(self.tsa.vector_length, dtype=group.dtype)
            total_w = 0
            for sub in self._accepted:
                w = weights.get(sub.leg_index, 0)
                if w:
                    group.mac_into(masked, sub.masked_update, w, tmp)
                    total_w += abs(w)
            unmask = self.tsa.release_unmask(
                {k: v for k, v in weights.items() if v}
            )
            summands = max(total_w, 1)
            bound = max_abs
        self._finalized = True
        encoded_sum = group.sub(masked, unmask)
        return self.codec.decode_sum(encoded_sum, summands, bound)
