"""The Trusted Secure Aggregator — the protocol's trusted party.

In production this code runs inside an Intel SGX enclave (Appendix C);
here it is an in-process object whose *interface boundary* is explicit:
everything that crosses into it is metered (``boundary_bytes_in/out``), so
the Figure 6 boundary-traffic claim — ``O(K + m)`` for Asynchronous
SecAgg versus ``O(K·m)`` for naive TEE aggregation — is measured, not
assumed.

Responsibilities (Figure 16, trusted-party legs):

* mint ``N > n`` Diffie–Hellman key-exchange legs up front, each carried
  by an attestation quote binding the DH initial message to the enclave
  binary and the public protocol parameters (step 1);
* per client: recover the mask seed from the sealed box (rejecting any
  tampering), regenerate the mask, and fold it into a running sum — then
  never process that leg again (step 6);
* release the unmasking vector exactly once per round, and only if at
  least the threshold ``t`` of clients contributed (step 7), ignoring all
  further messages afterwards.

The data plane is vectorized: :meth:`process_client_block` authenticates
K submissions, expands their masks as one contiguous block
(:func:`repro.secagg.prng.expand_mask_block`) and folds them with a
single fused reduction; the weighted release computes ``Σ w_i·m_i`` as
one batched expansion plus one fused weighted reduction (or straight from
the cached mask rows).  Every vectorized path is bit-identical to the
sequential scalar protocol — group arithmetic mod 2^bits is exact under
machine wraparound, so reassociating the folds changes no output bit.

Two control-plane amortizations keep the expensive 2048-bit modexps off
the per-epoch aggregation path: :meth:`complete_leg` lets the server
forward a client's DH completing message at *check-in* time (the channel
key is derived once and cached until the leg is consumed), and
:meth:`begin_round` re-keys the aggregator for the next buffer epoch
without re-minting legs or re-standing-up the attestation state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.secagg.attestation import Quote, SigningAuthority, hash_binary, hash_params
from repro.secagg.dh import DHKeyPair, shared_key
from repro.secagg.groups import PowerOfTwoGroup
from repro.secagg.prng import SEED_BYTES, expand_mask, expand_mask_block
from repro.secagg.sealed import SealedBox, SealError, open_sealed

__all__ = [
    "KeyExchangeLeg",
    "ProtocolError",
    "TrustedSecureAggregator",
    "TrustedShardReducer",
]


class ProtocolError(RuntimeError):
    """A party violated the protocol state machine."""


@dataclass(frozen=True)
class KeyExchangeLeg:
    """One pre-minted DH leg: index + quote covering the initial message.

    The DH initial message (the TSA's public value) travels as the quote
    payload so the untrusted server cannot substitute its own key — doing
    so would break the quote signature.
    """

    index: int
    quote: Quote

    @property
    def initial_message(self) -> int:
        """The TSA's DH public value for this leg."""
        return int.from_bytes(self.quote.payload, "big")


class TrustedSecureAggregator:
    """The trusted party of Figure 16, with an explicit metered boundary.

    Parameters
    ----------
    group:
        The finite Abelian group G (public parameter).
    vector_length:
        ℓ — elements per client update (public parameter).
    threshold:
        t — minimum clients aggregated before the unmask may be released
        (public parameter).
    authority:
        Root of trust used to sign attestation quotes.
    trusted_binary:
        The "code of the trusted party" — hashed into every quote; in the
        simulation an arbitrary byte string published ahead of time.
    rng:
        Randomness stream for DH key generation.
    cache_masks:
        When True (default), masks recovered by the *block* data plane are
        kept as rows of a contiguous cache for the lifetime of the round,
        so a weighted release is a single fused reduction with no second
        seed expansion.  When False only the 16-byte seeds are retained
        (the memory-lean TEE configuration) and the weighted release
        re-expands them as one batched expansion.  Either way the released
        vector is bit-identical.
    """

    def __init__(
        self,
        group: PowerOfTwoGroup,
        vector_length: int,
        threshold: int,
        authority: SigningAuthority,
        trusted_binary: bytes = b"papaya-tsa-v1",
        rng: np.random.Generator | None = None,
        cache_masks: bool = True,
    ):
        if vector_length < 1:
            raise ValueError("vector_length must be at least 1")
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self.group = group
        self.vector_length = vector_length
        self.threshold = threshold
        self._authority = authority
        self.binary_hash = hash_binary(trusted_binary)
        self.params_hash = hash_params(
            group_bits=group.bits, vector_length=vector_length, threshold=threshold
        )
        self._rng = rng if rng is not None else np.random.default_rng()

        self._legs: dict[int, DHKeyPair] = {}  # private halves, enclave-only
        self._used: set[int] = set()
        self._channel_keys: dict[int, bytes] = {}  # check-in-completed legs
        self._cache_masks = cache_masks
        # Mask-row cache: a growing (capacity, l) buffer whose first
        # _row_count rows are this round's block-recovered masks; the
        # capacity is retained across rounds so steady-state epochs never
        # reallocate a cohort-sized buffer.
        self._rows: np.ndarray | None = None
        self._row_count = 0
        self._row_legs: list[int] = []
        # Cached-row ranges not yet folded into _mask_sum (block-path
        # contributions defer the fold: a weighted release never needs
        # it, an unweighted release folds them all in one reduction).
        self._pending_fold: list[tuple[int, int]] = []
        self._mask_sum = group.zeros(vector_length)
        self._seeds: dict[int, bytes] = {}  # per-leg seeds (for weighted release)
        self._processed = 0
        self._released = False
        self.round_index = 0

        self.boundary_bytes_in = 0
        self.boundary_bytes_out = 0

    # -- step 1: mint key-exchange legs ---------------------------------------

    def prepare_legs(self, count: int) -> list[KeyExchangeLeg]:
        """Mint ``count`` fresh DH legs with attestation quotes.

        The paper has the trusted party run "N (N > n) DH key exchange
        protocol instances" before clients arrive; calling this again
        mints additional legs with new indices (elastic supply).  Legs
        survive :meth:`begin_round` — minting is control-plane work the
        leg pool amortizes across buffer epochs.
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        if self._released:
            raise ProtocolError("TSA already released its unmask; it is finished")
        legs = []
        for _ in range(count):
            index = len(self._legs)
            pair = DHKeyPair.generate(self._rng)
            payload = pair.public.to_bytes(256, "big")
            quote = self._authority.issue(self.binary_hash, self.params_hash, payload)
            self._legs[index] = pair
            legs.append(KeyExchangeLeg(index=index, quote=quote))
            self.boundary_bytes_out += len(payload) + len(quote.signature) + 64
        return legs

    # -- control plane: check-in-time DH completion --------------------------------

    def complete_leg(self, leg_index: int, completing_message: int) -> bool:
        """Derive and cache a leg's channel key from the completing message.

        The DH completion is the expensive modexp of the per-client path;
        forwarding it when the client *checks in* (rather than when its
        masked update arrives) moves that cost off the aggregation data
        plane.  Only the first completing message for a leg is honoured —
        a second attempt returns False and the cached key stands, matching
        the paper's "the trusted party will not process any further
        completing messages to the i'th initial message".

        The completing message crosses the boundary here (256 bytes), so
        a later :meth:`process_client` for the same leg meters only the
        sealed seed — total boundary traffic per client is unchanged.
        """
        self.boundary_bytes_in += 256
        if self._released:
            return False
        if leg_index not in self._legs or leg_index in self._used:
            return False
        if leg_index in self._channel_keys:
            return False
        try:
            self._channel_keys[leg_index] = shared_key(
                self._legs[leg_index].private, completing_message
            )
        except ValueError:
            return False
        return True

    def _resolve_key(self, leg_index: int, completing_message: int) -> bytes | None:
        """Channel key for a leg: cached from check-in, or derived now."""
        key = self._channel_keys.get(leg_index)
        if key is not None:
            return key
        try:
            return shared_key(self._legs[leg_index].private, completing_message)
        except ValueError:
            return None

    # -- step 6: per-client seed recovery ----------------------------------------

    def _admit(
        self, leg_index: int, completing_message: int, sealed_seed: SealedBox
    ) -> bytes | None:
        """Authenticate one submission; returns the recovered seed or None.

        Meters the boundary crossing and, on acceptance, marks the leg
        used and records its seed — the shared state machine of the
        scalar and block paths.
        """
        self.boundary_bytes_in += (
            (0 if leg_index in self._channel_keys else 256)
            + len(sealed_seed.ciphertext)
            + len(sealed_seed.tag)
            + 8
        )
        if self._released:
            return None  # "The trusted party ignores any further messages"
        if leg_index not in self._legs or leg_index in self._used:
            return None
        key = self._resolve_key(leg_index, completing_message)
        if key is None:
            return None
        try:
            seed = open_sealed(key, sealed_seed)
        except SealError:
            return None  # tampered in transit — exactly what the MAC is for
        if len(seed) != SEED_BYTES:
            return None
        # Mark the leg used *before* aggregating: no second completing
        # message for this initial message will ever be processed.
        self._used.add(leg_index)
        self._channel_keys.pop(leg_index, None)
        self._seeds[leg_index] = seed
        return seed

    def process_client(
        self, leg_index: int, completing_message: int, sealed_seed: SealedBox
    ) -> bool:
        """Recover one client's mask seed and fold its mask into the sum.

        Returns True when the contribution was accepted.  Rejections
        (unknown leg, reused leg, failed authentication, wrong seed size)
        return False — the paper's trusted party silently "ignores the
        update"; the boolean lets the untrusted server keep its masked sum
        consistent with the mask sum.

        This is the scalar per-arrival path: one seed expands and folds
        at a time, exactly as the pre-vectorization protocol did (the
        ``secagg`` sweep times it as the baseline).  With ``cache_masks``
        the expanded mask is additionally parked in the row cache so the
        weighted release still needs no re-expansion.
        """
        seed = self._admit(leg_index, completing_message, sealed_seed)
        if seed is None:
            return False
        if self._cache_masks:
            mask = self._expand_into_rows([leg_index], [seed])[0]
        else:
            mask = expand_mask(seed, self.vector_length, self.group)
        self.group.add_into(self._mask_sum, mask)
        self._processed += 1
        return True

    def process_client_block(
        self, requests: list[tuple[int, int, SealedBox]]
    ) -> list[bool]:
        """Recover K clients' seeds and fold their masks as one block.

        ``requests`` is a sequence of ``(leg_index, completing_message,
        sealed_seed)`` triples.  Semantically identical to calling
        :meth:`process_client` once per triple, in order — including
        per-submission rejection (a duplicate leg inside the block is
        rejected on its second appearance, exactly as sequentially) and
        boundary metering — but the accepted seeds expand into one
        contiguous mask block folded with a single fused reduction.
        """
        flags = [False] * len(requests)
        legs: list[int] = []
        seeds: list[bytes] = []
        for j, (leg_index, completing_message, sealed_seed) in enumerate(requests):
            seed = self._admit(leg_index, completing_message, sealed_seed)
            if seed is None:
                continue
            legs.append(leg_index)
            seeds.append(seed)
            flags[j] = True
        if seeds:
            self._fold_masks(legs, seeds)
            self._processed += len(seeds)
        return flags

    def _reserve_rows(self, k: int) -> None:
        """Ensure the row cache can take ``k`` more rows (capacity is
        retained across rounds, so steady-state epochs never reallocate)."""
        need = self._row_count + k
        if self._rows is None or self._rows.shape[0] < need:
            capacity = max(
                need, 2 * (0 if self._rows is None else self._rows.shape[0]), 8
            )
            grown = np.empty((capacity, self.vector_length), dtype=self.group.dtype)
            if self._row_count:
                grown[: self._row_count] = self._rows[: self._row_count]
            self._rows = grown

    def _expand_into_rows(self, legs: list[int], seeds: list[bytes]) -> np.ndarray:
        """Expand seeds straight into the next free cache rows; returns them."""
        k = len(seeds)
        self._reserve_rows(k)
        rows = expand_mask_block(
            seeds,
            self.vector_length,
            self.group,
            out=self._rows[self._row_count : self._row_count + k],
        )
        self._row_legs.extend(legs)
        self._row_count += k
        return rows

    def _fold_masks(self, legs: list[int], seeds: list[bytes]) -> None:
        """Expand accepted seeds as one block and fold it into the mask sum.

        With ``cache_masks`` the expansion lands directly in the row
        cache (retained until release so the weighted unmask needs no
        second expansion); otherwise a throwaway block is expanded.  The
        running sum is always maintained eagerly, so the unweighted
        release is a copy regardless of configuration.
        """
        if self._cache_masks:
            start = self._row_count
            self._expand_into_rows(legs, seeds)
            self._pending_fold.append((start, self._row_count))
        else:
            block = expand_mask_block(seeds, self.vector_length, self.group)
            self.group.add_into(self._mask_sum, self.group.sum_block(block))

    # -- step 7: one-shot unmask release ----------------------------------------

    @property
    def processed_count(self) -> int:
        """Clients whose seeds have been recovered this round."""
        return self._processed

    @property
    def released(self) -> bool:
        """Whether this round's unmasking vector has already been released."""
        return self._released

    def release_unmask(self, weights: dict[int, int] | None = None) -> np.ndarray:
        """Release ``Σ m_i`` (or ``Σ w_i·m_i``) exactly once per round.

        Parameters
        ----------
        weights:
            Optional integer weight per leg index — the weighted-
            aggregation extension used by FedBuff's staleness weighting:
            the server only ever learns the *weighted* aggregate.  Weights
            for legs that were never processed are rejected.

        Raises
        ------
        ProtocolError
            If fewer than ``threshold`` clients contributed, if the
            unmask was already released, or if weights reference unknown
            legs.
        """
        if self._released:
            raise ProtocolError("unmask already released; TSA ignores further requests")
        if self._processed < self.threshold:
            raise ProtocolError(
                f"only {self._processed} clients aggregated; threshold is {self.threshold}"
            )
        if weights is None:
            # Fold any block contributions whose rows were parked lazily.
            for start, stop in self._pending_fold:
                self.group.add_into(
                    self._mask_sum, self.group.sum_block(self._rows[start:stop])
                )
            self._pending_fold = []
            out = self._mask_sum.copy()
        else:
            unknown = set(weights) - set(self._seeds)
            if unknown:
                raise ProtocolError(f"weights reference unprocessed legs {sorted(unknown)}")
            out = self._weighted_mask_sum(weights)
        self._released = True
        self.boundary_bytes_out += out.nbytes
        return out

    def _weighted_mask_sum(self, weights: dict[int, int]) -> np.ndarray:
        """``Σ w_i·m_i`` via fused reductions (cached rows and/or one
        batched re-expansion) — bit-identical to the sequential
        expand-scale-add loop of the scalar protocol."""
        out = self.group.zeros(self.vector_length)
        cached = set(self._row_legs)
        if self._row_count:
            row_weights = [weights.get(leg, 0) for leg in self._row_legs]
            if any(row_weights):
                self.group.add_into(
                    out,
                    self.group.weighted_sum_block(
                        self._rows[: self._row_count], row_weights
                    ),
                )
        missing = [leg for leg in weights if leg not in cached and weights[leg]]
        if missing:
            block = expand_mask_block(
                [self._seeds[leg] for leg in missing], self.vector_length, self.group
            )
            self.group.add_into(
                out,
                self.group.weighted_sum_block(
                    block, [weights[leg] for leg in missing]
                ),
            )
        return out

    def release_unmask_partial(self, weights: dict[int, int]) -> np.ndarray:
        """Release ``Σ w_i·m_i`` to a :class:`TrustedShardReducer`.

        The hierarchical variant of :meth:`release_unmask`: a shard-local
        TSA hands its weighted mask sum to the *root reducer* of the same
        trust domain, which merges the shard partials and performs the
        single release that actually crosses the boundary.  Consequently
        this path

        * skips the local threshold check — no shard sees ``t`` clients
          on its own; the reducer enforces the *global* threshold over
          the summed processed counts before anything crosses the
          boundary;
        * meters nothing — the partial never leaves the trust domain
          (the reducer meters the one merged vector that does);
        * still burns the one-shot release latch: after contributing a
          partial this TSA ignores all further messages until
          :meth:`begin_round`, exactly as after a direct release.
        """
        if self._released:
            raise ProtocolError("unmask already released; TSA ignores further requests")
        unknown = set(weights) - set(self._seeds)
        if unknown:
            raise ProtocolError(f"weights reference unprocessed legs {sorted(unknown)}")
        out = self._weighted_mask_sum(weights)
        self._released = True
        return out

    # -- round management ------------------------------------------------------

    def begin_round(self) -> None:
        """Re-key the aggregator for the next buffer epoch.

        Resets everything round-scoped — the running mask sum, recovered
        seeds, cached mask rows, the processed count and the one-shot
        release latch — while keeping the minted legs (used ones stay
        burned forever), cached check-in channel keys, the attestation
        identity, the row-cache capacity, and the cumulative boundary
        meters.  This is what lets one trusted party serve a long
        sequence of FedBuff epochs without re-standing-up authority, log,
        or key-exchange supply.
        """
        self._mask_sum = self.group.zeros(self.vector_length)
        self._seeds = {}
        self._row_count = 0
        self._row_legs = []
        self._pending_fold = []
        self._processed = 0
        self._released = False
        self.round_index += 1


class TrustedShardReducer:
    """Root of the hierarchical trust domain (Section 6.3 × Figure 16).

    When secure aggregation is sharded, each shard runs its own
    :class:`TrustedSecureAggregator` over its arrival slice, and this
    reducer — conceptually the root enclave of the same trust domain —
    combines the shard-local weighted mask sums into the *one* unmask
    vector that crosses the boundary per buffer epoch:

    * it enforces the **global** threshold: the summed processed counts
      of the participating shards must reach ``t`` before any partial is
      released (no shard-local count can, or needs to, reach ``t``);
    * it takes each shard's partial
      (:meth:`TrustedSecureAggregator.release_unmask_partial`, handed
      over inside the trust domain) and merges them in **deterministic
      ascending-shard order** — group math mod
      2^bits is exact under wraparound, so the merged vector is
      bit-identical to the single TSA's weighted release for the same
      clients and weights, for any shard count and any routing;
    * it meters exactly one boundary crossing (``merged.nbytes`` out),
      matching the single plane's release traffic byte for byte, and is
      one-shot per round like the TSAs it fronts.
    """

    def __init__(self, group: PowerOfTwoGroup, vector_length: int, threshold: int):
        if vector_length < 1:
            raise ValueError("vector_length must be at least 1")
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self.group = group
        self.vector_length = vector_length
        self.threshold = threshold
        self._released = False
        self.round_index = 0
        self.boundary_bytes_out = 0

    @property
    def released(self) -> bool:
        """Whether this round's merged unmask has already been released."""
        return self._released

    def merge_released_partials(
        self, partials: list[tuple[int, np.ndarray]], processed: int
    ) -> np.ndarray:
        """Merge the shards' partial unmasks and release the result exactly once.

        Each shard's TSA — in this process or on its own worker — hands
        over its partial unmask as a raw group row; nothing crosses the
        trust boundary until this one merged release.  A caller handing
        shards out of order is a protocol violation, not something to
        silently fix: the deterministic ascending merge order is part of
        the equivalence contract.  The **global** threshold is enforced
        over the summed processed counts the shards attest.

        Raises :class:`ProtocolError` if already released this round, if
        the shard ids are not strictly ascending, or if ``processed``
        falls short of the threshold.

        Parameters
        ----------
        partials:
            ``(shard_id, partial_unmask)`` pairs in strictly ascending
            ``shard_id`` order.
        processed:
            Total clients processed across the participating shards this
            round.
        """
        if self._released:
            raise ProtocolError(
                "merged unmask already released; reducer ignores further requests"
            )
        ids = [sid for sid, _ in partials]
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ProtocolError(
                f"shard partials must arrive in ascending shard order, got {ids}"
            )
        if processed < self.threshold:
            raise ProtocolError(
                f"only {processed} clients aggregated across shards; "
                f"threshold is {self.threshold}"
            )
        merged = self.group.zeros(self.vector_length)
        for _, partial in partials:
            self.group.add_into(merged, partial)
        self._released = True
        self.boundary_bytes_out += merged.nbytes
        return merged

    def begin_round(self) -> None:
        """Re-arm the one-shot release for the next buffer epoch."""
        self._released = False
        self.round_index += 1
