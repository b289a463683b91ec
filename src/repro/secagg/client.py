"""Client side of Asynchronous SecAgg (Figure 16 steps 3–4, Figure 19/20).

A participating client:

1. receives a key-exchange leg (DH initial message + attestation quote)
   and the public parameters from the untrusted server;
2. **verifies the quote**: signature against the root of trust, binary
   measurement against the published hash, parameter hash against the
   server-claimed parameters — and, when a verifiable log is in use, the
   inclusion proof that the binary is logged (Figure 20);  aborting on
   any failure, exactly as the paper requires;
3. completes the DH exchange, obtaining the channel key shared with the
   TSA;
4. picks a random 16-byte seed, expands it into a model-sized mask,
   uploads ``v + m`` (fixed-point encoded) toward the server and the
   sealed seed toward the TSA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.secagg.attestation import AttestationError, SigningAuthority
from repro.secagg.dh import DHKeyPair, shared_key
from repro.secagg.fixedpoint import FixedPointCodec
from repro.secagg.merkle import verify_inclusion
from repro.secagg.prng import expand_mask, generate_seed
from repro.secagg.sealed import SealedBox, seal
from repro.secagg.tsa import KeyExchangeLeg

__all__ = ["LogBundle", "ClientSubmission", "SecAggClient"]


@dataclass(frozen=True)
class LogBundle:
    """What the server serves for verifiable-log validation (Figure 20).

    Attributes
    ----------
    entry:
        The logged record identifying the trusted binary (its manifest).
    index, size, root:
        Position and snapshot of the log the proof was generated against.
    proof:
        Merkle inclusion proof for ``entry`` at ``index`` in a log of
        ``size`` entries with head ``root``.
    """

    entry: bytes
    index: int
    size: int
    root: bytes
    proof: list[bytes]


@dataclass(frozen=True)
class ClientSubmission:
    """What a participating client uploads.

    ``masked_update`` goes to the untrusted server; ``completing_message``
    and ``sealed_seed`` are forwarded by the server to the TSA.
    """

    client_id: int
    leg_index: int
    masked_update: np.ndarray
    completing_message: int
    sealed_seed: SealedBox
    num_examples: int = 1


class SecAggClient:
    """A client capable of secure participation.

    Parameters
    ----------
    client_id:
        Identifier used by the outer FL protocol.
    codec:
        Fixed-point codec (its group/scale are part of the attested
        public parameters).
    authority:
        Verifier for attestation quotes (the root of trust).
    expected_binary_hash:
        The published hash of the trusted binary ("open sourced in
        advance along with the hash of the trusted binary").
    expected_params_hash:
        Hash of the public protocol parameters the client insists on.
    rng:
        Randomness for the DH key pair and mask seed.
    """

    def __init__(
        self,
        client_id: int,
        codec: FixedPointCodec,
        authority: SigningAuthority,
        expected_binary_hash: bytes,
        expected_params_hash: bytes,
        rng: np.random.Generator,
    ):
        self.client_id = client_id
        self.codec = codec
        self.authority = authority
        self.expected_binary_hash = expected_binary_hash
        self.expected_params_hash = expected_params_hash
        self.rng = rng
        self.last_seed: bytes | None = None  # retained for tests/auditing

    def participate(
        self,
        update: np.ndarray,
        leg: KeyExchangeLeg,
        log_bundle: LogBundle | None = None,
        num_examples: int = 1,
    ) -> ClientSubmission:
        """Validate the TSA and produce the masked submission.

        Raises
        ------
        AttestationError
            If the quote or the verifiable-log inclusion proof fails —
            the client refuses to hand over anything derived from its
            private data.
        """
        # Step 3 (Figure 19): verify quote — signature, binary, parameters.
        self.authority.verify(
            leg.quote, self.expected_binary_hash, self.expected_params_hash
        )
        # Figure 20: validate the inclusion proof when a log is in force.
        if log_bundle is not None:
            ok = verify_inclusion(
                log_bundle.entry,
                log_bundle.index,
                log_bundle.size,
                log_bundle.proof,
                log_bundle.root,
            )
            if not ok:
                raise AttestationError("trusted binary is not in the verifiable log")

        # Complete the DH exchange; derive the channel key with the TSA.
        pair = DHKeyPair.generate(self.rng)
        key = shared_key(pair.private, leg.initial_message)

        # Step 4: random seed -> mask; upload v+m and the sealed seed.
        seed = generate_seed(self.rng)
        self.last_seed = seed
        # ``encode`` hands back a private buffer, so the pad is applied in place.
        masked = self.codec.encode(update)
        group = self.codec.group
        group.add_into(masked, expand_mask(seed, len(masked), group))
        sealed = seal(key, seed, seq=leg.index)
        return ClientSubmission(
            client_id=self.client_id,
            leg_index=leg.index,
            masked_update=masked,
            completing_message=pair.public,
            sealed_seed=sealed,
            num_examples=num_examples,
        )
