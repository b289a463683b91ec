"""Asynchronous Secure Aggregation (paper Section 5, Appendices A–D).

Additive masking over a finite Abelian group (a PRNG-expanded seed added
to each update, paper Figure 14), Diffie–Hellman channels between clients
and a Trusted Secure Aggregator (simulated TEE), remote attestation, a
verifiable (Merkle) log whose inclusion proofs clients check before
trusting a TSA binary, and fixed-point conversion between real model
updates and group elements.
"""

from repro.secagg.attestation import (
    AttestationError,
    Quote,
    SigningAuthority,
    hash_binary,
    hash_params,
)
from repro.secagg.client import ClientSubmission, LogBundle, SecAggClient
from repro.secagg.dh import DH_GENERATOR, DH_PRIME, DHKeyPair, shared_key
from repro.secagg.fixedpoint import (
    FixedPointCodec,
    FixedPointOverflowError,
    recommend_codec,
)
from repro.secagg.groups import PowerOfTwoGroup
from repro.secagg.merkle import (
    VerifiableLog,
    leaf_hash,
    node_hash,
    verify_consistency,
    verify_inclusion,
)
from repro.secagg.prng import SEED_BYTES, expand_mask, expand_mask_block, generate_seed
from repro.secagg.protocol import (
    BoundaryCostModel,
    SecAggDeployment,
    build_deployment,
    run_secure_aggregation,
)
from repro.secagg.sealed import SealedBox, SealError, open_sealed, seal
from repro.secagg.server import LegPool, SecAggServer
from repro.secagg.tsa import KeyExchangeLeg, ProtocolError, TrustedSecureAggregator

__all__ = [
    "AttestationError",
    "Quote",
    "SigningAuthority",
    "hash_binary",
    "hash_params",
    "ClientSubmission",
    "LogBundle",
    "SecAggClient",
    "DH_GENERATOR",
    "DH_PRIME",
    "DHKeyPair",
    "shared_key",
    "FixedPointCodec",
    "FixedPointOverflowError",
    "recommend_codec",
    "PowerOfTwoGroup",
    "VerifiableLog",
    "leaf_hash",
    "node_hash",
    "verify_consistency",
    "verify_inclusion",
    "SEED_BYTES",
    "expand_mask",
    "expand_mask_block",
    "generate_seed",
    "BoundaryCostModel",
    "SecAggDeployment",
    "build_deployment",
    "run_secure_aggregation",
    "SealedBox",
    "SealError",
    "open_sealed",
    "seal",
    "LegPool",
    "SecAggServer",
    "KeyExchangeLeg",
    "ProtocolError",
    "TrustedSecureAggregator",
]
