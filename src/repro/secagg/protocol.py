"""End-to-end Asynchronous SecAgg orchestration + boundary cost model.

Two things live here:

* :func:`run_secure_aggregation` — a reference end-to-end execution of the
  Figure 16 protocol (authority → TSA → server → clients → unmask) used by
  the quickstart example, the integration tests, and the system layer.
  Every client is submitted on arrival through ``SecAggServer.submit``,
  the protocol's one submission path, and the round is released once.
* :class:`BoundaryCostModel` — the host↔TEE data-transfer time model
  behind Figure 6, calibrated to the paper's measurement ("nearly 650
  milliseconds for 100 clients, each with a 20 MB model" for naive TEE
  aggregation, which transfers ``O(K·m)``; Asynchronous SecAgg transfers
  ``O(K + m)``: a 16-byte seed per client plus one model-sized unmask).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.secagg.attestation import SigningAuthority
from repro.secagg.client import LogBundle, SecAggClient
from repro.secagg.fixedpoint import FixedPointCodec
from repro.secagg.groups import PowerOfTwoGroup
from repro.secagg.merkle import VerifiableLog
from repro.secagg.prng import SEED_BYTES
from repro.secagg.server import SecAggServer
from repro.secagg.tsa import TrustedSecureAggregator
from repro.utils.rng import child_rng

__all__ = [
    "BoundaryCostModel",
    "SecAggDeployment",
    "build_deployment",
    "run_secure_aggregation",
]


@dataclass(frozen=True)
class BoundaryCostModel:
    """Host↔TEE transfer-time model (Figure 6).

    Attributes
    ----------
    bytes_per_ms:
        Enclave boundary copy bandwidth.  Calibrated so that naive
        aggregation of 100 × 20 MB models takes ≈ 650 ms, matching the
        paper's benchmark.
    per_message_ms:
        Fixed per-crossing overhead (ECALL/OCALL dispatch).
    seed_blob_bytes:
        Bytes per client crossing into the TEE under Asynchronous SecAgg
        (the 16-byte seed; the DH completing message and MAC ride along
        in practice — configurable for the realistic-overhead ablation).
    """

    bytes_per_ms: float = (100 * 20 * 1024 * 1024) / 650.0
    per_message_ms: float = 0.002
    seed_blob_bytes: int = SEED_BYTES

    def naive_transfer_ms(self, aggregation_goal: int, model_bytes: int) -> float:
        """Naive TEE aggregation: every full model crosses the boundary."""
        k = aggregation_goal
        return (k * model_bytes) / self.bytes_per_ms + k * self.per_message_ms

    def async_transfer_ms(self, aggregation_goal: int, model_bytes: int) -> float:
        """Asynchronous SecAgg: K seeds in, one unmask vector out."""
        k = aggregation_goal
        payload = k * self.seed_blob_bytes + model_bytes
        return payload / self.bytes_per_ms + (k + 1) * self.per_message_ms


@dataclass
class SecAggDeployment:
    """All parties of one protocol instance, wired together."""

    authority: SigningAuthority
    tsa: TrustedSecureAggregator
    server: SecAggServer
    codec: FixedPointCodec
    log: VerifiableLog
    log_bundle: LogBundle


def build_deployment(
    vector_length: int,
    threshold: int,
    group_bits: int = 32,
    scale: float = 2**16,
    clip_value: float | None = 1.0,
    seed: int = 0,
    trusted_binary: bytes = b"papaya-tsa-v1",
) -> SecAggDeployment:
    """Stand up authority, verifiable log, TSA and server for one run."""
    group = PowerOfTwoGroup(group_bits)
    codec = FixedPointCodec(group, scale=scale, clip_value=clip_value)
    authority = SigningAuthority()
    tsa = TrustedSecureAggregator(
        group,
        vector_length,
        threshold,
        authority,
        trusted_binary=trusted_binary,
        rng=child_rng(seed, "tsa-dh"),
    )
    # Appendix C.2: the binary's identity and manifest are appended to the
    # verifiable log before release; clients get an inclusion proof.
    log = VerifiableLog()
    entry = b"manifest|" + tsa.binary_hash
    index = log.append(entry)
    bundle = LogBundle(
        entry=entry,
        index=index,
        size=log.size,
        root=log.root(),
        proof=log.inclusion_proof(index),
    )
    server = SecAggServer(tsa, codec, initial_legs=max(4, threshold))
    return SecAggDeployment(
        authority=authority,
        tsa=tsa,
        server=server,
        codec=codec,
        log=log,
        log_bundle=bundle,
    )


def run_secure_aggregation(
    updates: list[np.ndarray],
    threshold: int | None = None,
    weights: list[int] | None = None,
    group_bits: int = 32,
    scale: float = 2**16,
    clip_value: float | None = 1.0,
    seed: int = 0,
) -> tuple[np.ndarray, SecAggDeployment]:
    """Run the full Figure 16 protocol over the given client updates.

    Parameters
    ----------
    updates:
        One real-valued vector per client (all the same length).
    threshold:
        Minimum contributions before unmasking (default: all clients).
    weights:
        Optional integer aggregation weights, one per client; when given
        the result is ``Σ w_i v_i`` via the weighted-unmask extension.
    group_bits, scale, clip_value, seed:
        Protocol public parameters / determinism control.

    Returns
    -------
    aggregate:
        The decoded (weighted) sum of the updates.
    deployment:
        The parties, for inspecting boundary costs and transcripts.
    """
    if not updates:
        raise ValueError("need at least one update")
    length = len(updates[0])
    if any(len(u) != length for u in updates):
        raise ValueError("all updates must have the same length")
    if weights is not None and len(weights) != len(updates):
        raise ValueError("need one weight per update")
    t = len(updates) if threshold is None else threshold

    dep = build_deployment(
        length, t, group_bits=group_bits, scale=scale, clip_value=clip_value, seed=seed
    )
    weight_map: dict[int, int] = {}
    for i, update in enumerate(updates):
        client = SecAggClient(
            client_id=i,
            codec=dep.codec,
            authority=dep.authority,
            expected_binary_hash=dep.tsa.binary_hash,
            expected_params_hash=dep.tsa.params_hash,
            rng=child_rng(seed, "secagg-client", i),
        )
        leg = dep.server.assign_leg()
        submission = client.participate(update, leg, log_bundle=dep.log_bundle)
        if not dep.server.submit(submission):
            raise RuntimeError(f"client {i} submission rejected unexpectedly")
        if weights is not None:
            weight_map[leg.index] = int(weights[i])

    max_abs = clip_value if clip_value is not None else 1.0
    aggregate = dep.server.finalize(
        weights=weight_map if weights is not None else None, max_abs=max_abs
    )
    return aggregate, dep
