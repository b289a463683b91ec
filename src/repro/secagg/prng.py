"""Seed-to-mask expansion: a 16-byte seed becomes a model-sized pad.

This is the trick that makes the paper's Asynchronous SecAgg scale
(Section 5): "The random seed, usually 16 bytes shared between each client
and the TSA, allows the two parties to share an as-large-as-the-model mask
at a constant cost."  Client and trusted party run the same expansion, so
only the seed ever crosses the TEE boundary.

The expansion uses the Philox 4x64 counter-based generator keyed by the
seed — deterministic, platform-stable, and independent streams for
distinct seeds (a production system would use AES-CTR or ChaCha20; Philox
is the same counter-mode construction with a non-cryptographic round
function, which preserves every protocol behaviour we measure).
"""

from __future__ import annotations

import secrets

import numpy as np

from repro.secagg.groups import PowerOfTwoGroup

__all__ = ["SEED_BYTES", "generate_seed", "expand_mask", "expand_mask_block"]

SEED_BYTES = 16  # the paper's "usually 16 bytes"


def generate_seed(rng: np.random.Generator | None = None) -> bytes:
    """Draw a fresh random mask seed.

    With ``rng`` the draw is deterministic (simulations/tests); without,
    it uses the OS CSPRNG as a real client would.
    """
    if rng is None:
        return secrets.token_bytes(SEED_BYTES)
    return bytes(rng.integers(0, 256, size=SEED_BYTES, dtype=np.uint8).tobytes())


def _mask_row(seed: bytes, length: int, group: PowerOfTwoGroup) -> np.ndarray:
    """One validated seed's pad — the row kernel of both entry points."""
    key = int.from_bytes(seed, "little")
    return group.random(np.random.Generator(np.random.Philox(key=key)), length)


def expand_mask(seed: bytes, length: int, group: PowerOfTwoGroup) -> np.ndarray:
    """Expand a seed into a uniformly random group vector of ``length``.

    The same ``(seed, length, group)`` always produces the same mask —
    this determinism is the entire correctness basis of the protocol: the
    TSA regenerates exactly the pad the client applied.
    """
    if len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
    if length < 0:
        raise ValueError("length must be non-negative")
    return _mask_row(seed, length, group)


def expand_mask_block(
    seeds,
    length: int,
    group: PowerOfTwoGroup,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Expand K seeds into a stacked ``(K, length)`` mask block.

    Row ``i`` is ``expand_mask(seeds[i], length, group)`` — the same row
    kernel, each seed keying its own Philox stream — materialized into
    one contiguous buffer that the server/TSA data plane can fold with
    single fused reductions.

    Parameters
    ----------
    seeds:
        Sequence of ``SEED_BYTES``-byte seeds.
    length:
        Elements per mask.
    group:
        Target group (fixes the output dtype).
    out:
        Optional preallocated ``(K, length)`` buffer of the group dtype
        (may be a view into a larger row cache); reusing it across calls
        avoids re-paging a model-sized allocation per block.
    """
    seeds = list(seeds)
    if length < 0:
        raise ValueError("length must be non-negative")
    for seed in seeds:
        if len(seed) != SEED_BYTES:
            raise ValueError(
                f"seed must be {SEED_BYTES} bytes, got {len(seed)}"
            )
    k = len(seeds)
    if out is None:
        out = np.empty((k, length), dtype=group.dtype)
    elif out.shape != (k, length) or out.dtype != group.dtype:
        raise ValueError(
            f"out must be a ({k}, {length}) array of {group.dtype}, "
            f"got shape {out.shape} dtype {out.dtype}"
        )
    for i, seed in enumerate(seeds):
        out[i] = _mask_row(seed, length, group)
    return out
