"""Diffie–Hellman key exchange between clients and the trusted party.

Appendix A.1: the protocol "consists of an initial message from one party
(server) and a completing message as a response from the other one
(client).  The server can prepare the initial messages in advance, without
knowing the identities of the clients."  That pre-computability is what
lets the TSA mint ``N > n`` key-exchange legs up front so clients can join
asynchronously, one round trip each.

This is real finite-field Diffie–Hellman over the RFC 3526 2048-bit MODP
group (group 14) with short 256-bit exponents and an SHA-256 KDF — the
textbook construction, not a mock.  Key generation raises the *fixed*
generator, so it reads a per-process fixed-base table of public powers;
the variable-base half (:func:`shared_key`) stays a full modexp.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["DH_PRIME", "DH_GENERATOR", "DHKeyPair", "shared_key"]

# RFC 3526, 2048-bit MODP group (id 14).
DH_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
DH_GENERATOR = 2

_EXPONENT_BITS = 256  # short-exponent DH: 2x the 128-bit security target


def _random_exponent(rng: np.random.Generator) -> int:
    """A uniformly random private exponent of ``_EXPONENT_BITS`` bits."""
    words = rng.integers(0, 2**64, size=_EXPONENT_BITS // 64, dtype=np.uint64)
    # First-drawn word is most significant (the historical fold order);
    # the explicit little-endian dtype keeps the bytes platform-stable.
    value = int.from_bytes(words.astype("<u8")[::-1].tobytes(), "little")
    return value | (1 << (_EXPONENT_BITS - 1))  # force full bit length


@functools.cache
def _fixed_base_table() -> tuple[tuple[int, ...], ...]:
    """``table[i][d] = g^(d·256^i) mod p`` for every byte ``d`` of an exponent.

    The generator is fixed, so ``g^x`` is the product of one entry per
    non-zero byte of ``x`` — at most 31 modular multiplications instead of
    the ~300 of a square-and-multiply ``pow``.  Built on the first key
    generation of a process (≈0.1 s, ≈2.5 MB) from public constants only:
    it holds no secret, and every process derives the identical table.
    """
    table = []
    base = DH_GENERATOR
    for _ in range(_EXPONENT_BITS // 8):
        row = [1]
        for _ in range(255):
            row.append(row[-1] * base % DH_PRIME)
        table.append(tuple(row))
        base = row[-1] * base % DH_PRIME
    return tuple(table)


def _generator_power(exponent: int) -> int:
    """``g^exponent mod p`` — table lookups for exponents the table spans."""
    if not 0 <= exponent < 1 << _EXPONENT_BITS:
        return pow(DH_GENERATOR, exponent, DH_PRIME)
    acc = 1
    for row, digit in zip(
        _fixed_base_table(), exponent.to_bytes(_EXPONENT_BITS // 8, "little")
    ):
        if digit:
            acc = acc * row[digit] % DH_PRIME
    return acc


@dataclass(frozen=True)
class DHKeyPair:
    """One party's DH key pair.

    ``public`` is what goes on the wire (the "initial message" when the
    TSA generates it; the "completing message" when a client responds).
    """

    private: int
    public: int

    @classmethod
    def generate(cls, rng: np.random.Generator) -> "DHKeyPair":
        """Generate a key pair from the given randomness stream."""
        priv = _random_exponent(rng)
        return cls(private=priv, public=_generator_power(priv))

    def __repr__(self) -> str:  # never print the private exponent
        return f"DHKeyPair(public={hex(self.public)[:18]}…)"


def shared_key(private: int, peer_public: int) -> bytes:
    """Derive the 32-byte shared channel key: SHA-256(g^{ab} mod p).

    Raises
    ------
    ValueError
        If the peer's public value is outside (1, p-1) — the standard
        small-subgroup / degenerate-key check.
    """
    if not (1 < peer_public < DH_PRIME - 1):
        raise ValueError("invalid DH public value")
    secret = pow(peer_public, private, DH_PRIME)
    return hashlib.sha256(secret.to_bytes((DH_PRIME.bit_length() + 7) // 8, "big")).digest()
