"""Deterministic, hierarchical random-number streams.

Every stochastic component in the reproduction (device population, data
generation, client training, dropout injection, secure-aggregation seeds)
draws from an independent, seeded stream so that experiments are exactly
repeatable and components can be re-seeded in isolation.

Derivation.  ``child_rng(seed, *labels)`` is, stream for stream,
``np.random.default_rng(np.random.SeedSequence((seed mod 2**64, h)))``
where ``h = stable_hash64(*labels)`` is the first 8 bytes of a SHA-256
over the labels' ``repr``: the two entropy integers are mixed into a
SeedSequence's 4-word pool, the pool is hashed into four 64-bit words and
those seed a ``PCG64``.  Nothing is spawned; distinct label paths are
independent because their entropy differs, so ``child_rng(seed,
"population")`` and ``child_rng(seed, "data", 42)`` never collide
regardless of call order.

The simulator derives a stream for every check-in, session and
participation (~10^5 per fleet run), so the same words are computed more
cheaply than that formula does: the SHA-256 state after the first label
(a string literal at every call site) is memoised and copied; the
SeedSequence is built from the ``uint32`` entropy words directly; and
its output hash (``generate_state``, which runs under a per-call
``np.errstate`` wrapper in numpy) is evaluated here in Python and handed
to ``PCG64`` through an :class:`~numpy.random.bit_generator.ISeedSequence`.
The streams are pinned by NEP 19 (numpy keeps SeedSequence and PCG64
stable across versions) and by the known-answer and reference-formula
tests in ``tests/test_utils_rng.py``.  A consequence: a child's
``bit_generator.seed_seq`` holds only the four seed words and cannot be
spawned.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

__all__ = ["child_rng", "stable_hash64"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: SHA-256 states after one leading string label, keyed by that label
_HEADS: dict[str, "hashlib._Hash"] = {}
_MAX_HEADS = 1024


def _encode(parts: tuple) -> bytes:
    return "".join([f"{part!r}\x00" for part in parts]).encode("utf-8")


def stable_hash64(*parts: object) -> int:
    """Hash arbitrary labels to a stable 64-bit integer.

    Python's builtin ``hash`` is salted per process, which would break
    run-to-run determinism, so we hash the ``repr`` of each part (each
    followed by a NUL byte) with SHA-256 instead.
    """
    if parts and type(parts[0]) is str:
        head = _HEADS.get(parts[0])
        if head is None:
            head = hashlib.sha256(_encode(parts[:1]))
            if len(_HEADS) < _MAX_HEADS:
                _HEADS[parts[0]] = head
        h = head.copy()
        if len(parts) > 1:
            h.update(_encode(parts[1:]))
    else:
        h = hashlib.sha256(_encode(parts))
    return int.from_bytes(h.digest()[:8], "little")


def _output_constants() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """SeedSequence's output-hash constants for 8 words: the hash constant
    before (``xor``) and after (``mult``) each step.  They do not depend
    on the pool, so they are computed once."""
    xor, mult, k = [], [], 0x8B51F9DD  # INIT_B
    for _ in range(8):
        xor.append(k)
        k = (k * 0x58F38DED) & _MASK32  # MULT_B
        mult.append(k)
    return tuple(xor), tuple(mult)


(_X0, _X1, _X2, _X3, _X4, _X5, _X6, _X7), (
    _K0, _K1, _K2, _K3, _K4, _K5, _K6, _K7,
) = _output_constants()


class _SeedWords(ISeedSequence):
    """The four 64-bit words ``SeedSequence.generate_state(4, uint64)``
    would return, computed ahead of time for ``PCG64``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("only PCG64's four uint64 seed words are held")
        return self.words


def _pcg64_words(pool: list[int]) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` for a 4-word pool."""
    p0, p1, p2, p3 = pool
    a = ((p0 ^ _X0) * _K0) & _MASK32
    b = ((p1 ^ _X1) * _K1) & _MASK32
    c = ((p2 ^ _X2) * _K2) & _MASK32
    d = ((p3 ^ _X3) * _K3) & _MASK32
    e = ((p0 ^ _X4) * _K4) & _MASK32
    f = ((p1 ^ _X5) * _K5) & _MASK32
    g = ((p2 ^ _X6) * _K6) & _MASK32
    h = ((p3 ^ _X7) * _K7) & _MASK32
    return np.array(
        [
            (a ^ a >> 16) | (b ^ b >> 16) << 32,
            (c ^ c >> 16) | (d ^ d >> 16) << 32,
            (e ^ e >> 16) | (f ^ f >> 16) << 32,
            (g ^ g >> 16) | (h ^ h >> 16) << 32,
        ],
        dtype=np.uint64,
    )


def _entropy_words(seed: int, h: int) -> list[int]:
    """The ``uint32`` words SeedSequence coerces ``(seed, h)`` to: each
    integer little-endian, as many words as it needs (``0`` is one)."""
    words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    if h >> 32:
        words += (h & _MASK32, h >> 32)
    else:
        words.append(h)
    return words


def child_rng(seed: int, *labels: object) -> np.random.Generator:
    """Derive an independent generator from ``seed`` and a label path.

    The same ``(seed, labels)`` pair always yields the same stream, and
    distinct label paths yield streams that are independent to the quality
    of PCG64 streams seeded from distinct SeedSequence entropy.

    Examples
    --------
    >>> r1 = child_rng(0, "population")
    >>> r2 = child_rng(0, "population")
    >>> float(r1.random()) == float(r2.random())
    True
    """
    words = _entropy_words(seed & _MASK64, stable_hash64(*labels))
    pool = SeedSequence(np.array(words, dtype=np.uint32)).pool.tolist()
    return Generator(PCG64(_SeedWords(_pcg64_words(pool))))
