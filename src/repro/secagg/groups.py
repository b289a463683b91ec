"""Finite Abelian groups Z_{2^b} for vectors of masked model updates.

The secure-aggregation protocol (Appendix A.2) operates element-wise over
"any finite Abelian group (e.g. Z_{2^32})".  Powers of two are the natural
choice on binary hardware: addition is machine integer addition and the
modulo reduction is a bitmask, so the protocol's group math is exact and
fast over NumPy unsigned arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PowerOfTwoGroup"]


class PowerOfTwoGroup:
    """The group (Z_{2^bits}, +) acting element-wise on vectors.

    Parameters
    ----------
    bits:
        Group width; 1–64.  Widths ≤ 32 use uint32 storage, wider use
        uint64.  The paper's examples use Z_{2^32}.
    """

    def __init__(self, bits: int = 32):
        if not (1 <= bits <= 64):
            raise ValueError("bits must be in [1, 64]")
        self.bits = bits
        self.dtype = np.dtype(np.uint32) if bits <= 32 else np.dtype(np.uint64)
        self.order = 1 << bits
        # At the storage width machine wraparound *is* the reduction, so
        # every op is its one arithmetic pass and nothing is ever masked.
        self._full_width = bits == self.dtype.itemsize * 8
        # Mask as a NumPy scalar so &-reduction never up-casts to Python int.
        self._mask = self.dtype.type(self.order - 1)

    # -- element construction -----------------------------------------------
    #
    # Aliasing contract: no operation mutates an argument, and every
    # operation returns a freshly allocated array — except ``reduce`` on an
    # array that is already in the group at full storage width (there is
    # nothing to do, so the argument itself comes back) and the ``*_into``
    # operations, which exist to mutate their accumulator.  A caller that
    # keeps a ``reduce`` result must therefore own what it passed in.

    def zeros(self, n: int) -> np.ndarray:
        """The identity vector of length ``n``."""
        return np.zeros(n, dtype=self.dtype)

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        """Map arbitrary unsigned ints into the group (mod 2^bits).

        A group-dtype array of a full-width group is returned as is (see
        the aliasing contract above); anything else is one new array.
        """
        if arr.dtype != self.dtype:
            return self._reduce_inplace(arr.astype(self.dtype))
        return arr if self._full_width else arr & self._mask

    def random(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """A uniformly random group vector (used for one-time-pad masks).

        One draw straight into the group dtype: a power-of-two range is
        never rejected, and at 64 bits ``integers`` returns the bit
        generator's raw words verbatim, so ``random_raw`` is the same
        stream without the bounded-integer wrapper.
        """
        if self.bits == 64:
            return rng.bit_generator.random_raw(n)
        return rng.integers(0, self.order, size=n, dtype=self.dtype)

    # -- group operations ------------------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise group addition with wraparound."""
        self._check(a), self._check(b)
        with np.errstate(over="ignore"):
            return self._reduce_inplace(a + b)

    def neg(self, a: np.ndarray) -> np.ndarray:
        """Element-wise group inverse."""
        self._check(a)
        with np.errstate(over="ignore"):
            return self._reduce_inplace(self.dtype.type(0) - a)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a + (-b)`` — computed as one wrapped subtraction.

        Machine subtraction wraps mod 2^width and ``a - b ≡ a + (2^w - b)``,
        so a single pass is bit-identical to negate-then-add.
        """
        self._check(a), self._check(b)
        with np.errstate(over="ignore"):
            return self._reduce_inplace(a - b)

    def scale(self, a: np.ndarray, k: int) -> np.ndarray:
        """Repeated addition ``k·a`` (k may exceed the group order).

        Used by the weighted-unmask extension: the server may ask the
        trusted party to scale each mask by the integer aggregation weight
        of its client.
        """
        self._check(a)
        # Wrapping multiplication mod 2^width is congruent to the true
        # product mod 2^bits because 2^bits divides the machine modulus —
        # so a single wrapped multiply in the storage dtype is exact.
        with np.errstate(over="ignore"):
            return self._reduce_inplace(a * self.dtype.type(int(k) % self.order))

    def sum(self, vectors: list[np.ndarray]) -> np.ndarray:
        """Group sum of several vectors (empty list -> identity of len 0)."""
        if not vectors:
            return self.zeros(0)
        acc = vectors[0].copy()
        for v in vectors[1:]:
            self.add_into(acc, v)
        return acc

    # -- block (vectorized) operations -----------------------------------------
    #
    # The block data plane folds K vectors with single fused reductions
    # instead of K allocate-and-add passes.  All of these are bit-identical
    # to the sequential scalar folds: machine addition/multiplication wraps
    # mod 2^width, 2^bits divides 2^width, so reducing once at the end is
    # congruent to reducing after every step.

    def _reduce_inplace(self, arr: np.ndarray) -> np.ndarray:
        if not self._full_width:
            np.bitwise_and(arr, self._mask, out=arr)
        return arr

    def add_into(self, acc: np.ndarray, b: np.ndarray) -> np.ndarray:
        """In-place ``acc <- acc + b`` (no allocation); returns ``acc``.

        Bit-identical to ``add`` — the running sums of the block data
        plane use this to avoid reallocating a model-sized vector per
        contribution.
        """
        self._check(acc), self._check(b)
        with np.errstate(over="ignore"):
            np.add(acc, b, out=acc)
        return self._reduce_inplace(acc)

    def mac_into(
        self, acc: np.ndarray, v: np.ndarray, k: int, tmp: np.ndarray
    ) -> np.ndarray:
        """In-place ``acc <- acc + k·v`` using ``tmp`` as scratch.

        Bit-identical to ``add(acc, scale(v, k))`` but allocation-free:
        one wrapped multiply into ``tmp``, one in-place add, one modular
        reduction.  The weighted finalize folds K masked updates this way
        with a third of the memory traffic of copy-then-reduce.
        """
        self._check(acc), self._check(v), self._check(tmp)
        with np.errstate(over="ignore"):
            np.multiply(v, self.dtype.type(int(k) % self.order), out=tmp)
            np.add(acc, tmp, out=acc)
        return self._reduce_inplace(acc)

    def sum_block(self, block: np.ndarray) -> np.ndarray:
        """Fold the rows of a ``(K, l)`` block with one fused reduction.

        Equals ``sum([row for row in block])`` bit-for-bit: group addition
        is associative and exact under machine wraparound, so
        ``np.add.reduce`` over the leading axis followed by a single
        modular reduction reproduces the K sequential folds.
        """
        block = np.asarray(block)
        self._check_block(block)
        if block.shape[0] == 0:
            return self.zeros(block.shape[1])
        with np.errstate(over="ignore"):
            out = np.add.reduce(block, axis=0, dtype=self.dtype)
        return self._reduce_inplace(out)

    def weighted_sum_block(self, block: np.ndarray, weights) -> np.ndarray:
        """``sum_i  w_i · block[i]`` as one fused multiply-accumulate.

        Bit-identical to folding ``scale(block[i], w_i)`` sequentially:
        the einsum accumulates wrapped products in the group's machine
        dtype, and one final reduction maps the result into the group.
        Zero weights contribute the identity, exactly as in the scalar
        loop.
        """
        block = np.asarray(block)
        self._check_block(block)
        w = np.asarray(
            [int(k) % self.order for k in weights], dtype=self.dtype
        )
        if w.shape[0] != block.shape[0]:
            raise ValueError(
                f"need one weight per row: {w.shape[0]} weights, "
                f"{block.shape[0]} rows"
            )
        if block.shape[0] == 0:
            return self.zeros(block.shape[1])
        with np.errstate(over="ignore"):
            out = np.einsum("k,kl->l", w, block)
        return self._reduce_inplace(out)

    # -- helpers ------------------------------------------------------------

    def _check_block(self, block: np.ndarray) -> None:
        if block.ndim != 2:
            raise ValueError(f"expected a (K, l) block, got shape {block.shape}")
        self._check(block)

    def _check(self, arr: np.ndarray) -> None:
        if arr.dtype != self.dtype:
            raise TypeError(
                f"expected group dtype {self.dtype}, got {arr.dtype}; "
                "use reduce() to bring values into the group"
            )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PowerOfTwoGroup) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(("PowerOfTwoGroup", self.bits))

    def __repr__(self) -> str:
        return f"PowerOfTwoGroup(bits={self.bits})"
