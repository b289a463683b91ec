"""Fixed-point conversion between real model updates and group elements.

Implements Appendix D of the paper: a real number ``a`` is scaled by a
scaling factor ``c``, rounded to the nearest integer ``[ca]``, and the
signed range ``[-⌊n/2⌋, ⌈n/2⌉)`` is mapped onto Z_n (two's-complement
style).  Plain integer addition and group addition then agree as long as
no aggregate wraps around, so parties must budget headroom for the number
of updates being summed — :meth:`FixedPointCodec.max_summands` makes that
budget explicit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.secagg.groups import PowerOfTwoGroup

__all__ = ["FixedPointCodec", "FixedPointOverflowError", "recommend_codec"]


class FixedPointOverflowError(ValueError):
    """A value (or an aggregate) falls outside the representable range."""


class FixedPointCodec:
    """Encode/decode real vectors to/from a finite group.

    Parameters
    ----------
    group:
        Target Abelian group.
    scale:
        The scaling factor ``c``: reals are represented at resolution
        ``1/c``.  Larger values mean more precision but less headroom.
    clip_value:
        Optional symmetric clipping applied before encoding (model-update
        norms are bounded in practice; clipping makes the overflow budget
        verifiable).
    """

    def __init__(
        self,
        group: PowerOfTwoGroup,
        scale: float = 2**16,
        clip_value: float | None = None,
    ):
        if scale <= 0:
            raise ValueError("scale must be positive")
        if clip_value is not None and clip_value <= 0:
            raise ValueError("clip_value must be positive")
        self.group = group
        self.scale = float(scale)
        self.clip_value = clip_value

    # -- range bookkeeping ------------------------------------------------------

    @property
    def half_low(self) -> int:
        """⌊n/2⌋ — magnitude of the most negative representable integer."""
        return self.group.order // 2

    @property
    def half_high(self) -> int:
        """⌈n/2⌉ — one past the most positive representable integer."""
        return self.group.order - self.group.order // 2

    @property
    def max_abs_value(self) -> float:
        """Largest real magnitude a *single* encoded value may take."""
        return (self.half_low - 1) / self.scale

    def max_summands(self, max_abs: float) -> int:
        """How many values of magnitude ≤ ``max_abs`` may be summed safely.

        The parties "need to estimate the scale of the model updates to
        aggregate ... to properly pick the parameters" (Appendix D); this
        is that estimate's contract.
        """
        if max_abs <= 0:
            raise ValueError("max_abs must be positive")
        per_item = int(np.ceil(max_abs * self.scale))
        return max(0, (self.half_low - 1) // max(per_item, 1))

    # -- encode / decode ------------------------------------------------------

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Real vector -> group vector.

        Raises
        ------
        FixedPointOverflowError
            If any scaled value falls outside the signed representable
            range (only possible when ``clip_value`` is unset or too big),
            or is NaN (clipping keeps a NaN a NaN).
        """
        # One private float64 buffer (the caller's array is never touched),
        # then clip -> scale -> rint in place.
        scaled = np.array(values, dtype=np.float64)
        if self.clip_value is not None:
            np.clip(scaled, -self.clip_value, self.clip_value, out=scaled)
        np.multiply(scaled, self.scale, out=scaled)
        np.rint(scaled, out=scaled)
        if scaled.size:
            low, high = scaled.min(), scaled.max()
            # Written so that a NaN (which min/max propagate and every
            # comparison rejects) fails the check instead of passing it.
            if not (low >= -self.half_low and high < self.half_high):
                if np.isnan(low):
                    raise FixedPointOverflowError(
                        "input contains NaN, which has no fixed-point encoding"
                    )
                raise FixedPointOverflowError(
                    f"value out of fixed-point range ±{self.max_abs_value:.6g}; "
                    "lower `scale`, set `clip_value`, or widen the group"
                )
        # Two's-complement mapping: negatives wrap to the top of the group.
        # Viewing int64 as uint64 is that wrap mod 2^64, and 2^bits divides
        # 2^64, so the reduction is exact for every group width.
        return self.group.reduce(scaled.astype(np.int64).view(np.uint64))

    def encode_block(self, values: np.ndarray) -> np.ndarray:
        """Encode K real vectors as one vectorized ``(K, l)`` call.

        Row ``i`` equals ``encode(values[i])`` bit-for-bit (clipping,
        rounding and the two's-complement mapping are all element-wise);
        the range check covers the whole block, so an out-of-range element
        raises exactly as its row's scalar encode would.
        """
        if np.ndim(values) != 2:
            raise ValueError(
                f"expected a (K, l) block, got shape {np.shape(values)}"
            )
        return self.encode(values)

    def decode(self, encoded: np.ndarray) -> np.ndarray:
        """Group vector -> real vector (centered signed interpretation).

        Accepts any shape — in particular a ``(K, l)`` block decodes
        row-wise, each row identical to its scalar decode.
        """
        if self.group.bits == 64 and encoded.dtype == np.dtype(np.uint64):
            # uint64 -> int64 is exactly the two's-complement signed
            # reinterpretation, so a zero-copy view replaces two astype
            # passes on the hot decode path.
            return (encoded.view(np.int64) / self.scale).astype(np.float64)
        enc = encoded.astype(np.uint64)
        if self.group.bits == 64:
            # uint64 -> int64 is exactly the two's-complement signed view.
            with np.errstate(over="ignore"):
                signed = enc.astype(np.int64)
        elif self.group.bits == 63:
            raise NotImplementedError(
                "63-bit groups are not supported by the codec (the signed "
                "range does not fit int64); use 62 or 64 bits"
            )
        else:
            raw = enc.astype(np.int64)
            signed = np.where(raw >= self.half_high, raw - self.group.order, raw)
        return (signed / self.scale).astype(np.float64)

    def decode_sum(self, encoded_sum: np.ndarray, num_summands: int, max_abs: float) -> np.ndarray:
        """Decode an aggregate, first verifying the no-overflow contract.

        Parameters
        ----------
        encoded_sum:
            Group sum of ``num_summands`` encoded vectors.
        num_summands:
            How many vectors were added.
        max_abs:
            A priori bound on each summand's real magnitude.

        Raises
        ------
        FixedPointOverflowError
            If the stated workload could have wrapped around, i.e. the
            decode would be unsound.
        """
        if num_summands < 1:
            raise ValueError("num_summands must be at least 1")
        if num_summands > max(1, self.max_summands(max_abs)):
            raise FixedPointOverflowError(
                f"cannot soundly sum {num_summands} values of magnitude "
                f"<= {max_abs}: at most {self.max_summands(max_abs)} fit"
            )
        return self.decode(encoded_sum)

    def __repr__(self) -> str:
        return (
            f"FixedPointCodec(group={self.group!r}, scale={self.scale}, "
            f"clip_value={self.clip_value})"
        )


def recommend_codec(
    max_abs: float,
    max_summands: int,
    precision: float = 1e-4,
    max_weight: int = 1,
) -> FixedPointCodec:
    """Pick (group width, scale) for a workload — the Appendix D exercise.

    "The parties need to estimate the scale of the model updates to
    aggregate [and] the desired accuracy to properly pick the parameters
    including the scaling factor c and the finite group Z_n."  Given the
    workload bounds, this returns the smallest power-of-two group that
    sums ``max_summands`` values of magnitude ≤ ``max_abs`` (each scaled
    by an integer weight ≤ ``max_weight``) without wraparound at the
    requested ``precision``.

    Parameters
    ----------
    max_abs:
        A priori bound on each real value's magnitude (enforced by
        clipping).
    max_summands:
        Largest number of values ever added (e.g. the aggregation goal).
    precision:
        Worst acceptable quantization step (1/c).
    max_weight:
        Largest integer aggregation weight applied to any value.

    Raises
    ------
    ValueError
        If no group of at most 64 bits satisfies the bounds.
    """
    if max_abs <= 0 or max_summands < 1 or precision <= 0 or max_weight < 1:
        raise ValueError("all workload bounds must be positive")
    scale = 2.0 ** math.ceil(math.log2(1.0 / precision))
    per_item = math.ceil(max_abs * scale) * max_weight
    needed = per_item * max_summands
    bits = max(2, needed.bit_length() + 2)  # sign bit + one bit of slack
    if bits == 63:
        bits = 64  # codec does not support 63-bit groups
    if bits > 64:
        raise ValueError(
            f"workload needs a {bits}-bit group; reduce precision "
            f"({precision}), magnitude ({max_abs}), or summands ({max_summands})"
        )
    codec = FixedPointCodec(PowerOfTwoGroup(bits), scale=scale, clip_value=max_abs)
    assert codec.max_summands(max_abs * max_weight) >= max_summands
    return codec
