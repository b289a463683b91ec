"""Central differential privacy for buffered asynchronous aggregation.

The paper's conclusion: "PAPAYA can be extended with features to enable
differential privacy, which we leave as future work."  This module is that
extension, implemented the standard DP-FedAvg/DP-FTRL way adapted to
FedBuff:

* every client delta is **clipped** to an L2 bound ``C`` before entering
  the buffer (bounding each user's sensitivity);
* with ``example_weighting="none"``, staleness weights ≤ 1 and
  ``normalize_by="goal"``, the buffered average changes by at most ``C/K``
  when one client's contribution is swapped — so adding Gaussian noise
  ``N(0, (z·C/K)²)`` to the average makes each server step a Gaussian
  mechanism with noise multiplier ``z``;
* privacy accounting uses **zero-concentrated DP** (Bun–Steinke): each
  release costs ``ρ = 1/(2z²)``, compositions add, and
  ``ε = ρ + 2·sqrt(ρ·ln(1/δ))`` converts to (ε, δ)-DP.

The accounting is deliberately conservative (no subsampling
amplification — in cross-device FL the server cannot verify sampling), so
reported ε is an upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.fedbuff import FedBuffAggregator, ServerStepInfo
from repro.core.types import TrainingResult
from repro.utils.rng import child_rng

__all__ = ["DPConfig", "ZCDPAccountant", "clip_by_l2_norm", "DPFedBuffAggregator"]


@dataclass(frozen=True)
class DPConfig:
    """Differential-privacy knobs for the aggregator.

    Attributes
    ----------
    clip_norm:
        L2 bound ``C`` applied to every client delta.
    noise_multiplier:
        ``z`` — the Gaussian noise standard deviation in units of the
        mechanism's sensitivity.  Typical federated values: 0.5–2.0.
    delta:
        Target δ for (ε, δ) reporting (rule of thumb: below 1/population).
    """

    clip_norm: float = 1.0
    noise_multiplier: float = 1.0
    delta: float = 1e-6

    def __post_init__(self) -> None:
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must be in (0, 1)")


class ZCDPAccountant:
    """Zero-concentrated DP composition for repeated Gaussian releases."""

    def __init__(self, config: DPConfig):
        self.config = config
        self.releases = 0

    def record_release(self) -> None:
        """Account for one noised server step."""
        self.releases += 1

    @property
    def rho(self) -> float:
        """Accumulated zCDP budget ``ρ = T / (2 z²)``."""
        z = self.config.noise_multiplier
        if z == 0:
            return math.inf if self.releases else 0.0
        return self.releases / (2.0 * z * z)

    def epsilon(self, delta: float | None = None) -> float:
        """(ε, δ)-DP bound via the standard zCDP conversion."""
        d = self.config.delta if delta is None else delta
        if not (0.0 < d < 1.0):
            raise ValueError("delta must be in (0, 1)")
        rho = self.rho
        if math.isinf(rho):
            return math.inf
        return rho + 2.0 * math.sqrt(rho * math.log(1.0 / d))


def clip_by_l2_norm(vec: np.ndarray, clip_norm: float) -> np.ndarray:
    """Rescale ``vec`` so its L2 norm is at most ``clip_norm``."""
    norm = float(np.linalg.norm(vec))
    if norm <= clip_norm or norm == 0.0:
        return vec.astype(np.float32, copy=True)
    return (vec * (clip_norm / norm)).astype(np.float32)


class DPFedBuffAggregator(FedBuffAggregator):
    """FedBuff with per-update clipping and per-step Gaussian noise.

    Enforces the weighting configuration under which the sensitivity
    analysis holds (unit example weights, goal normalization); rejecting
    anything else keeps the stated guarantee honest.
    """

    def __init__(self, state, goal: int, dp: DPConfig, seed: int = 0, **kwargs):
        kwargs.setdefault("example_weighting", "none")
        kwargs.setdefault("normalize_by", "goal")
        if kwargs["example_weighting"] != "none" or kwargs["normalize_by"] != "goal":
            raise ValueError(
                "the DP sensitivity bound requires example_weighting='none' "
                "and normalize_by='goal'"
            )
        super().__init__(state, goal, **kwargs)
        self.dp = dp
        self.accountant = ZCDPAccountant(dp)
        self._noise_rng = child_rng(seed, "dp-noise")

    def _transform_result(self, result: TrainingResult) -> TrainingResult:
        # Clip every delta on admission, through the parent's transform
        # hook: every admitted update is clipped before it is weighted or
        # folded, or the sensitivity bound would be void.
        return TrainingResult(
            client_id=result.client_id,
            delta=clip_by_l2_norm(result.delta, self.dp.clip_norm),
            num_examples=result.num_examples,
            train_loss=result.train_loss,
            initial_version=result.initial_version,
        )

    def _step_buffer(self, buffer: np.ndarray) -> ServerStepInfo:
        # Add the calibrated Gaussian noise to the *merged* buffer (after
        # the root reduce, so no shard partial can drop or overwrite it)
        # and leave the parent's averaging-and-apply path untouched:
        # noise on the buffer sum with sigma = z·C is noise z·C/K on the
        # K-average.
        sigma = self.dp.noise_multiplier * self.dp.clip_norm
        if sigma > 0:
            buffer = buffer + self._noise_rng.normal(0.0, sigma, size=buffer.shape)
        info = super()._step_buffer(buffer)
        self.accountant.record_release()
        return info

    @property
    def epsilon_spent(self) -> float:
        """Current (ε, δ)-DP bound at the configured δ."""
        return self.accountant.epsilon()
