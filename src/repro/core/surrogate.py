"""Analytical convergence surrogate for fleet-scale wall-clock experiments.

The paper's headline figures (3, 9, 10, 12, 13) measure *wall-clock time
to a target loss* across ~100 M devices and hundreds of thousands of
client updates.  Re-running real gradient descent at that scale is neither
possible nor necessary for the system-level claims: what matters is how
the *number, size, staleness and bias* of server steps map to optimization
progress.  This module models that mapping with three well-established
ingredients:

1. **Power-law loss decay** in accumulated progress ``p``:
   ``L(p) = L_min + (L0 - L_min) · (1 + p/τ)^(-β)`` — the standard shape
   for LM training curves.
2. **Large-cohort diminishing returns** (Keskar et al. 2017, Charles
   et al. 2021, quoted by the paper in Section 1): a server step that
   aggregates ``K`` updates contributes effective progress
   ``eff(K) = K / (1 + K/K_c)`` — linear for small K, saturating at the
   critical cohort size ``K_c``.  Per client update the efficiency is
   ``1/(1 + K/K_c)``: small aggregation goals use updates efficiently,
   huge cohorts waste them.
3. **Update quality** ``g_i``: a client's update helps in proportion to
   ``log(1 + n_i)`` of its example count ``n_i`` (diminishing local
   returns), so *discarding large-data stragglers (over-selection bias)
   measurably slows progress* — the mechanism behind Figure 12.

Staleness enters through the FedBuff weighting itself: the aggregation
core down-weights stale updates by ``1/sqrt(1+s)`` before averaging, so a
buffer full of stale updates contributes less progress (use
``normalize_by="goal"`` and ``example_weighting="none"`` so weights act
as magnitudes, matching the original FedBuff formulation).

:class:`SurrogateModelState` duck-types :class:`repro.core.state.GlobalModelState`,
so the *identical* FedBuff/SyncFL aggregation cores drive it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import TrainingResult
from repro.utils.rng import child_rng

__all__ = ["SurrogateParams", "SurrogateModelState", "SurrogateTrainer"]


@dataclass(frozen=True)
class SurrogateParams:
    """Calibration constants of the analytical convergence model.

    Attributes
    ----------
    initial_loss:
        Loss of the untrained model (≈ log vocab size for an LM).
    floor_loss:
        Asymptotic loss of this model family on this data.
    tau:
        Progress scale: how much effective progress halves-ish the excess
        loss (sets how many server steps a run needs).
    beta:
        Power-law decay exponent.
    critical_goal:
        ``K_c`` — cohort size where per-step returns are half the linear
        extrapolation (large-batch critical size).
    reference_examples:
        Example count at which update quality is 1.0.
    quality_noise:
        Log-normal sigma of per-update quality noise.
    """

    initial_loss: float = 4.16  # log(64)
    floor_loss: float = 2.2
    tau: float = 40.0
    beta: float = 0.7
    critical_goal: float = 300.0
    reference_examples: float = 50.0
    quality_noise: float = 0.05

    def __post_init__(self) -> None:
        if self.floor_loss >= self.initial_loss:
            raise ValueError("floor_loss must be below initial_loss")
        if min(self.tau, self.beta, self.critical_goal, self.reference_examples) <= 0:
            raise ValueError("tau, beta, critical_goal, reference_examples must be positive")
        if self.quality_noise < 0:
            raise ValueError("quality_noise must be non-negative")


class SurrogateModelState:
    """Scalar 'progress' coordinate advanced by aggregated update quality.

    Implements the model-state interface of the aggregation cores:
    ``current()`` returns the 1-element progress vector (what a client
    would "download" — the surrogate trainer ignores it), ``apply``
    advances progress by ``avg_quality × eff(num_updates)``.
    """

    def __init__(self, params: SurrogateParams | None = None):
        self.params = params or SurrogateParams()
        self.progress = 0.0
        self._snapshot = self._freeze()

    def _freeze(self) -> np.ndarray:
        vec = np.array([self.progress], dtype=np.float32)
        vec.flags.writeable = False
        return vec

    def current(self) -> np.ndarray:
        """This version's 1-element progress vector (read-only, shared)."""
        return self._snapshot

    @property
    def size(self) -> int:
        """Interface parity with the real model state."""
        return 1

    def step_efficiency(self, num_updates: int) -> float:
        """``eff(K) = K / (1 + K/K_c)`` — saturating cohort returns."""
        k = float(num_updates)
        return k / (1.0 + k / self.params.critical_goal)

    def apply(self, avg_delta: np.ndarray, num_updates: int) -> None:
        """One server step: progress += mean quality × eff(K)."""
        if num_updates < 1:
            raise ValueError("num_updates must be at least 1")
        quality = float(avg_delta[0])
        self.progress += quality * self.step_efficiency(num_updates)
        self._snapshot = self._freeze()

    def loss(self) -> float:
        """Current training loss under the power-law decay."""
        p = self.params
        return p.floor_loss + (p.initial_loss - p.floor_loss) * float(
            (1.0 + self.progress / p.tau) ** (-p.beta)
        )

    def progress_for_loss(self, target_loss: float) -> float:
        """Inverse of :meth:`loss`: progress needed to reach a target."""
        p = self.params
        if not (p.floor_loss < target_loss <= p.initial_loss):
            raise ValueError(
                f"target loss must be in ({p.floor_loss}, {p.initial_loss}]"
            )
        ratio = (target_loss - p.floor_loss) / (p.initial_loss - p.floor_loss)
        return p.tau * (ratio ** (-1.0 / p.beta) - 1.0)


class SurrogateTrainer:
    """Produces surrogate "updates": quality scalars instead of gradients.

    The quality of client ``i``'s update is
    ``g_i = log(1 + n_i) / log(1 + n_ref) × noise`` — increasing but
    saturating in the client's example count, with small log-normal noise.

    Parameters
    ----------
    params:
        Shared calibration constants.
    seed:
        Root seed for the per-(client, participation) noise streams.
    """

    def __init__(self, params: SurrogateParams | None = None, seed: int = 0):
        self.params = params or SurrogateParams()
        self.seed = seed
        self._quality: dict[int, float] = {}

    def quality(self, num_examples: int) -> float:
        """Noise-free quality of an update from a client with ``n`` examples."""
        q = self._quality.get(num_examples)
        if q is None:
            q = float(np.log1p(num_examples) / np.log1p(self.params.reference_examples))
            self._quality[num_examples] = q
        return q

    def train(
        self,
        num_examples: int,
        client_id: int,
        initial_version: int,
        participation: int = 0,
    ) -> TrainingResult:
        """Produce the surrogate training result for one participation."""
        if num_examples < 1:
            raise ValueError("num_examples must be at least 1")
        g = self.quality(num_examples)
        if self.params.quality_noise > 0:
            rng = child_rng(self.seed, "surrogate-noise", client_id, participation)
            g *= float(np.exp(rng.normal(0.0, self.params.quality_noise)))
        return TrainingResult(
            client_id=client_id,
            delta=np.array([g], dtype=np.float32),
            num_examples=num_examples,
            train_loss=float("nan"),
            initial_version=initial_version,
        )
