"""Server optimizers: how an aggregated client delta becomes a new model.

The paper uses FedAdam (Reddi et al., 2020) on the server for both SyncFL
and AsyncFL (Section 7.1): the aggregated client delta is treated as a
pseudo-gradient (negated, since the delta points in the descent direction)
and fed to Adam.  FedSGD and FedAvgM are provided as baselines/ablations.

All server optimizers consume the *weighted average* client delta — the
aggregators (:mod:`repro.core.fedbuff`, :mod:`repro.core.syncfl`) own the
weighting.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.nn.optim import Adam
from repro.utils.validation import check_positive

__all__ = ["ServerOptimizer", "FedAdam", "FedSGD", "FedAvgM"]


class ServerOptimizer(abc.ABC):
    """Applies an aggregated client delta to the server model."""

    @abc.abstractmethod
    def apply(self, model: np.ndarray, avg_delta: np.ndarray) -> np.ndarray:
        """Return the new server model given the average client delta.

        The result is a **new** array: never ``model`` itself, never a
        view of it, never written after return.  ``model`` is the
        read-only snapshot in-flight clients share
        (:mod:`repro.core.state`), and the result becomes the next one.
        """

    def reset(self) -> None:
        """Clear internal state (default: stateless)."""


class FedAdam(ServerOptimizer):
    """Adaptive server optimizer — the paper's choice.

    Parameters
    ----------
    lr:
        Server learning rate ("Adam's default learning rate", 1e-3, in the
        paper; higher values are typical in simulation-scale runs).
    beta1:
        First-moment coefficient — the one hyperparameter the paper tunes.
    beta2, eps:
        Standard Adam parameters.
    """

    def __init__(
        self,
        lr: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self._adam = Adam(lr=lr, beta1=beta1, beta2=beta2, eps=eps)

    def apply(self, model: np.ndarray, avg_delta: np.ndarray) -> np.ndarray:
        # The client delta approximates the negative gradient direction, so
        # the pseudo-gradient handed to Adam is its negation.
        return self._adam.step(model, -avg_delta)

    def reset(self) -> None:
        self._adam.reset()

    @property
    def step_count(self) -> int:
        """Server model updates applied so far."""
        return self._adam.step_count


class FedSGD(ServerOptimizer):
    """Plain averaging server: ``model += lr * avg_delta``.

    With ``lr=1`` this is exactly FedAvg's server step.
    """

    def __init__(self, lr: float = 1.0):
        self.lr = check_positive(lr, "lr")

    def apply(self, model: np.ndarray, avg_delta: np.ndarray) -> np.ndarray:
        return (model + self.lr * avg_delta).astype(np.float32)


class FedAvgM(ServerOptimizer):
    """Server-side momentum over aggregated deltas (Hsu et al., 2019)."""

    def __init__(self, lr: float = 1.0, momentum: float = 0.9):
        self.lr = check_positive(lr, "lr")
        if not (0.0 <= momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity: np.ndarray | None = None

    def apply(self, model: np.ndarray, avg_delta: np.ndarray) -> np.ndarray:
        if self._velocity is None:
            self._velocity = np.zeros_like(model)
        self._velocity = self.momentum * self._velocity + avg_delta
        return (model + self.lr * self._velocity).astype(np.float32)

    def reset(self) -> None:
        self._velocity = None
