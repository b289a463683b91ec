"""Optimizers over flat parameter vectors.

Two roles in the PAPAYA setup (Section 7.1):

* **Client optimizer** — plain SGD on the local model during the client's
  one epoch of training.
* **Server optimizer** — FedAdam (Reddi et al., 2020): the aggregated
  client delta is treated as a pseudo-gradient and fed to Adam.  The
  server-side classes live in :mod:`repro.core.server_opt`; they build on
  :class:`Adam` here.

All optimizers mutate nothing: ``step`` takes ``(params, grad)`` and
returns the new parameter vector, keeping state internal.  This functional
style makes the FL bookkeeping (model versions, staleness) explicit.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["SGD", "CohortSGD", "Adam"]


class SGD:
    """Stochastic gradient descent with optional momentum and grad clipping.

    Parameters
    ----------
    lr:
        Learning rate.
    momentum:
        Heavy-ball momentum coefficient (0 disables).
    clip_norm:
        If set, gradients are rescaled to at most this L2 norm before the
        update — standard practice for LSTM language models.
    """

    def __init__(self, lr: float, momentum: float = 0.0, clip_norm: float | None = None):
        self.lr = check_positive(lr, "lr")
        if not (0.0 <= momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.clip_norm = clip_norm
        self._velocity: np.ndarray | None = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Return updated parameters; state (velocity) advances internally."""
        if grad.shape != params.shape:
            raise ValueError("grad/param shape mismatch")
        g = grad
        if self.clip_norm is not None:
            norm = float(np.linalg.norm(g))
            if norm > self.clip_norm:
                g = g * (self.clip_norm / (norm + 1e-12))
        if self.momentum > 0.0:
            if self._velocity is None:
                self._velocity = np.zeros_like(params)
            self._velocity = self.momentum * self._velocity + g
            g = self._velocity
        return (params - self.lr * g).astype(np.float32)

    def reset(self) -> None:
        """Clear momentum state (fresh client)."""
        self._velocity = None


class CohortSGD:
    """SGD over a stack of K independent parameter vectors at once.

    The cohort counterpart of :class:`SGD` used by the batched training
    engine: ``params`` and ``grad`` are ``(K, P)`` matrices (leading cohort
    axis, one client per row) and every row is updated exactly as
    :class:`SGD` would update it in isolation — including the per-client
    gradient clipping, whose norms are taken row-by-row with the same
    ``np.linalg.norm`` call as the scalar path so the rescale factors are
    bit-identical.

    Momentum state, when enabled, is one velocity matrix ``(K, P)``.
    """

    def __init__(self, lr: float, momentum: float = 0.0, clip_norm: float | None = None):
        self.lr = check_positive(lr, "lr")
        if not (0.0 <= momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.clip_norm = clip_norm
        self._velocity: np.ndarray | None = None

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Return the updated ``(K, P)`` stack; velocity advances internally."""
        if grad.shape != params.shape or params.ndim != 2:
            raise ValueError("expected matching (K, P) param/grad stacks")
        g = grad
        if self.clip_norm is not None:
            # Row-wise clipping in a small Python loop: K is tiny compared
            # to P, and the scalar path's norm (BLAS dot under
            # np.linalg.norm on a 1-D vector) must be reproduced exactly —
            # an axis-reduction norm sums in a different order.  The stack
            # is only copied once a row actually needs rescaling.
            copied = False
            for k in range(g.shape[0]):
                norm = float(np.linalg.norm(g[k]))
                if norm > self.clip_norm:
                    if not copied:
                        g = g.copy()
                        copied = True
                    g[k] = g[k] * (self.clip_norm / (norm + 1e-12))
        if self.momentum > 0.0:
            if self._velocity is None:
                self._velocity = np.zeros_like(params)
            self._velocity = self.momentum * self._velocity + g
            g = self._velocity
        return (params - self.lr * g).astype(np.float32)

    def reset(self) -> None:
        """Clear momentum state (fresh cohort)."""
        self._velocity = None


class Adam:
    """Adam optimizer (Kingma & Ba) over a flat vector.

    Used by FedAdam on the server with the aggregated client delta as the
    pseudo-gradient.  Default hyperparameters follow the paper: "we use
    Adam's default learning rate and tune the first-moment parameter".
    """

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.lr = check_positive(lr, "lr")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = check_positive(eps, "eps")
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._work: tuple[np.ndarray, np.ndarray] | None = None
        self._t = 0

    @property
    def step_count(self) -> int:
        """Number of updates applied so far."""
        return self._t

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Return updated parameters after one Adam step on ``grad``.

        The moments and two float64 work vectors are created on the
        first step and reused: every operation below writes through
        ``out=``, so a step allocates only the array it returns.  The
        expression tree is ``m*b1 + (1-b1)*g``, ``v*b2 + ((1-b2)*g)*g``,
        ``(lr*m_hat) / (sqrt(v_hat) + eps)``,
        ``float32(float64(params) - update)`` — operation for operation
        the textbook form, so the bits do not depend on the buffering
        (``tests/test_core_trainer_optim.py`` keeps that form as the
        reference).
        """
        if grad.shape != params.shape:
            raise ValueError("grad/param shape mismatch")
        if self._m is None:
            self._m = np.zeros_like(params, dtype=np.float64)
            self._v = np.zeros_like(params, dtype=np.float64)
            self._work = (np.empty_like(self._m), np.empty_like(self._m))
        self._t += 1
        m, v = self._m, self._v
        a, b = self._work
        np.copyto(b, grad)  # g, in float64
        np.multiply(m, self.beta1, out=m)
        np.multiply(b, 1.0 - self.beta1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, self.beta2, out=v)
        np.multiply(b, 1.0 - self.beta2, out=a)
        np.multiply(a, b, out=a)
        np.add(v, a, out=v)  # g is spent: b is free from here
        np.divide(m, 1.0 - self.beta1**self._t, out=a)  # m_hat
        np.multiply(a, self.lr, out=a)
        np.divide(v, 1.0 - self.beta2**self._t, out=b)  # v_hat
        np.sqrt(b, out=b)
        np.add(b, self.eps, out=b)
        np.divide(a, b, out=a)  # the update
        np.copyto(b, params)
        np.subtract(b, a, out=b)
        return b.astype(np.float32)

    def reset(self) -> None:
        """Clear moment estimates, work vectors and the step counter."""
        self._m = None
        self._v = None
        self._work = None
        self._t = 0
