"""Global model state shared by the aggregation cores.

The aggregators (:mod:`repro.core.fedbuff`, :mod:`repro.core.syncfl`) are
written against a tiny state interface so the same buffering/weighting/
versioning logic drives two kinds of runs:

* :class:`GlobalModelState` — a real flat parameter vector advanced by a
  server optimizer (used when clients compute real NumPy-LSTM gradients);
* the surrogate state in :mod:`repro.core.surrogate` — a scalar "progress"
  coordinate advanced by an analytical convergence model (used for
  fleet-scale wall-clock experiments where real training would be
  pointlessly slow).

Both expose ``current()`` (what clients download) and ``apply(avg_delta,
num_updates)`` (what a server step does), under one contract: a model
version is **one immutable snapshot**.  ``current()`` hands out the same
read-only array to every caller until the next ``apply``, which binds a
fresh array instead of writing into the old one — so a download, an
eval and ``current_loss`` share one buffer, an in-flight client keeps
the exact bytes of the version it downloaded for as long as it holds
them, and a caller that wants to train in place copies first (numpy
raises ``ValueError: assignment destination is read-only`` otherwise).
"""

from __future__ import annotations

import numpy as np

from repro.core.server_opt import ServerOptimizer

__all__ = ["GlobalModelState"]


class GlobalModelState:
    """Real model vector + server optimizer.

    Parameters
    ----------
    initial:
        Initial flat float32 parameter vector (copied).
    server_opt:
        Optimizer applied to each aggregated delta (FedAdam in the paper).
    """

    def __init__(self, initial: np.ndarray, server_opt: ServerOptimizer):
        if initial.ndim != 1:
            raise ValueError("model state expects a flat vector")
        self._vec = initial.astype(np.float32, copy=True)
        self._vec.flags.writeable = False
        self._opt = server_opt

    def current(self) -> np.ndarray:
        """This version's snapshot: read-only and shared, never a copy."""
        return self._vec

    @property
    def size(self) -> int:
        """Number of scalar parameters."""
        return self._vec.size

    def apply(self, avg_delta: np.ndarray, num_updates: int) -> None:
        """Advance the model by one server step on the averaged delta.

        The optimizer is handed the read-only snapshot (an in-place
        optimizer raises inside numpy) and must return a new array
        (:meth:`ServerOptimizer.apply`); one that overlaps the outgoing
        snapshot would move in-flight downloads and is rejected.
        """
        if avg_delta.shape != self._vec.shape:
            raise ValueError("delta/model shape mismatch")
        new = self._opt.apply(self._vec, avg_delta)
        if np.may_share_memory(new, self._vec):
            raise ValueError(
                f"{type(self._opt).__name__}.apply returned memory of the "
                "model it was given; in-flight clients still hold that snapshot"
            )
        new.flags.writeable = False
        self._vec = new
