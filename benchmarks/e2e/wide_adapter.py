"""A trainer whose training costs nothing and whose deltas are wide.

With the surrogate's length-1 vector the aggregation data plane (shard
folds, mask expansion, fixed-point codec, model snapshots) is invisible
in a whole-run timing.  ``WideDeltaAdapter`` gives those layers a 1 MB
model to move while keeping client training at ~0, so the
``secure_wide`` and ``sharded_wide_process`` workloads time the vector
path and nothing else.
"""

from __future__ import annotations

import numpy as np

from repro.core.server_opt import FedAdam
from repro.core.state import GlobalModelState
from repro.core.types import TrainingResult
from repro.system.adapters import TrainerAdapter

__all__ = ["WideDeltaAdapter"]


class WideDeltaAdapter(TrainerAdapter):
    """``train()`` hands back one of 16 precomputed float32 rows."""

    ROWS = 16

    def __init__(self, length: int = 262_144, seed: int = 0):
        self.state = GlobalModelState(np.zeros(length, np.float32), FedAdam(lr=0.05))
        rng = np.random.default_rng(seed)
        self._rows = (rng.standard_normal((self.ROWS, length)) * 1e-3).astype(np.float32)

    def train(self, profile, initial_model, initial_version, participation):
        row = self._rows[(profile.device_id + participation) % self.ROWS]
        return TrainingResult(
            client_id=profile.device_id,
            delta=row,
            num_examples=profile.n_examples,
            train_loss=0.0,
            initial_version=initial_version,
        )

    def current_loss(self) -> float:
        # Depends on every aggregated coordinate, so a fold that changes
        # the numerics changes the server-step records and the digest.
        return float(np.linalg.norm(self.state.current()))
