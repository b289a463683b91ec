"""Shared datatypes of the federated-learning core.

These are the objects that cross component boundaries: task configurations
(Section 6, Appendix E.1), client training results, and the model updates
that aggregators buffer.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TrainingMode", "TaskConfig", "TrainingResult", "ModelUpdate"]


class TrainingMode(enum.Enum):
    """Whether a task runs synchronous rounds or buffered async aggregation.

    The paper stresses that PAPAYA supports both and that switching is a
    configuration change (Appendix E.3).
    """

    SYNC = "sync"
    ASYNC = "async"


@dataclass(frozen=True)
class TaskConfig:
    """Configuration of one FL task.

    Attributes
    ----------
    name:
        Task identifier (multi-tenant systems run several tasks at once).
    mode:
        :class:`TrainingMode.SYNC` or :class:`TrainingMode.ASYNC`.
    concurrency:
        Maximum number of concurrently training clients (Appendix E.1).
    aggregation_goal:
        ``K`` — client updates buffered per server model update
        (Section 3.1).  For SyncFL this is the round's cohort goal; with
        over-selection the paper sets concurrency ≈ 1.3 × goal.
    over_selection:
        Fraction of extra clients selected per synchronous round whose
        late updates are discarded (0.3 in the paper; ignored for async).
    max_staleness:
        Clients whose staleness exceeds this are aborted (Appendix E.2).
    client_timeout_s:
        Hard cap on client execution time (the paper uses 4 minutes).
    local_epochs, batch_size, client_lr:
        Local-training hyperparameters (paper: 1 epoch, B=32, tuned lr).
    model_size_bytes:
        Serialized model size, used for workload estimation and the
        SecAgg boundary-cost model (paper example: 20 MB).
    """

    name: str = "task"
    mode: TrainingMode = TrainingMode.ASYNC
    concurrency: int = 100
    aggregation_goal: int = 10
    over_selection: float = 0.0
    max_staleness: int = 100
    client_timeout_s: float = 240.0
    local_epochs: int = 1
    batch_size: int = 32
    client_lr: float = 0.5
    model_size_bytes: int = 20 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        if self.aggregation_goal < 1:
            raise ValueError("aggregation_goal must be at least 1")
        if not (0.0 <= self.over_selection < 1.0):
            raise ValueError("over_selection must be in [0, 1)")
        if self.max_staleness < 0:
            raise ValueError("max_staleness must be non-negative")
        if self.client_timeout_s <= 0:
            raise ValueError("client_timeout_s must be positive")
        if self.mode is TrainingMode.ASYNC and self.aggregation_goal > self.concurrency:
            raise ValueError(
                "async aggregation_goal above concurrency deadlocks: fewer "
                "clients can ever be in flight than the buffer needs"
            )

    @property
    def cohort_size(self) -> int:
        """Clients selected per synchronous round, including over-selection."""
        return int(math.ceil(self.aggregation_goal * (1.0 + self.over_selection)))

    def with_updates(self, **kwargs) -> "TaskConfig":
        """Functional-update copy (dataclasses.replace with validation)."""
        from dataclasses import replace

        return replace(self, **kwargs)


@dataclass(frozen=True)
class TrainingResult:
    """What a client's local training produces (before upload).

    ``delta`` is the difference between the locally trained model and the
    model the client downloaded — the quantity PAPAYA ships (Section 3.1).
    """

    client_id: int
    delta: np.ndarray
    num_examples: int
    train_loss: float
    initial_version: int

    def __post_init__(self) -> None:
        if self.num_examples < 1:
            raise ValueError("num_examples must be at least 1")


@dataclass(frozen=True)
class ModelUpdate:
    """A client update as the aggregator sees it at arrival time.

    Attributes
    ----------
    result:
        The client's training result.
    arrival_version:
        Server model version when the update arrived; staleness is
        ``arrival_version - result.initial_version`` (Appendix E.2).
    weight:
        Aggregation weight actually applied (example count × staleness
        factor), recorded for analysis.
    """

    result: TrainingResult
    arrival_version: int
    weight: float

    @property
    def staleness(self) -> int:
        """Model versions elapsed while the client was training."""
        return self.arrival_version - self.result.initial_version
