"""The paper's core algorithms: FedBuff, SyncFL, server optimizers.

This package is time- and transport-free: it implements the aggregation
mathematics and bookkeeping (versions, staleness, over-selection discard),
and is driven either directly (unit tests, quickstart example) or by the
discrete-event system layer in :mod:`repro.system`.
"""

from repro.core.client_trainer import LocalTrainer
from repro.core.cohort import CohortRequest, CohortTrainer
from repro.core.dp import (
    DPConfig,
    DPFedBuffAggregator,
    ZCDPAccountant,
    clip_by_l2_norm,
)
from repro.core.fedbuff import AggregationCore, FedBuffAggregator, ServerStepInfo
from repro.core.server_opt import FedAdam, FedAvgM, FedSGD, ServerOptimizer
from repro.core.sharding import (
    AggregationPlaneClock,
    HashShardRouting,
    LoadAwareShardRouting,
    make_routing,
)
from repro.core.staleness import (
    ConstantStaleness,
    HardCutoffStaleness,
    PolynomialStaleness,
    StalenessPolicy,
)
from repro.core.state import GlobalModelState
from repro.core.surrogate import SurrogateModelState, SurrogateParams, SurrogateTrainer
from repro.core.syncfl import SyncRoundAggregator
from repro.core.types import ModelUpdate, TaskConfig, TrainingMode, TrainingResult

__all__ = [
    "LocalTrainer",
    "CohortRequest",
    "CohortTrainer",
    "DPConfig",
    "DPFedBuffAggregator",
    "ZCDPAccountant",
    "clip_by_l2_norm",
    "AggregationCore",
    "FedBuffAggregator",
    "ServerStepInfo",
    "FedAdam",
    "FedAvgM",
    "FedSGD",
    "ServerOptimizer",
    "AggregationPlaneClock",
    "HashShardRouting",
    "LoadAwareShardRouting",
    "make_routing",
    "ConstantStaleness",
    "HardCutoffStaleness",
    "PolynomialStaleness",
    "StalenessPolicy",
    "GlobalModelState",
    "SurrogateModelState",
    "SurrogateParams",
    "SurrogateTrainer",
    "SyncRoundAggregator",
    "ModelUpdate",
    "TaskConfig",
    "TrainingMode",
    "TrainingResult",
]
