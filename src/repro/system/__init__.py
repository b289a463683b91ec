"""PAPAYA server and client runtime: Coordinator, Selectors, Aggregators.

The system layer of the paper (Sections 4, 6, Appendix E), driven by the
discrete-event simulator in :mod:`repro.sim`.  Aggregation planes, shard
routing policies, and trainer adapters are pluggable name registries in
:mod:`repro.system.planes`; construction of whole deployments goes
through :mod:`repro.api`.
"""

from repro.core.sharding import HashShardRouting, LoadAwareShardRouting
from repro.system.adapters import RealTrainingAdapter, SurrogateAdapter, TrainerAdapter
from repro.system.aggregator import AggregatorNode, FLTaskRuntime
from repro.system.client_runtime import (
    ClientSession,
    CohortDispatcher,
    PendingTraining,
)
from repro.system.coordinator import Coordinator
from repro.system.orchestrator import (
    FederatedSimulation,
    RunResult,
    SystemConfig,
    TaskStats,
)
from repro.system.planes import (
    PlaneContext,
    PlaneFactory,
    register_plane,
    register_routing,
    register_trainer,
)
from repro.system.secure import LegPool, SecureBufferedAggregator
from repro.system.selector import Selector

__all__ = [
    "LegPool",
    "SecureBufferedAggregator",
    "RealTrainingAdapter",
    "SurrogateAdapter",
    "TrainerAdapter",
    "AggregatorNode",
    "FLTaskRuntime",
    "ClientSession",
    "CohortDispatcher",
    "PendingTraining",
    "Coordinator",
    "FederatedSimulation",
    "RunResult",
    "SystemConfig",
    "TaskStats",
    "Selector",
    "HashShardRouting",
    "LoadAwareShardRouting",
    "PlaneContext",
    "PlaneFactory",
    "register_plane",
    "register_routing",
    "register_trainer",
]
