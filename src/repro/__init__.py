"""repro — reproduction of PAPAYA: Practical, Private, and Scalable Federated Learning.

**Start at** :mod:`repro.api`: describe a deployment as a declarative,
serializable :class:`ScenarioSpec` (population + tasks + aggregation
plane + privacy + execution knobs) and build/run it through the
:class:`Deployment` façade — the single construction path for every
simulation in the repo::

    from repro.api import (
        Deployment, ExecutionSpec, PopulationSpec, ScenarioSpec, TaskSpec,
    )

    spec = ScenarioSpec(
        population=PopulationSpec(n_devices=10_000),
        tasks=(TaskSpec(name="lm", mode="async",
                        concurrency=64, aggregation_goal=8),),
        execution=ExecutionSpec(seed=0, t_end_s=3600.0),
    )
    result = Deployment.from_spec(spec).run()

Specs round-trip through JSON (``spec.to_dict()``), validate invalid
combinations with field-named errors, and sweep declaratively
(``python -m repro.harness sweep scenario --spec s.json --grid
plane.num_shards=1,2,4``).  Aggregation planes (``"single"``,
``"sharded"``, ``"secure"``), shard routing policies, and trainer
adapters are named entries in the :mod:`repro.system.planes` registries,
so new ones plug in without touching the orchestrator.

Subpackage layout:

* :mod:`repro.api` — the scenario API: ``ScenarioSpec`` + ``Deployment``.
* :mod:`repro.core` — FedBuff buffered asynchronous aggregation (scalar,
  batched-block, and sharded-hierarchical), SyncFL with over-selection,
  server optimizers, client trainer, staleness policies, the DP
  extension, and the surrogate convergence model.
* :mod:`repro.secagg` — Asynchronous Secure Aggregation (TEE-style trusted
  aggregator, DH channels, additive masking, attestation, verifiable log).
* :mod:`repro.system` — Coordinator / Selector / Aggregator / client runtime,
  the SecAgg-integrated buffered aggregator, and the plane/routing/trainer
  registries (:mod:`repro.system.planes`).
* :mod:`repro.sim` — discrete-event simulator and heterogeneous device
  population (substitute for the paper's ~100M-device fleet).
* :mod:`repro.nn` / :mod:`repro.data` — NumPy LSTM language model and the
  synthetic non-IID federated corpus it trains on.
* :mod:`repro.harness` — regeneration of every figure and table in the paper
  plus parallel cached sweeps (also a CLI: ``python -m repro.harness``).

The most common entry points are re-exported here.
"""

from repro.api import (
    Deployment,
    ExecutionSpec,
    PlaneSpec,
    PopulationSpec,
    ScenarioSpec,
    TaskSpec,
)
from repro.core import (
    FedAdam,
    FedBuffAggregator,
    GlobalModelState,
    LocalTrainer,
    SyncRoundAggregator,
    TaskConfig,
    TrainingMode,
)
from repro.data import CorpusSpec, FederatedDataset, TopicMarkovCorpus
from repro.nn import LSTMLanguageModel, ModelConfig
from repro.sim import DevicePopulation, PopulationConfig
from repro.system import (
    FederatedSimulation,
    RealTrainingAdapter,
    SurrogateAdapter,
    SystemConfig,
)

__version__ = "1.0.0"

__all__ = [
    "Deployment",
    "ScenarioSpec",
    "PopulationSpec",
    "TaskSpec",
    "PlaneSpec",
    "ExecutionSpec",
    "FedAdam",
    "FedBuffAggregator",
    "GlobalModelState",
    "LocalTrainer",
    "SyncRoundAggregator",
    "TaskConfig",
    "TrainingMode",
    "CorpusSpec",
    "FederatedDataset",
    "TopicMarkovCorpus",
    "LSTMLanguageModel",
    "ModelConfig",
    "DevicePopulation",
    "PopulationConfig",
    "FederatedSimulation",
    "RealTrainingAdapter",
    "SurrogateAdapter",
    "SystemConfig",
    "__version__",
]
