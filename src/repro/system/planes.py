"""Pluggable registries for aggregation planes, routings, and trainers.

PAPAYA's value is running *many heterogeneous FL workloads* on one
platform; the construction knobs that used to be hard-coded branches in
:class:`~repro.system.orchestrator.FederatedSimulation` are registries
here, keyed by name, so a new plane/routing/trainer plugs in with one
``register_*`` call instead of an orchestrator edit:

* **Aggregation planes** — how one task's server-side aggregation is
  laid out over aggregator nodes.  A :class:`PlaneFactory` builds the
  task runtime; ``"single"`` (one :class:`~repro.system.aggregator.
  FLTaskRuntime` on one node), ``"sharded"`` (S shard cores + root
  reducer spread over the pool), ``"secure"`` (FedBuff through
  Asynchronous SecAgg) and ``"secure_sharded"`` (S shard TSA+server
  pairs under one trusted root reducer) are built in.
* **Shard routings** — client→shard policies for the sharded plane
  (``"hash"``, ``"load"``; see :mod:`repro.core.sharding`).
* **Trainer adapters** — named factories building
  :class:`~repro.system.adapters.TrainerAdapter` backends from plain
  JSON-able parameters, so a serialized :class:`repro.api.ScenarioSpec`
  can name its trainer (``"surrogate"``, ``"real_lstm"``, or
  ``"external"`` for adapters injected at deployment time).

Plane *selection* (:func:`resolve_plane`) extends the orchestrator's
historical derivation: secure tasks get the secure plane — hierarchical
(``"secure_sharded"``) when ``num_shards > 1``, since masked group sums
merge exactly across shards — ``num_shards > 1`` shards every async
non-secure task, everything else runs single.  When a task cannot run
on the requested plane the
selection reports a structured fallback (task, requested plane, reason)
that the orchestrator emits as a ``plane_fallback`` event — the
misconfiguration is visible in the log instead of silently absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Protocol

from repro.core.sharding import ROUTING_POLICIES
from repro.core.surrogate import SurrogateParams
from repro.core.types import TaskConfig, TrainingMode
from repro.system.adapters import SurrogateAdapter, TrainerAdapter
from repro.system.aggregator import FLTaskRuntime
from repro.system.secure_sharding import SecureShardedFLTaskRuntime
from repro.system.sharding import ShardedFLTaskRuntime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.engine import Simulator
    from repro.sim.population import DevicePopulation
    from repro.sim.trace import MetricsTrace
    from repro.system.client_runtime import CohortDispatcher
    from repro.system.orchestrator import SystemConfig
    from repro.utils.logging import EventLog

__all__ = [
    "Registry",
    "PlaneContext",
    "PlaneFactory",
    "register_plane",
    "get_plane",
    "plane_names",
    "resolve_plane",
    "register_routing",
    "make_routing",
    "routing_names",
    "register_trainer",
    "build_trainer",
    "trainer_names",
]


class Registry:
    """A tiny name→factory registry with actionable lookup errors."""

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict[str, Any] = {}

    def register(self, name: str, factory: Any, replace: bool = False) -> Any:
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string")
        if not replace and name in self._entries:
            raise ValueError(f"{self.kind} {name!r} already registered")
        self._entries[name] = factory
        return factory

    def get(self, name: str) -> Any:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; registered: "
                f"{', '.join(self.names())}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries


# ---------------------------------------------------------------------------
# Aggregation planes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneContext:
    """Everything a plane factory needs to stand up one task runtime."""

    config: TaskConfig
    adapter: TrainerAdapter
    sim: "Simulator"
    trace: "MetricsTrace"
    log: "EventLog"
    on_slot_free: Callable[[], None]
    cohort: "CohortDispatcher | None"
    system: "SystemConfig"


class PlaneFactory(Protocol):
    """Builds the server-side runtime of one task on one plane."""

    name: str

    def build(self, ctx: PlaneContext) -> FLTaskRuntime:  # pragma: no cover
        """Construct the task runtime for ``ctx.config``."""
        ...


class SinglePlane:
    """One aggregation core hosted whole on one aggregator node."""

    name = "single"

    def build(self, ctx: PlaneContext) -> FLTaskRuntime:
        return FLTaskRuntime(
            ctx.config, ctx.adapter, ctx.sim, ctx.trace, ctx.log,
            on_slot_free=ctx.on_slot_free, cohort=ctx.cohort,
        )


class SecurePlane:
    """FedBuff through Asynchronous SecAgg (masked server-side buffer).

    The secure core rides the whole-task runtime: :class:`FLTaskRuntime`
    constructs :class:`~repro.system.secure.SecureBufferedAggregator`
    when the task config demands secure aggregation.
    """

    name = "secure"

    def build(self, ctx: PlaneContext) -> FLTaskRuntime:
        if not ctx.config.secure_aggregation:
            raise ValueError(
                f"task {ctx.config.name!r} is on the secure plane but its "
                "TaskConfig has secure_aggregation=False"
            )
        return FLTaskRuntime(
            ctx.config, ctx.adapter, ctx.sim, ctx.trace, ctx.log,
            on_slot_free=ctx.on_slot_free, cohort=ctx.cohort,
        )


class ShardedPlane:
    """S shard cores + a root reducer spread across the aggregator pool."""

    name = "sharded"

    def build(self, ctx: PlaneContext) -> FLTaskRuntime:
        return ShardedFLTaskRuntime(
            ctx.config, ctx.adapter, ctx.sim, ctx.trace, ctx.log,
            on_slot_free=ctx.on_slot_free, cohort=ctx.cohort,
            num_shards=ctx.system.num_shards,
            shard_routing=make_routing(ctx.system.shard_routing),
            executor=ctx.system.shard_executor,
        )


class SecureShardedPlane:
    """Hierarchical secure aggregation: shard TSAs under one trusted root.

    Each shard runs its own long-lived TSA + server pair over its
    arrival slice; a root reducer merges the *masked* group sums in
    deterministic ascending-shard order before the epoch's single
    unmask + decode — bit-identical to the single secure plane for any
    shard count and routing (see :mod:`repro.system.secure_sharding`).
    """

    name = "secure_sharded"

    def build(self, ctx: PlaneContext) -> FLTaskRuntime:
        if not ctx.config.secure_aggregation:
            raise ValueError(
                f"task {ctx.config.name!r} is on the secure_sharded plane "
                "but its TaskConfig has secure_aggregation=False"
            )
        return SecureShardedFLTaskRuntime(
            ctx.config, ctx.adapter, ctx.sim, ctx.trace, ctx.log,
            on_slot_free=ctx.on_slot_free, cohort=ctx.cohort,
            num_shards=ctx.system.num_shards,
            shard_routing=make_routing(ctx.system.shard_routing),
            executor=ctx.system.shard_executor,
        )


_PLANES = Registry("aggregation plane")


def register_plane(factory: PlaneFactory, replace: bool = False) -> PlaneFactory:
    """Register a plane factory under ``factory.name``."""
    return _PLANES.register(factory.name, factory, replace=replace)


def get_plane(name: str) -> PlaneFactory:
    """Look up a plane factory by name (KeyError lists known planes)."""
    return _PLANES.get(name)


def plane_names() -> list[str]:
    """Sorted names of all registered planes."""
    return _PLANES.names()


register_plane(SinglePlane())
register_plane(ShardedPlane())
register_plane(SecurePlane())
register_plane(SecureShardedPlane())


def resolve_plane(
    config: TaskConfig, system: "SystemConfig"
) -> tuple[str, dict[str, str] | None]:
    """Which plane hosts this task, and whether that is a fallback.

    With ``system.plane == "auto"`` (the default) this extends the
    derivation the orchestrator hard-coded before the registry existed:

    * ``secure_aggregation`` tasks → ``"secure"``, or
      ``"secure_sharded"`` when ``num_shards > 1`` (group sums merge
      exactly across shards, so sharding composes with SecAgg);
    * ``num_shards > 1`` → ``"sharded"`` for async non-secure tasks;
    * everything else → ``"single"``.

    A non-``"auto"`` ``system.plane`` pins every task to that registered
    plane by name (the extension point for custom planes).

    Returns ``(plane_name, fallback)`` where ``fallback`` is ``None`` on
    a direct match, or ``{"requested": ..., "reason": ...}`` when the
    deployment asked for a plane this task cannot run on and a
    compatible one was substituted — the orchestrator logs it as a
    structured ``plane_fallback`` event.
    """
    if system.plane != "auto":
        return system.plane, None
    if config.secure_aggregation:
        if system.num_shards > 1:
            return "secure_sharded", None
        return "secure", None
    if system.num_shards > 1:
        if config.mode is TrainingMode.ASYNC:
            return "sharded", None
        return "single", {
            "requested": "sharded",
            "reason": "sharded aggregation requires mode=ASYNC "
                      f"(task mode is {config.mode.value!r})",
        }
    return "single", None


# ---------------------------------------------------------------------------
# Shard routing policies
# ---------------------------------------------------------------------------

# A view over the one routing table, ``repro.core.sharding.ROUTING_POLICIES``:
# a policy registered here is also what ``ShardedFedBuffAggregator(routing=
# "name")`` resolves.
_ROUTINGS = Registry("shard routing policy")
_ROUTINGS._entries = ROUTING_POLICIES


def register_routing(name: str, policy: Callable[[], Any], replace: bool = False):
    """Register a zero-argument routing-policy factory under ``name``."""
    return _ROUTINGS.register(name, policy, replace=replace)


def make_routing(name: str):
    """Instantiate the routing policy registered under ``name``."""
    return _ROUTINGS.get(name)()


def routing_names() -> list[str]:
    """Sorted names of all registered routing policies."""
    return _ROUTINGS.names()


# ---------------------------------------------------------------------------
# Trainer adapters
# ---------------------------------------------------------------------------

_TRAINERS = Registry("trainer adapter")

#: factory signature: (params, seed, population) -> TrainerAdapter
TrainerFactory = Callable[[Mapping[str, Any], int, "DevicePopulation"], TrainerAdapter]


def register_trainer(name: str, factory: TrainerFactory, replace: bool = False):
    """Register a trainer-adapter factory under ``name``.

    The factory receives the task's ``trainer_params`` mapping, the
    deployment seed, and the built device population, and returns a
    :class:`~repro.system.adapters.TrainerAdapter`.
    """
    return _TRAINERS.register(name, factory, replace=replace)


def build_trainer(
    name: str, params: Mapping[str, Any], seed: int, population: "DevicePopulation"
) -> TrainerAdapter:
    """Build the trainer adapter registered under ``name``."""
    return _TRAINERS.get(name)(params, seed, population)


def trainer_names() -> list[str]:
    """Sorted names of all registered trainer adapters."""
    return _TRAINERS.names()


def _build_surrogate(params, seed, population) -> SurrogateAdapter:
    """The analytic convergence backend (fleet-scale wall-clock runs)."""
    surrogate = SurrogateParams(**dict(params)) if params else None
    return SurrogateAdapter(surrogate, seed=seed)


def _build_external(params, seed, population) -> TrainerAdapter:
    """Placeholder for adapters injected via ``Deployment(adapters=...)``."""
    raise ValueError(
        "trainer 'external' has no factory: pass the prebuilt adapter to "
        "Deployment.from_spec(spec, adapters={task_name: adapter})"
    )


def _build_real_lstm(params, seed, population) -> TrainerAdapter:
    """Real NumPy-LSTM training on the synthetic non-IID corpus.

    Parameters (all optional): ``vocab_size``, ``embed_dim``,
    ``hidden_dim``, ``seq_len``, ``corpus_seed`` (default: deployment
    seed), ``model_seed`` (default: deployment seed), ``server_lr``,
    ``client_lr``, ``batch_size``, ``n_eval_clients``, ``eval_every``.
    """
    from repro.core.client_trainer import LocalTrainer
    from repro.core.server_opt import FedAdam
    from repro.core.state import GlobalModelState
    from repro.data.federated import FederatedDataset
    from repro.data.synthetic_text import CorpusSpec, TopicMarkovCorpus
    from repro.nn.model import LSTMLanguageModel, ModelConfig
    from repro.system.adapters import RealTrainingAdapter

    p = dict(params)
    vocab_size = int(p.pop("vocab_size", 32))
    model_cfg = ModelConfig(
        vocab_size=vocab_size,
        embed_dim=int(p.pop("embed_dim", 12)),
        hidden_dim=int(p.pop("hidden_dim", 24)),
    )
    corpus = TopicMarkovCorpus(
        CorpusSpec(vocab_size=vocab_size, seq_len=int(p.pop("seq_len", 10))),
        seed=int(p.pop("corpus_seed", seed)),
    )
    dataset = FederatedDataset(corpus)
    model_seed = int(p.pop("model_seed", seed))
    model = LSTMLanguageModel(model_cfg, seed=model_seed)
    state = GlobalModelState(model.get_flat(), FedAdam(lr=float(p.pop("server_lr", 0.05))))
    trainer = LocalTrainer(
        model_cfg,
        lr=float(p.pop("client_lr", 1.0)),
        batch_size=int(p.pop("batch_size", 8)),
        seed=model_seed,
    )
    eval_ids = list(range(int(p.pop("n_eval_clients", 16))))
    eval_every = int(p.pop("eval_every", 5))
    if p:
        raise ValueError(
            f"unknown real_lstm trainer params: {', '.join(sorted(p))}"
        )
    return RealTrainingAdapter(
        trainer,
        dataset,
        state,
        eval_clients=eval_ids,
        eval_examples=[population.profile(i).n_examples for i in eval_ids],
        eval_every=eval_every,
    )


register_trainer("surrogate", _build_surrogate)
register_trainer("external", _build_external)
register_trainer("real_lstm", _build_real_lstm)
