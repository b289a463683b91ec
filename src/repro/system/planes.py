"""Pluggable registries for aggregation planes, routings, and trainers.

PAPAYA's value is running *many heterogeneous FL workloads* on one
platform; the construction knobs that used to be hard-coded branches in
:class:`~repro.system.orchestrator.FederatedSimulation` are registries
here, keyed by name, so a new plane/routing/trainer plugs in with one
``register_*`` call instead of an orchestrator edit:

* **Aggregation planes** — which aggregation core one task runs.  A
  plane factory holds the plane's knobs, chooses each task's core and
  hands it to the one :class:`~repro.system.aggregator.FLTaskRuntime`,
  which places, fails over and re-places it per shard (an unsharded
  core is the one-shard case).  Sharded and secure are two settings of
  one FedBuff core, so the built-in planes are its four corners:
  ``"single"`` (FedBuff at one shard, or SyncFL), ``"sharded"`` (FedBuff
  at S shard partials + root reducer, spread over the pool),
  ``"secure"`` (the secure core — FedBuff through Asynchronous SecAgg —
  at one shard) and ``"secure_sharded"`` (the secure core at S shard
  TSA+server pairs under one trusted root reducer).
* **Shard routings** — client→shard policies for the sharded planes
  (``"hash"``, ``"load"``; see :mod:`repro.core.sharding`).
* **Trainer adapters** — named factories building
  :class:`~repro.system.adapters.TrainerAdapter` backends from plain
  JSON-able parameters, so a serialized :class:`repro.api.ScenarioSpec`
  can name its trainer (``"surrogate"``, ``"real_lstm"``, or
  ``"external"`` for adapters injected at deployment time).

The plane is decided once per deployment: ``ScenarioSpec.plane``
names it (a custom plane by its registered name), and the simulation's
``plane`` argument builds every task on that one factory.  The only
per-task choice left is the sharded plane's: a sync task cannot be
sharded, so it runs on ``"single"`` and the plane logs a structured
``plane_fallback`` event (task, requested, chosen, reason) — the
substitution is visible in the log instead of silently absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Protocol

from repro.core.fedbuff import AggregationCore, FedBuffAggregator
from repro.core.parallel import ProcessShardedFedBuffAggregator
from repro.core.sharding import ROUTING_POLICIES
from repro.core.surrogate import SurrogateParams
from repro.core.syncfl import SyncRoundAggregator
from repro.core.types import TaskConfig, TrainingMode
from repro.system.adapters import SurrogateAdapter, TrainerAdapter
from repro.system.aggregator import FLTaskRuntime
from repro.system.secure import SecureBufferedAggregator
from repro.system.secure_sharding import ProcessSecureShardedAggregator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.engine import Simulator
    from repro.sim.population import DevicePopulation
    from repro.sim.trace import MetricsTrace
    from repro.system.client_runtime import CohortDispatcher
    from repro.utils.logging import EventLog

__all__ = [
    "Registry",
    "PlaneContext",
    "PlaneFactory",
    "SinglePlane",
    "SecurePlane",
    "ShardedPlane",
    "SecureShardedPlane",
    "register_plane",
    "get_plane",
    "plane_names",
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
# Shard routing policies
# ---------------------------------------------------------------------------

# A view over the one routing table, ``repro.core.sharding.ROUTING_POLICIES``:
# a policy registered here is also what ``FedBuffAggregator(routing="name")``
# resolves.
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
    cohort: "CohortDispatcher"


class PlaneFactory(Protocol):
    """Builds the server-side runtime of one task on one plane."""

    name: str

    def build(self, ctx: PlaneContext) -> FLTaskRuntime:  # pragma: no cover
        """Construct the task runtime for ``ctx.config``."""
        ...


class SinglePlane:
    """One aggregation core per task, at one shard."""

    name = "single"

    def core(self, ctx: PlaneContext) -> AggregationCore:
        """The task's aggregation core: the mode switch of Appendix E.3."""
        config, adapter = ctx.config, ctx.adapter
        if config.mode is TrainingMode.ASYNC:
            return FedBuffAggregator(
                adapter.state,
                goal=config.aggregation_goal,
                max_staleness=config.max_staleness,
                example_weighting=adapter.recommended_example_weighting,
                normalize_by=adapter.recommended_normalization,
            )
        return SyncRoundAggregator(
            adapter.state,
            goal=config.aggregation_goal,
            over_selection=config.over_selection,
            example_weighting=adapter.recommended_example_weighting,
        )

    def build(self, ctx: PlaneContext) -> FLTaskRuntime:
        return FLTaskRuntime(
            ctx.config, ctx.adapter, self.core(ctx), ctx.sim, ctx.trace, ctx.log,
            on_slot_free=ctx.on_slot_free, cohort=ctx.cohort,
        )


class SecurePlane(SinglePlane):
    """FedBuff through Asynchronous SecAgg (masked server-side buffer).

    FedBuff's buffer lives inside a TSA (Section 5), so the server never
    sees an update in the clear.  The secure core at one shard.
    """

    name = "secure"

    def core(self, ctx: PlaneContext) -> AggregationCore:
        config, adapter = ctx.config, ctx.adapter
        if config.mode is not TrainingMode.ASYNC:
            raise ValueError(
                "secure aggregation is implemented via the Asynchronous "
                "SecAgg protocol; set mode=ASYNC (the paper's SMPC-based "
                "synchronous SecAgg is out of scope, Section 5)"
            )
        return SecureBufferedAggregator(
            adapter.state,
            goal=config.aggregation_goal,
            vector_length=adapter.state.size,
            max_staleness=config.max_staleness,
            example_weighting=adapter.recommended_example_weighting,
        )


class ShardedPlane(SinglePlane):
    """S shard cores + a root reducer spread across the aggregator pool.

    The plane's knobs are validated here, once: ``num_shards`` shard
    partials of the one FedBuff core, clients routed to them by the
    ``shard_routing`` policy registered below, shard folds run by the
    ``"inline"`` or ``"process"`` ``executor`` (see
    :mod:`repro.core.parallel`).  ``num_shards=1`` is the degenerate
    point: the core the ``unsharded`` plane builds, inline whatever the
    executor (one shard has no lanes to spread).  Sharding partially
    evaluates FedBuff's buffered fold, so a sync task in a mixed
    workload runs on the unsharded plane, logged as a ``plane_fallback``
    event when more than one shard was asked for.
    """

    name = "sharded"
    unsharded = SinglePlane()
    inline_core = FedBuffAggregator
    process_core = ProcessShardedFedBuffAggregator

    def __init__(
        self, num_shards: int = 2, shard_routing: str = "hash", executor: str = "inline"
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if shard_routing not in routing_names():
            raise ValueError(
                f"shard_routing must be one of "
                f"{', '.join(routing_names())} (got {shard_routing!r})"
            )
        if executor not in ("inline", "process"):
            raise ValueError(
                f"executor must be 'inline' or 'process' (got {executor!r})"
            )
        self.num_shards = num_shards
        self.shard_routing = shard_routing
        self.executor = executor

    def build(self, ctx: PlaneContext) -> FLTaskRuntime:
        config = ctx.config
        if config.mode is TrainingMode.ASYNC:
            return super().build(ctx)
        # Built before the event is logged: the secure plane rejects a
        # sync task outright.
        rt = self.unsharded.build(ctx)
        if self.num_shards > 1:
            ctx.log.emit(
                ctx.sim.now, f"task:{config.name}", "plane_fallback",
                task=config.name, requested=self.name, chosen=self.unsharded.name,
                reason="sharded aggregation requires mode=ASYNC "
                       f"(task mode is {config.mode.value!r})",
            )
        return rt

    def core(self, ctx: PlaneContext) -> AggregationCore:
        """The task's core at ``num_shards`` (inline or process executor)."""
        config, adapter = ctx.config, ctx.adapter
        if config.mode is not TrainingMode.ASYNC:
            raise ValueError(
                "sharded aggregation requires mode=ASYNC: FedBuff's "
                "buffered fold is what the shards partially evaluate"
            )
        opts = dict(
            goal=config.aggregation_goal,
            num_shards=self.num_shards,
            routing=make_routing(self.shard_routing),
            max_staleness=config.max_staleness,
            example_weighting=adapter.recommended_example_weighting,
            **self._core_opts(adapter),
        )
        if self.executor == "inline" or self.num_shards == 1:
            return self.inline_core(adapter.state, **opts)

        def on_event(kind: str, fields: dict) -> None:
            # Executor events (dead-worker fallback and friends) land in
            # the event log under the task's name, so a trace reader can
            # see when a run silently degraded to the inline fold.
            ctx.log.emit(ctx.sim.now, f"task:{config.name}", kind, **fields)

        return self.process_core(adapter.state, on_event=on_event, **opts)

    @staticmethod
    def _core_opts(adapter: TrainerAdapter) -> dict[str, Any]:
        """Constructor options the float core takes beyond the shared ones."""
        return {"normalize_by": adapter.recommended_normalization}


class SecureShardedPlane(ShardedPlane):
    """Hierarchical secure aggregation: shard TSAs under one trusted root.

    The secure core at ``num_shards``: each shard runs its own
    long-lived TSA + server pair over its arrival slice; a root reducer
    merges the *masked* group sums in deterministic ascending-shard
    order before the epoch's single unmask + decode — bit-identical to
    the one-shard secure core for any shard count and routing (see
    :mod:`repro.system.secure_sharding`).
    """

    name = "secure_sharded"
    unsharded = SecurePlane()
    inline_core = SecureBufferedAggregator
    process_core = ProcessSecureShardedAggregator

    @staticmethod
    def _core_opts(adapter: TrainerAdapter) -> dict[str, Any]:
        return {"vector_length": adapter.state.size}


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
