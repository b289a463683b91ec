"""The ``Deployment`` façade: one construction path for every simulation.

``Deployment.from_spec(spec).build()`` turns a declarative
:class:`~repro.api.spec.ScenarioSpec` into a runnable
:class:`~repro.system.orchestrator.FederatedSimulation`; ``.run()``
executes it with the spec's execution knobs.  Every simulation in the
repo — harness runners, figure regenerators, examples — is constructed
here, so plane selection, trainer-adapter wiring, and population
construction have exactly one implementation (a CI check forbids direct
``FederatedSimulation(...)`` construction elsewhere).

Escape hatches for callers that already hold live objects:

* ``population=`` reuses a built :class:`DevicePopulation` (the spec's
  population section should still describe it —
  :meth:`PopulationSpec.from_population` derives a faithful spec);
* ``adapters=`` injects prebuilt trainer adapters by task name (pair
  with ``trainer="external"`` in the task spec);
* ``network=`` substitutes a custom :class:`NetworkModel`.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

from repro.api.spec import ScenarioSpec, SpecError
from repro.sim.network import NetworkModel
from repro.sim.population import ColumnarDevicePopulation, DevicePopulation
from repro.system import planes
from repro.system.adapters import TrainerAdapter
from repro.system.orchestrator import FederatedSimulation, RunResult

__all__ = ["Deployment", "build", "run", "build_population"]


def build_population(spec) -> DevicePopulation:
    """Build the device fleet a :class:`PopulationSpec` describes.

    ``spec.seed=None`` (deployment-seed deferral) resolves to 0 here;
    deployments resolve it against their execution seed instead.
    ``spec.columnar`` selects the struct-of-arrays fleet representation.
    """
    cls = ColumnarDevicePopulation if spec.columnar else DevicePopulation
    return cls(spec.population_config(), seed=spec.seed or 0)


class Deployment:
    """A scenario bound to (lazily) built runtime objects."""

    def __init__(
        self,
        spec: ScenarioSpec,
        population: DevicePopulation | None = None,
        adapters: Mapping[str, TrainerAdapter] | None = None,
        network: NetworkModel | None = None,
    ):
        if not isinstance(spec, ScenarioSpec):
            raise SpecError("spec", f"expected a ScenarioSpec, got {type(spec).__name__}")
        self.spec = spec
        self._population = population
        self._network = network
        self.adapters: dict[str, TrainerAdapter] = dict(adapters or {})
        unknown = sorted(set(self.adapters) - {t.name for t in spec.tasks})
        if unknown:
            raise SpecError(
                "adapters",
                f"no such task(s): {', '.join(unknown)}; "
                f"tasks: {', '.join(t.name for t in spec.tasks)}",
            )
        for task in spec.tasks:
            if task.name in self.adapters and task.trainer != "external":
                # An injected adapter would silently supersede the declared
                # trainer and its params — the serialized spec would then
                # misdescribe what ran.
                raise SpecError(
                    f"tasks[{task.name}].trainer",
                    f"declared {task.trainer!r} but an adapter was injected "
                    "for this task; declare trainer='external' so the spec "
                    "says what runs",
                )
        self._simulation: FederatedSimulation | None = None

    @classmethod
    def from_spec(cls, spec: ScenarioSpec, **overrides) -> "Deployment":
        """The canonical constructor (reads as ``Deployment.from_spec(spec)``)."""
        return cls(spec, **overrides)

    # -- lazily built pieces ------------------------------------------------

    @property
    def population(self) -> DevicePopulation:
        """The device fleet (built once per deployment)."""
        if self._population is None:
            self._population = build_population(
                dataclasses.replace(
                    self.spec.population, seed=self.spec.population_seed()
                )
            )
        return self._population

    def adapter(self, task_name: str) -> TrainerAdapter:
        """The (built) trainer adapter of one task."""
        if task_name not in {t.name for t in self.spec.tasks}:
            raise SpecError(
                "adapters",
                f"no such task {task_name!r}; tasks: "
                f"{', '.join(t.name for t in self.spec.tasks)}",
            )
        if task_name not in self.adapters:
            self.build()
        return self.adapters[task_name]

    def build(self) -> FederatedSimulation:
        """Construct the simulation (idempotent; returns the same object)."""
        if self._simulation is not None:
            return self._simulation
        spec = self.spec
        population = self.population
        tasks = []
        for task_spec, config in zip(spec.tasks, spec.task_configs()):
            adapter = self.adapters.get(task_spec.name)
            if adapter is None:
                if task_spec.trainer == "external":
                    raise SpecError(
                        f"tasks[{task_spec.name}].trainer",
                        "declared 'external' but no adapter was passed via "
                        "Deployment.from_spec(spec, adapters={...})",
                    )
                adapter = planes.build_trainer(
                    task_spec.trainer,
                    dict(task_spec.trainer_params),
                    seed=spec.execution.seed,
                    population=population,
                )
                self.adapters[task_spec.name] = adapter
            tasks.append((config, adapter))
        self._simulation = FederatedSimulation(
            tasks,
            population,
            network=self._network,
            system=spec.system_config(),
            plane=spec.plane.factory(),
            seed=spec.execution.seed,
            target_loss=spec.execution.target_loss,
        )
        if spec.faults.events:
            # Constructed only when a schedule exists: a FaultSpec with
            # no events perturbs nothing (byte-identity of the default).
            from repro.sim.faults import FaultInjector

            fault_seed = (
                spec.faults.seed
                if spec.faults.seed is not None
                else spec.execution.seed
            )
            injector = FaultInjector(self._simulation, seed=fault_seed)
            for event in spec.faults.events:
                injector.schedule(event.kind, event.at_s, **dict(event.params))
        if spec.telemetry:
            # Attached only when enabled: a default TelemetrySpec builds
            # no observer and the run stays byte-identical to pre-
            # telemetry code.
            from repro.obs.telemetry import RunTelemetry

            RunTelemetry(
                max_spans=spec.telemetry.max_spans,
                profiling=spec.telemetry.profiling,
            ).attach(self._simulation)
        return self._simulation

    @property
    def simulation(self) -> FederatedSimulation:
        """The built simulation (building it on first access)."""
        return self.build()

    # -- execution ----------------------------------------------------------

    def run(
        self,
        t_end: float | None = None,
        target_loss: float | None = None,
        max_server_steps: int | None = None,
        max_events: int | None = None,
    ) -> RunResult:
        """Build and execute; arguments default to the spec's execution knobs."""
        execution = self.spec.execution
        horizon = t_end if t_end is not None else execution.t_end_s
        if horizon is None:
            raise SpecError(
                "execution.t_end_s",
                "no time horizon: set it in the spec or pass run(t_end=...)",
            )
        return self.build().run(
            t_end=horizon,
            target_loss=(
                target_loss if target_loss is not None else execution.target_loss
            ),
            max_server_steps=(
                max_server_steps
                if max_server_steps is not None
                else execution.max_server_steps
            ),
            max_events=max_events,
        )


def build(spec: ScenarioSpec, **overrides) -> FederatedSimulation:
    """``Deployment.from_spec(spec, **overrides).build()`` in one call."""
    return Deployment.from_spec(spec, **overrides).build()


def run(spec: ScenarioSpec, **run_kwargs) -> RunResult:
    """``Deployment.from_spec(spec).run(**run_kwargs)`` in one call."""
    return Deployment.from_spec(spec).run(**run_kwargs)
