"""Scenario builders shared by every figure regenerator.

The figure functions describe their deployments as
:class:`~repro.api.ScenarioSpec` values via :func:`async_scenario` /
:func:`sync_scenario` and build them through the :mod:`repro.api`
façade (:func:`deploy` reuses an already-built population).
"""

from __future__ import annotations

import dataclasses

from repro.api import (
    Deployment,
    ExecutionSpec,
    PopulationSpec,
    ScenarioSpec,
    TaskSpec,
    build_population,
)
from repro.core.surrogate import SurrogateParams
from repro.harness.configs import CLIENT_TIMEOUT_S, OVER_SELECTION
from repro.sim.population import DevicePopulation
from repro.system.orchestrator import FederatedSimulation

__all__ = [
    "make_population",
    "async_scenario",
    "sync_scenario",
    "deploy",
    "DEFAULT_TARGET_LOSS",
]

# With the default SurrogateParams (initial 4.16, floor 2.2) this target
# requires substantial but attainable progress — runs reach it in a few
# simulated hours at paper-like ratios.
DEFAULT_TARGET_LOSS = 2.55

# Small model-on-the-wire for simulation speed; the wire size only shifts
# network latencies, which are dwarfed by training times.
SIM_MODEL_BYTES = 1_000_000


def make_population(n_devices: int, seed: int = 0, **overrides) -> DevicePopulation:
    """The standard heterogeneous population (Figure 2-calibrated)."""
    return build_population(
        PopulationSpec(n_devices=n_devices, seed=seed, overrides=overrides)
    )


def _trainer_params(surrogate: SurrogateParams | None) -> dict:
    """Serialize surrogate calibration constants for a TaskSpec."""
    if surrogate is None:
        return {}
    return {
        f.name: getattr(surrogate, f.name)
        for f in dataclasses.fields(SurrogateParams)
    }


def _population_spec(
    population: DevicePopulation | PopulationSpec,
) -> PopulationSpec:
    if isinstance(population, PopulationSpec):
        return population
    return PopulationSpec.from_population(population)


def async_scenario(
    concurrency: int,
    goal: int,
    population: DevicePopulation | PopulationSpec,
    seed: int = 0,
    max_staleness: int = 100,
    surrogate: SurrogateParams | None = None,
    target_loss: float | None = None,
    t_end_s: float | None = None,
) -> ScenarioSpec:
    """An AsyncFL (FedBuff) deployment with a surrogate trainer, as a spec."""
    return ScenarioSpec(
        population=_population_spec(population),
        tasks=(
            TaskSpec(
                name="async",
                mode="async",
                concurrency=concurrency,
                aggregation_goal=goal,
                max_staleness=max_staleness,
                client_timeout_s=CLIENT_TIMEOUT_S,
                model_size_bytes=SIM_MODEL_BYTES,
                trainer="surrogate",
                trainer_params=_trainer_params(surrogate),
            ),
        ),
        execution=ExecutionSpec(
            seed=seed, t_end_s=t_end_s, target_loss=target_loss
        ),
    )


def sync_scenario(
    goal: int,
    population: DevicePopulation | PopulationSpec,
    over_selection: float = OVER_SELECTION,
    seed: int = 0,
    surrogate: SurrogateParams | None = None,
    target_loss: float | None = None,
    t_end_s: float | None = None,
) -> ScenarioSpec:
    """A SyncFL deployment spec; concurrency = the over-selected cohort."""
    import math

    cohort = int(math.ceil(goal * (1.0 + over_selection)))
    return ScenarioSpec(
        population=_population_spec(population),
        tasks=(
            TaskSpec(
                name="sync",
                mode="sync",
                concurrency=cohort,
                aggregation_goal=goal,
                over_selection=over_selection,
                client_timeout_s=CLIENT_TIMEOUT_S,
                model_size_bytes=SIM_MODEL_BYTES,
                trainer="surrogate",
                trainer_params=_trainer_params(surrogate),
            ),
        ),
        execution=ExecutionSpec(
            seed=seed, t_end_s=t_end_s, target_loss=target_loss
        ),
    )


def deploy(
    spec: ScenarioSpec, population: DevicePopulation | None = None
) -> FederatedSimulation:
    """Build a spec through the façade, reusing a built population."""
    return Deployment.from_spec(spec, population=population).build()
