"""Scenario builders shared by every figure regenerator.

Every simulated figure arm is one complete :class:`~repro.api.ScenarioSpec`
from :func:`async_scenario` / :func:`sync_scenario`, horizon and stop
conditions included (:func:`sync_vs_async` and :func:`four_configs` are
the arm sets several figures share), run as
``Deployment.from_spec(spec, population=pop).run()`` with the figure's
already-built population; :func:`run_to_target` is the time-to-target
reducer.  :func:`train_scenario` is the plain async workload the
``chaos`` and ``obs`` experiments perturb.
"""

from __future__ import annotations

import dataclasses
import math

from repro.api import (
    Deployment,
    ExecutionSpec,
    PopulationSpec,
    ScenarioSpec,
    TaskSpec,
    build_population,
)
from repro.core.surrogate import SurrogateParams
from repro.harness.configs import CLIENT_TIMEOUT_S, OVER_SELECTION, Scale
from repro.sim.population import DevicePopulation
from repro.sim.trace import Outcome

__all__ = [
    "make_population",
    "async_scenario",
    "sync_scenario",
    "sync_goal",
    "sync_vs_async",
    "four_configs",
    "run_to_target",
    "train_scenario",
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


def _surrogate_scenario(
    population: DevicePopulation | PopulationSpec,
    seed: int,
    surrogate: SurrogateParams | None,
    target_loss: float | None,
    t_end_s: float | None,
    **task,
) -> ScenarioSpec:
    """One surrogate-trained task at the figures' timeout and wire size."""
    if not isinstance(population, PopulationSpec):
        population = PopulationSpec.from_population(population)
    params = {} if surrogate is None else dataclasses.asdict(surrogate)
    return ScenarioSpec(
        population=population,
        tasks=(
            TaskSpec(
                client_timeout_s=CLIENT_TIMEOUT_S,
                model_size_bytes=SIM_MODEL_BYTES,
                trainer="surrogate",
                trainer_params=params,
                **task,
            ),
        ),
        execution=ExecutionSpec(
            seed=seed, t_end_s=t_end_s, target_loss=target_loss
        ),
    )


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
    return _surrogate_scenario(
        population, seed, surrogate, target_loss, t_end_s,
        name="async", mode="async", concurrency=concurrency,
        aggregation_goal=goal, max_staleness=max_staleness,
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
    return _surrogate_scenario(
        population, seed, surrogate, target_loss, t_end_s,
        name="sync", mode="sync",
        concurrency=int(math.ceil(goal * (1.0 + over_selection))),
        aggregation_goal=goal, over_selection=over_selection,
    )


def sync_goal(concurrency: int, over_selection: float = OVER_SELECTION) -> int:
    """The paper's convention: concurrency = goal × (1 + over-selection).

    Floored so the over-selected cohort never exceeds the concurrency cap
    (ceil(floor(C/1.3) × 1.3) ≤ C).
    """
    return max(1, int(concurrency / (1.0 + over_selection)))


def sync_vs_async(scale: Scale, pop: DevicePopulation, conc: int, seed: int,
                  **execution) -> tuple[ScenarioSpec, ScenarioSpec]:
    """Figures 7–9's arms at one concurrency: SyncFL w/ OS, AsyncFL at the base K."""
    arm = dict(surrogate=scale.surrogate, **execution)
    return (sync_scenario(sync_goal(conc), pop, seed=seed, **arm),
            async_scenario(conc, scale.base_goal, pop, seed=seed + 1, **arm))


def four_configs(scale: Scale, pop: DevicePopulation, seed: int,
                 **execution) -> dict[str, ScenarioSpec]:
    """Figures 12–13's four configurations (paper: goal=1000 at C=1300)."""
    conc = scale.base_concurrency
    big_goal = sync_goal(conc)  # e.g. 1000 at paper scale
    arm = dict(seed=seed, surrogate=scale.surrogate, **execution)
    return {
        "async_small_k": async_scenario(conc, scale.base_goal, pop, **arm),
        "async_big_k": async_scenario(conc, big_goal, pop, **arm),
        "sync_with_os": sync_scenario(big_goal, pop, **arm),
        "sync_without_os": sync_scenario(big_goal, pop, over_selection=0.0, **arm),
    }


def run_to_target(
    spec: ScenarioSpec, pop: DevicePopulation
) -> tuple[float | None, int, float]:
    """Run one arm: (seconds to target, comm trips until then, steps/h).

    Comm trips are the client updates the server received (aggregated or
    discarded) by the time the target was reached, or by the horizon.
    """
    res = Deployment.from_spec(spec, population=pop).run()
    (task,) = res.task_stats
    t = res.task_stats[task].time_to_target
    horizon = math.inf if t is None else t
    trips = sum(
        1
        for p in res.trace.participations
        if p.task == task
        and p.outcome in (Outcome.AGGREGATED, Outcome.DISCARDED)
        and p.end_time <= horizon
    )
    return t, trips, res.trace.steps_per_hour(task)


def train_scenario(n_devices: int, seed: int, t_end_s: float) -> ScenarioSpec:
    """The async ``train`` task (48 concurrent clients, K=8) on a fresh fleet."""
    return async_scenario(
        48, 8, PopulationSpec(n_devices=n_devices), seed=seed, t_end_s=t_end_s
    ).override("tasks.async.name", "train")
