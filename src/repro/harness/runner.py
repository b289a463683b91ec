"""Scenario builders shared by every figure regenerator.

Every simulated figure arm is one complete :class:`~repro.api.ScenarioSpec`
from :func:`async_scenario` / :func:`sync_scenario`, population, horizon
and stop conditions included, so it runs from the spec alone as
``Deployment.from_spec(spec).run()``.  :func:`sync_vs_async` and
:func:`four_configs` are the arm templates several figures share, which
is what lets the sweep executor run a shared arm once; :func:`to_target`
is the time-to-target reducer.  :func:`train_scenario` is the plain
async workload the ``chaos`` and ``obs`` experiments perturb.
"""

from __future__ import annotations

import dataclasses
import math

from repro.api import (
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
from repro.system.orchestrator import RunResult

__all__ = [
    "make_population",
    "async_scenario",
    "sync_scenario",
    "sync_goal",
    "sync_vs_async",
    "four_configs",
    "to_target",
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


def sync_vs_async(scale: Scale, seed: int, concurrencies, **execution) -> dict[str, ScenarioSpec]:
    """Figures 3 and 7–9's arms: ``sync@C`` (SyncFL w/ OS) and ``async@C``
    (AsyncFL at the base K) for each concurrency ``C``."""
    pop = PopulationSpec(n_devices=scale.population, seed=seed)
    arm = dict(surrogate=scale.surrogate, **execution)
    arms = {}
    for conc in concurrencies:
        arms[f"sync@{conc}"] = sync_scenario(sync_goal(conc), pop, seed=seed, **arm)
        arms[f"async@{conc}"] = async_scenario(conc, scale.base_goal, pop, seed=seed + 1, **arm)
    return arms


def four_configs(scale: Scale, seed: int, **execution) -> dict[str, ScenarioSpec]:
    """Figures 11–13's four configurations (paper: goal=1000 at C=1300)."""
    pop = PopulationSpec(n_devices=scale.population, seed=seed)
    conc = scale.base_concurrency
    big_goal = sync_goal(conc)  # e.g. 1000 at paper scale
    arm = dict(seed=seed, surrogate=scale.surrogate, **execution)
    return {
        "async_small_k": async_scenario(conc, scale.base_goal, pop, **arm),
        "async_big_k": async_scenario(conc, big_goal, pop, **arm),
        "sync_with_os": sync_scenario(big_goal, pop, **arm),
        "sync_without_os": sync_scenario(big_goal, pop, over_selection=0.0, **arm),
    }


def to_target(res: RunResult) -> tuple[float | None, int, float]:
    """One arm's (seconds to target, comm trips until then, steps/h).

    Comm trips are the client updates the server received (aggregated or
    discarded) by the time the target was reached, or by the horizon.
    """
    task, t = res.stats().name, res.stats().time_to_target
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
