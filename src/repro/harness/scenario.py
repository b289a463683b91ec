"""The ``scenario`` experiment: sweep arbitrary declarative deployments.

Every figure/table experiment encodes one fixed deployment topology; the
``scenario`` experiment instead takes a whole serialized
:class:`~repro.api.ScenarioSpec` as its parameter, so *any* deployment a
spec can describe — population size, task mix, plane, privacy, system
knobs — is runnable and sweepable through the PR-1 harness layer without
writing a new runner::

    python -m repro.harness scenario --spec my_scenario.json
    python -m repro.harness sweep scenario --spec my_scenario.json \
        --seeds 0..4 --grid plane.num_shards=1,2,4

Grid keys are dotted :meth:`ScenarioSpec.override` paths applied on top
of the base spec (the sweep seed always overrides ``execution.seed``),
so sweeps grid directly over scenario fields.  The spec must carry an
``execution.t_end_s`` horizon.  The experiment is an arm set of one arm
(the spec with its overrides applied), so the arm store serves a
repeated scenario like any figure arm.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.api import ScenarioSpec, SpecError
from repro.harness import registry
from repro.harness.configs import SMOKE
from repro.harness.report import print_points

__all__ = [
    "ScenarioTaskSummary",
    "ScenarioRunSummary",
    "run_scenario",
    "print_scenario",
]


@dataclass(frozen=True)
class ScenarioTaskSummary:
    """One task's outcome counters (a JSON-able TaskStats)."""

    name: str
    server_steps: int
    final_loss: float
    time_to_target_s: float | None
    comm_trips: int
    downloads: int
    aggregated: int
    discarded: int
    failed: int
    timeouts: int
    aborted: int
    mean_staleness: float


@dataclass(frozen=True)
class ScenarioRunSummary:
    """Everything one scenario run reports to the sweep layer."""

    duration_s: float
    plane: str
    num_shards: int
    tasks: list[ScenarioTaskSummary]


def _scenario_spec(spec, seed: int | None, overrides: Mapping[str, Any]) -> ScenarioSpec:
    """The one arm: ``spec`` with ``overrides`` and (when given) ``seed`` applied."""
    if spec is None:
        raise SpecError(
            "spec",
            "the scenario experiment needs a spec document "
            "(CLI: --spec scenario.json)",
        )
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, ScenarioSpec):
        spec = ScenarioSpec.from_dict(spec)
    merged = dict(overrides)
    if seed is not None:
        merged["execution.seed"] = int(seed)
    if merged:
        spec = spec.with_overrides(merged)
    if spec.execution.t_end_s is None:
        raise SpecError(
            "execution.t_end_s",
            "the scenario experiment needs a time horizon in the spec",
        )
    return spec


def run_scenario(
    spec: ScenarioSpec | Mapping[str, Any] | str,
    seed: int | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> ScenarioRunSummary:
    """Run one scenario through the sweep executor (unstored).

    ``spec`` may be a :class:`ScenarioSpec`, its ``to_dict`` document,
    or that document as a JSON string (how sweep cells carry it).
    ``seed`` (when given) replaces ``execution.seed``; ``overrides`` are
    dotted :meth:`ScenarioSpec.override` paths applied atomically.
    """
    return registry.get("scenario").run(SMOKE, seed, spec=spec, **dict(overrides or {}))


def _scenario_arms(seed: int | None = None, spec=None, **overrides) -> dict[str, ScenarioSpec]:
    return {"scenario": _scenario_spec(spec, seed, overrides)}


def _scenario_reduce(runs, seed: int | None = None, spec=None,
                     **overrides) -> ScenarioRunSummary:
    spec, result = _scenario_spec(spec, seed, overrides), runs["scenario"]
    return ScenarioRunSummary(
        duration_s=result.duration_s,
        plane=spec.plane.name,
        num_shards=spec.plane.num_shards,
        # ScenarioTaskSummary is TaskStats field for field.
        tasks=[ScenarioTaskSummary(*dataclasses.astuple(stats))
               for stats in result.task_stats.values()],
    )


#: ``print_scenario``'s columns (``report.print_points``)
_COLUMNS = (
    ("task", "name"), ("steps", "server_steps"), ("final loss", "final_loss"),
    ("to target (h)", lambda t: None if t.time_to_target_s is None
     else t.time_to_target_s / 3600.0),
    ("aggregated", "aggregated"), ("discarded", "discarded"), ("failed", "failed"),
    ("aborted", "aborted"), ("mean staleness", "mean_staleness"),
)


def print_scenario(res: ScenarioRunSummary) -> None:
    """Render a scenario run as text."""
    print_points(
        _COLUMNS,
        res.tasks,
        title=(
            f"Scenario — plane={res.plane}"
            + (f" (S={res.num_shards})" if res.num_shards > 1 else "")
            + f", {res.duration_s / 3600.0:.2f} simulated hours"
        ),
    )


registry.register(
    registry.ExperimentSpec(
        "scenario",
        None,
        print_scenario,
        ScenarioRunSummary,
        description="run/sweep an arbitrary declarative ScenarioSpec deployment",
        uses_scale=False,
        arms=_scenario_arms,
        reduce=_scenario_reduce,
    ),
    replace=True,
)
