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
``execution.t_end_s`` horizon.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.api import Deployment, ScenarioSpec, SpecError
from repro.harness import registry
from repro.harness.report import print_table

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


def run_scenario(
    spec: ScenarioSpec | Mapping[str, Any] | str,
    seed: int | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> ScenarioRunSummary:
    """Build + run one scenario through :class:`~repro.api.Deployment`.

    ``spec`` may be a :class:`ScenarioSpec`, its ``to_dict`` document,
    or that document as a JSON string (how sweep cells carry it).
    ``seed`` (when given) replaces ``execution.seed``; ``overrides`` are
    dotted :meth:`ScenarioSpec.override` paths applied atomically.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, ScenarioSpec):
        spec = ScenarioSpec.from_dict(spec)
    merged = dict(overrides or {})
    if seed is not None:
        merged["execution.seed"] = int(seed)
    if merged:
        spec = spec.with_overrides(merged)
    if spec.execution.t_end_s is None:
        raise SpecError(
            "execution.t_end_s",
            "the scenario experiment needs a time horizon in the spec",
        )
    result = Deployment.from_spec(spec).run()
    tasks = [
        ScenarioTaskSummary(
            name=stats.name,
            server_steps=stats.server_steps,
            final_loss=stats.final_loss,
            time_to_target_s=stats.time_to_target,
            comm_trips=stats.comm_trips,
            downloads=stats.downloads,
            aggregated=stats.aggregated,
            discarded=stats.discarded,
            failed=stats.failed,
            timeouts=stats.timeouts,
            aborted=stats.aborted,
            mean_staleness=stats.mean_staleness,
        )
        for stats in result.task_stats.values()
    ]
    return ScenarioRunSummary(
        duration_s=result.duration_s,
        plane=spec.plane.name,
        num_shards=spec.plane.num_shards,
        tasks=tasks,
    )


def print_scenario(res: ScenarioRunSummary) -> None:
    """Render a scenario run as text."""
    print_table(
        ["task", "steps", "final loss", "to target (h)", "aggregated",
         "discarded", "failed", "aborted", "mean staleness"],
        [
            [t.name, t.server_steps, t.final_loss,
             "n/a" if t.time_to_target_s is None else t.time_to_target_s / 3600.0,
             t.aggregated, t.discarded, t.failed, t.aborted, t.mean_staleness]
            for t in res.tasks
        ],
        title=(
            f"Scenario — plane={res.plane}"
            + (f" (S={res.num_shards})" if res.num_shards > 1 else "")
            + f", {res.duration_s / 3600.0:.2f} simulated hours"
        ),
    )


def _run_scenario(seed: int | None = None, spec=None, **overrides) -> ScenarioRunSummary:
    """Registry runner: ``spec`` is a ScenarioSpec document (dict)."""
    if spec is None:
        raise SpecError(
            "spec",
            "the scenario experiment needs a spec document "
            "(CLI: --spec scenario.json)",
        )
    return run_scenario(spec, seed=seed, overrides=overrides)


registry.register(
    registry.ExperimentSpec(
        "scenario",
        _run_scenario,
        print_scenario,
        ScenarioRunSummary,
        description="run/sweep an arbitrary declarative ScenarioSpec deployment",
        default_grid={},
        uses_scale=False,
    ),
    replace=True,
)
