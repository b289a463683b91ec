"""The ``chaos`` experiment: fault schedules × planes with recovery contracts.

PAPAYA's robustness claim is that async FL keeps making progress under
device churn, stragglers, and infrastructure failure.  This experiment
quantifies that claim: for each (fault schedule × aggregation plane)
cell it runs the same deployment twice — once clean, once under the
schedule — and reports *goodput retention* (aggregated updates vs the
clean baseline), *recovery time* (first server step after the last
fault window closes), buffered updates lost to failover, and the
conservation contracts (no device leaked, no update unaccounted for).
Non-empty schedules are additionally re-run to confirm the fault
realization replays bit-identically (same spec + seed + schedule →
same trace).

Canned schedules (:data:`SCHEDULES`) mirror the adversarial scenario
library in ``examples/scenarios/``::

    python -m repro.harness chaos
    python -m repro.harness sweep chaos --seeds 0..2 \
        --grid schedules=dropout_storm,storm_combo

``benchmarks/bench_chaos.py`` pins asserted floors on these metrics so
a regression in failover or recovery fails CI, not just a dashboard.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.api import Deployment, FaultEvent, FaultSpec, ScenarioSpec, SpecError
from repro.harness import registry
from repro.harness.report import print_points
from repro.harness.runner import train_scenario
from repro.sim.faults import recovery_report

__all__ = [
    "SCHEDULES",
    "ChaosPoint",
    "ChaosResult",
    "chaos_experiment",
    "print_chaos",
]

#: Canned fault schedules, each a tuple of (kind, at_s, params) rows.
#: Fault windows open at t=1200–1800 s and close by t=2100 s, so the
#: default 3600 s horizon leaves a recovery tail ≥ 1500 s.
SCHEDULES: dict[str, tuple] = {
    "none": (),
    "dropout_storm": (
        ("dropout_storm", 1500.0,
         {"fraction": 0.5, "duration_s": 300.0, "interval_s": 60.0}),
    ),
    "aggregator_crash": (
        ("aggregator_crash", 1500.0, {"node": 0, "recover_after_s": 300.0}),
    ),
    "coordinator_outage": (
        ("coordinator_outage", 1500.0, {"duration_s": 240.0}),
    ),
    "storm_combo": (
        ("network_delay", 1200.0, {"factor": 3.0, "duration_s": 600.0}),
        ("dropout_storm", 1500.0, {"fraction": 0.3, "duration_s": 300.0}),
        ("flash_crowd", 1800.0,
         {"burst": 20, "duration_s": 120.0, "interval_s": 60.0}),
    ),
}


@dataclass(frozen=True)
class ChaosPoint:
    """One (schedule × plane) cell of the chaos sweep."""

    schedule: str
    plane: str
    server_steps: int
    aggregated: int
    failed: int
    aborted: int
    #: aggregated / clean-baseline aggregated (1.0 for the baseline row)
    goodput_retention: float
    #: first server step after the last fault window closes (None: no
    #: fault window, or no step followed it before the horizon)
    recovery_s: float | None
    #: buffered-but-unstepped updates dropped by failover
    lost_buffered: int
    #: admitted − stepped − lost − buffered; the conservation residual
    unaccounted: int
    device_conservation_ok: bool
    updates_conservation_ok: bool
    #: same spec re-run → byte-identical trace (None: replay skipped)
    replay_identical: bool | None
    faults_fired: int
    uploads_lost: int
    checkins_blocked: int


@dataclass(frozen=True)
class ChaosResult:
    """Everything one chaos run reports to the sweep layer."""

    n_devices: int
    t_end_s: float
    seed: int
    points: list[ChaosPoint]


def _chaos_spec(
    schedule: str, plane: str, n_devices: int, seed: int, t_end_s: float
) -> ScenarioSpec:
    """The ``train`` workload on ``plane`` under one canned schedule."""
    spec = train_scenario(n_devices, seed, t_end_s)
    if plane == "sharded":
        spec = spec.with_overrides({"plane.name": "sharded", "plane.num_shards": 2})
    events = tuple(
        FaultEvent(kind, at_s, params) for kind, at_s, params in SCHEDULES[schedule]
    )
    return dataclasses.replace(spec, faults=FaultSpec(events=events))


def _run_cell(spec: ScenarioSpec):
    dep = Deployment.from_spec(spec)
    result = dep.run()
    return dep, result


def chaos_experiment(
    n_devices: int = 800,
    seed: int = 0,
    t_end_s: float = 3600.0,
    schedules: str = "all",
    planes: str = "single,sharded",
    replay: bool = True,
) -> ChaosResult:
    """Run the fault-schedule × plane grid and measure recovery.

    ``schedules`` / ``planes`` are comma-joined cell lists (sweepable as
    scalar grid values); ``schedules="all"`` expands to every canned
    schedule.  The clean baseline (``"none"``) always runs per plane —
    goodput retention is measured against it.  ``replay=True`` re-runs
    each non-empty schedule once and compares trace fingerprints.
    """
    if t_end_s < 2400.0:
        raise SpecError(
            "t_end_s",
            "the canned fault windows close by t=2100 s; the horizon "
            "must leave a recovery tail (need t_end_s >= 2400)",
        )
    wanted = (
        list(SCHEDULES) if schedules == "all" else [s.strip() for s in schedules.split(",")]
    )
    for name in wanted:
        if name not in SCHEDULES:
            raise SpecError(
                "schedules",
                f"unknown schedule {name!r}; known: {', '.join(SCHEDULES)}",
            )
    plane_list = [p.strip() for p in planes.split(",")]
    for plane in plane_list:
        if plane not in ("single", "sharded"):
            raise SpecError("planes", f"must be 'single' or 'sharded', got {plane!r}")

    points: list[ChaosPoint] = []
    for plane in plane_list:
        base_spec = _chaos_spec("none", plane, n_devices, seed, t_end_s)
        base_dep, base_result = _run_cell(base_spec)
        baseline_aggregated = base_result.stats("train").aggregated
        for schedule in wanted:
            if schedule == "none":
                dep, result = base_dep, base_result
            else:
                dep, result = _run_cell(
                    _chaos_spec(schedule, plane, n_devices, seed, t_end_s)
                )
            stats = result.stats("train")
            report = recovery_report(dep.simulation, result)
            task_report = report["tasks"].get("train", {})
            injector = dep.simulation.fault_injector
            recovery_s = None
            replay_identical = None
            if injector is not None:
                end = injector.last_fault_end_s
                step_after = next(
                    (s.time for s in result.trace.server_steps if s.time >= end), None
                )
                recovery_s = None if step_after is None else step_after - end
                if replay:
                    _, rerun = _run_cell(
                        _chaos_spec(schedule, plane, n_devices, seed, t_end_s)
                    )
                    replay_identical = rerun.sim_digest() == result.sim_digest()
            points.append(
                ChaosPoint(
                    schedule=schedule,
                    plane=plane,
                    server_steps=stats.server_steps,
                    aggregated=stats.aggregated,
                    failed=stats.failed,
                    aborted=stats.aborted,
                    goodput_retention=(
                        stats.aggregated / baseline_aggregated
                        if baseline_aggregated
                        else 0.0
                    ),
                    recovery_s=recovery_s,
                    lost_buffered=int(task_report.get("lost_buffered", 0)),
                    unaccounted=int(task_report.get("unaccounted", 0)),
                    device_conservation_ok=bool(report["device_conservation_ok"]),
                    updates_conservation_ok=bool(report["updates_conservation_ok"]),
                    replay_identical=replay_identical,
                    faults_fired=0 if injector is None else len(injector.fired),
                    uploads_lost=0 if injector is None else injector.uploads_lost,
                    checkins_blocked=(
                        0 if injector is None else injector.checkins_blocked
                    ),
                )
            )
    return ChaosResult(
        n_devices=n_devices, t_end_s=t_end_s, seed=seed, points=points
    )


def _flag(ok: bool | None) -> str | None:
    """A contract verdict as ``ok``/``VIOLATED``; None (``n/a``) if unchecked."""
    if ok is None:
        return None
    return "ok" if ok else "VIOLATED"


_CHAOS_COLUMNS = (
    ("schedule", "schedule"),
    ("plane", "plane"),
    ("steps", "server_steps"),
    ("aggregated", "aggregated"),
    ("goodput", "goodput_retention"),
    ("recovery (s)", "recovery_s"),
    ("lost buf", "lost_buffered"),
    ("unacct", "unaccounted"),
    ("conserved",
     lambda p: _flag(p.device_conservation_ok and p.updates_conservation_ok)),
    ("replay", lambda p: _flag(p.replay_identical)),
)


def print_chaos(res: ChaosResult) -> None:
    """Render a chaos run as text."""
    print_points(_CHAOS_COLUMNS, res.points, title=(
        f"Chaos — {res.n_devices} devices, "
        f"{res.t_end_s / 3600.0:.1f} h horizon, seed {res.seed}"
    ))


registry.register(
    registry.ExperimentSpec(
        "chaos",
        chaos_experiment,
        print_chaos,
        ChaosResult,
        description=(
            "fault-schedule x plane chaos sweep — goodput retention, recovery "
            "time, and conservation contracts under canned adversarial "
            "schedules"
        ),
        default_grid={},
        uses_scale=False,
    ),
    replace=True,
)
