"""Hypothesis strategies for complete, valid :class:`ScenarioSpec`\\ s.

:func:`scenario_specs` draws every section: all four built-in planes
(sharded ones with both executors), a task mix (sync tasks only where
the plane allows them), population overrides and the columnar fleet,
system overrides, fault schedules drawn from ``FAULT_KINDS`` (with
``worker_kill`` only on a sharded process plane) and telemetry.

:data:`FIELD_STRATEGIES` names, per section class, the strategy of
every field that is not :data:`COMPOSED` across sections;
``test_spec_properties.py`` holds the two in lockstep with
``dataclasses.fields`` (and :data:`PARAM_STRATEGIES` with
``FAULT_KINDS``), so a new spec field cannot go ungenerated.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.api import (
    ExecutionSpec,
    FaultEvent,
    FaultSpec,
    PlaneSpec,
    PopulationSpec,
    ScenarioSpec,
    TaskSpec,
    TelemetrySpec,
)
from repro.sim.faults import FAULT_KINDS

_names = st.sampled_from(["a", "b", "lm-task", "τ"])
_seconds = st.floats(1.0, 600.0, allow_nan=False)
_fractions = st.floats(0.05, 1.0, allow_nan=False)

#: one strategy per FaultKind parameter name (``node``, ``task`` and
#: ``shard`` are bounded by the scenario, see :func:`_fault_events`)
PARAM_STRATEGIES = {
    "node": st.integers(0, 1),
    "recover_after_s": _seconds,
    "count": st.integers(1, 3),
    "down_s": _seconds,
    "up_s": _seconds,
    "duration_s": _seconds,
    "fraction": _fractions,
    "interval_s": _seconds,
    "factor": st.floats(1.0, 5.0, allow_nan=False),
    "rate": _fractions,
    "amplitude": _fractions,
    "period_s": _seconds,
    "burst": st.integers(1, 50),
    "task": _names,
    "shard": st.integers(0, 0),
}

FIELD_STRATEGIES: dict[type, dict[str, st.SearchStrategy]] = {
    PopulationSpec: {
        "n_devices": st.integers(10, 5000),
        "seed": st.none() | st.integers(0, 100),
        "overrides": st.dictionaries(
            st.sampled_from(["mean_examples", "dropout_rate"]),
            st.floats(0.01, 0.5, allow_nan=False),
            max_size=2,
        ),
        "columnar": st.booleans(),
    },
    TaskSpec: {
        "name": _names,
        "mode": st.sampled_from(["async", "sync"]),
        "concurrency": st.integers(8, 64),
        "aggregation_goal": st.integers(1, 8),
        "over_selection": st.sampled_from([0.0, 0.3]),
        "max_staleness": st.integers(0, 200),
        "client_timeout_s": st.sampled_from([60.0, 240.0]),
        "local_epochs": st.integers(1, 3),
        "batch_size": st.sampled_from([8, 32]),
        "client_lr": st.floats(0.01, 1.0, allow_nan=False),
        "model_size_bytes": st.sampled_from([1_000, 1_000_000]),
        "trainer": st.sampled_from(["surrogate", "external"]),
        "trainer_params": st.dictionaries(
            st.sampled_from(["critical_goal", "tau", "beta"]),
            st.floats(0.5, 100.0, allow_nan=False) | st.booleans(),
            max_size=2,
        ),
    },
    PlaneSpec: {
        "name": st.sampled_from(["single", "sharded", "secure", "secure_sharded"]),
        "num_shards": st.integers(1, 4),
        "shard_routing": st.sampled_from(["hash", "load"]),
        "executor": st.sampled_from(["inline", "process"]),
    },
    ExecutionSpec: {
        "seed": st.integers(0, 1000),
        "t_end_s": st.none() | st.floats(1.0, 1e6, allow_nan=False),
        "target_loss": st.none() | st.floats(2.0, 4.0, allow_nan=False),
        "max_server_steps": st.none() | st.integers(1, 100),
    },
    FaultEvent: {
        "kind": st.sampled_from(sorted(FAULT_KINDS)),
        "at_s": st.floats(0.0, 3600.0, allow_nan=False),
    },
    FaultSpec: {
        "seed": st.none() | st.integers(0, 100),
    },
    TelemetrySpec: {
        "enabled": st.just(True),
        "max_spans": st.integers(1, 200_000),
        "profiling": st.booleans(),
    },
}

#: fields drawn jointly by :func:`scenario_specs`, because their valid
#: values depend on other sections (fault targets, plane × task mode)
COMPOSED: dict[type, set[str]] = {
    FaultEvent: {"params"},  # per kind, from PARAM_STRATEGIES
    FaultSpec: {"events"},
    ScenarioSpec: {"population", "tasks", "plane", "system", "execution",
                   "faults", "telemetry"},
}

SYSTEM_STRATEGIES = {
    "n_aggregators": st.integers(2, 4),
    "drain_threads": st.integers(1, 4),
    "cohort_batch_size": st.integers(1, 4),
}


def _section(draw, cls, **fixed):
    fields = {n: draw(s) for n, s in FIELD_STRATEGIES[cls].items() if n not in fixed}
    return cls(**fields, **fixed)


def _task(draw, name: str, mode: str) -> TaskSpec:
    task = _section(draw, TaskSpec, name=name, mode=mode)
    if mode == "async" and task.aggregation_goal > task.concurrency:
        task = _section(draw, TaskSpec, name=name, mode=mode, aggregation_goal=1)
    return task


def _plane(draw) -> PlaneSpec:
    name = draw(FIELD_STRATEGIES[PlaneSpec]["name"])
    if name in ("sharded", "secure_sharded"):
        return _section(draw, PlaneSpec, name=name)
    routing = draw(FIELD_STRATEGIES[PlaneSpec]["shard_routing"])
    return PlaneSpec(name=name, shard_routing=routing)


def _fault_events(draw, tasks, plane: PlaneSpec) -> tuple[FaultEvent, ...]:
    kinds = sorted(FAULT_KINDS)
    if not (plane.name in ("sharded", "secure_sharded") and plane.executor == "process"):
        kinds.remove("worker_kill")
    bounded = {
        "task": st.sampled_from([t.name for t in tasks]),
        "shard": st.integers(0, plane.num_shards - 1),
    }
    events = []
    kind_strategy = FIELD_STRATEGIES[FaultEvent]["kind"].filter(kinds.__contains__)
    for kind in draw(st.lists(kind_strategy, max_size=3)):
        schema = FAULT_KINDS[kind]
        params = {}
        for param in schema.validators:
            if param in schema.required or draw(st.booleans()):
                params[param] = draw(bounded.get(param, PARAM_STRATEGIES[param]))
        events.append(FaultEvent(kind, draw(FIELD_STRATEGIES[FaultEvent]["at_s"]), params))
    return tuple(events)


@st.composite
def scenario_specs(draw, plane_strategy: st.SearchStrategy | None = None) -> ScenarioSpec:
    """A complete valid ScenarioSpec: every section, every plane (or the
    planes ``plane_strategy`` draws)."""
    plane = _plane(draw) if plane_strategy is None else draw(plane_strategy)
    secure = plane.name in ("secure", "secure_sharded")
    names = draw(st.lists(_names, min_size=1, max_size=2, unique=True))
    modes = ["async"] + [
        "async" if secure else draw(st.sampled_from(["async", "sync"])) for _ in names[1:]
    ]
    tasks = tuple(_task(draw, name, mode) for name, mode in zip(names, modes))
    faults = FaultSpec(
        events=_fault_events(draw, tasks, plane),
        seed=draw(FIELD_STRATEGIES[FaultSpec]["seed"]),
    )
    # A disabled telemetry section is omitted from the canonical JSON
    # whatever it holds, so only the default stands for "off".
    telemetry = draw(st.just(TelemetrySpec()) | st.builds(
        TelemetrySpec, **FIELD_STRATEGIES[TelemetrySpec]))
    return ScenarioSpec(
        population=_section(draw, PopulationSpec),
        tasks=tasks,
        plane=plane,
        system=draw(st.fixed_dictionaries({}, optional=SYSTEM_STRATEGIES)),
        execution=_section(draw, ExecutionSpec),
        faults=faults,
        telemetry=telemetry,
    )
