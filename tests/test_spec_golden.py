"""Golden spec corpus: canonical JSON bytes and error texts, pinned.

Two halves, both stored in ``spec_golden.json`` next to this file:

* **valid** — every scenario document the repo ships or builds (the
  example scenarios, the e2e workloads, the harness's figure, chaos and
  obs specs) with its exact canonical JSON
  (``json.dumps(spec.to_dict(), sort_keys=True)``, the string the sweep
  layer fingerprints).  A serialization change that moves one byte
  shifts every cache key built from it, so it fails here first.
* **invalid** — at least one input per ``SpecError`` raise path of
  :mod:`repro.api.spec`, each with its exact ``(field, message)``.

Regenerate the data file (only when a change is *meant* to move it)::

    PYTHONPATH=src python tests/test_spec_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.api import (
    ExecutionSpec,
    FaultEvent,
    FaultSpec,
    PlaneSpec,
    PopulationSpec,
    ScenarioSpec,
    SpecError,
    TaskSpec,
    TelemetrySpec,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("spec_golden.json")


def canonical(spec: ScenarioSpec) -> str:
    return json.dumps(spec.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# Valid inputs
# ---------------------------------------------------------------------------

def _valid_specs() -> dict[str, ScenarioSpec]:
    from repro.harness import chaos, obs, runner
    from repro.harness.configs import SMOKE
    from repro.system.adapters import SurrogateParams

    out: dict[str, ScenarioSpec] = {}
    for folder in ("examples/scenarios", "benchmarks/e2e/workloads"):
        for path in sorted((ROOT / folder).glob("*.json")):
            doc = json.loads(path.read_text())
            out[f"{folder}/{path.name}"] = ScenarioSpec.from_dict(doc)

    population = PopulationSpec(n_devices=SMOKE.population, seed=0)
    surrogate = SurrogateParams(critical_goal=SMOKE.critical_goal)
    horizon = SMOKE.sim_hours * 3600.0
    for c in SMOKE.concurrency_sweep:
        out[f"runner.async_scenario/concurrency={c}"] = runner.async_scenario(
            c, SMOKE.base_goal, population, surrogate=surrogate, t_end_s=horizon
        )
    for g in SMOKE.goal_sweep:
        out[f"runner.async_scenario/goal={g}"] = runner.async_scenario(
            SMOKE.base_concurrency, g, population, surrogate=surrogate,
            target_loss=3.0, t_end_s=horizon,
        )
        out[f"runner.sync_scenario/goal={g}"] = runner.sync_scenario(
            g, population, surrogate=surrogate, seed=1, t_end_s=horizon
        )
    for schedule in chaos.SCHEDULES:
        for plane in ("single", "sharded"):
            out[f"chaos/{schedule}/{plane}"] = chaos._chaos_spec(
                schedule, plane, 800, 0, 3600.0
            )
    for telemetry in (False, True):
        out[f"obs/telemetry={telemetry}"] = obs._obs_spec(
            400, 0, 1800.0, telemetry, 5000
        )
    return out


# ---------------------------------------------------------------------------
# Invalid inputs: one (or more) per SpecError raise path
# ---------------------------------------------------------------------------

def _doc(**sections) -> dict:
    """A small valid scenario document with ``sections`` replaced."""
    doc = {
        "population": {"n_devices": 1000, "seed": 0},
        "tasks": [{"name": "t", "mode": "async", "concurrency": 16,
                   "aggregation_goal": 4, "model_size_bytes": 1000}],
        "execution": {"seed": 0, "t_end_s": 100.0},
    }
    doc.update(sections)
    return doc


def _task(**fields) -> list[dict]:
    return [dict(_doc()["tasks"][0], **fields)]


def _sharded_doc(**sections) -> dict:
    return _doc(plane={"name": "sharded", "num_shards": 2, "executor": "process"},
                **sections)


def _faults(*events) -> dict:
    return {"events": list(events)}


def _spec() -> ScenarioSpec:
    return ScenarioSpec.from_dict(_doc())


_POP = PopulationSpec(n_devices=10)
_TASK = TaskSpec(name="t", concurrency=16, aggregation_goal=4)

#: id -> zero-argument callable that must raise SpecError
INVALID = {
    # _freeze_value / _freeze_items
    "freeze/non-json-value": lambda: TaskSpec(name="t", trainer_params={"fn": object()}),
    "freeze/non-json-nested": lambda: ScenarioSpec.from_dict(
        _doc(system={"drain_threads": [1, {"a": 2}]})),
    "freeze/empty-key": lambda: ScenarioSpec.from_dict(
        _doc(population={"overrides": {"": 1}})),
    "freeze/non-str-key": lambda: PopulationSpec(overrides={3: 1}),
    "freeze/duplicate-key": lambda: ScenarioSpec(
        population=_POP, tasks=(_TASK,),
        system=[("drain_threads", 1), ("drain_threads", 2)]),
    # _expect_mapping, one per section
    "mapping/scenario": lambda: ScenarioSpec.from_dict("x"),
    "mapping/population": lambda: ScenarioSpec.from_dict(_doc(population=None)),
    "mapping/population.overrides": lambda: ScenarioSpec.from_dict(
        _doc(population={"overrides": [1]})),
    "mapping/tasks[]": lambda: ScenarioSpec.from_dict(_doc(tasks=["t"])),
    "mapping/tasks[].trainer_params": lambda: ScenarioSpec.from_dict(
        _doc(tasks=_task(trainer_params=[1]))),
    "mapping/plane": lambda: ScenarioSpec.from_dict(_doc(plane="sharded")),
    "mapping/system": lambda: ScenarioSpec.from_dict(_doc(system=[1])),
    "mapping/execution": lambda: ScenarioSpec.from_dict(_doc(execution=[1])),
    "mapping/faults": lambda: ScenarioSpec.from_dict(_doc(faults="storm")),
    "mapping/faults.events[]": lambda: ScenarioSpec.from_dict(
        _doc(faults=_faults("storm"))),
    "mapping/telemetry": lambda: ScenarioSpec.from_dict(_doc(telemetry=True)),
    # _check_keys, one per section
    "keys/scenario": lambda: ScenarioSpec.from_dict(_doc(extra={})),
    "keys/population": lambda: ScenarioSpec.from_dict(
        _doc(population={"n_devices": 5, "size": 5})),
    "keys/tasks[]": lambda: ScenarioSpec.from_dict(_doc(tasks=_task(goal=3))),
    "keys/plane": lambda: ScenarioSpec.from_dict(_doc(plane={"shards": 2})),
    "keys/execution": lambda: ScenarioSpec.from_dict(_doc(execution={"t_end": 1})),
    "keys/faults": lambda: ScenarioSpec.from_dict(_doc(faults={"schedule": []})),
    "keys/telemetry": lambda: ScenarioSpec.from_dict(_doc(telemetry={"on": True})),
    # PopulationSpec
    "population/override-field": lambda: PopulationSpec(n_devices=10, overrides={"typo": 1}),
    "population/config-value": lambda: PopulationSpec(
        n_devices=10, overrides={"dropout_rate": 2.0}),
    "population/n_devices": lambda: PopulationSpec(n_devices=0),
    "population/max_examples": lambda: PopulationSpec(
        n_devices=10, overrides={"max_examples": 0}),
    "population/config-nonfinite": lambda: PopulationSpec(
        n_devices=10, overrides={"mean_examples": float("nan")}),
    # TaskSpec
    "task/name": lambda: TaskSpec(name=""),
    "task/name-type": lambda: ScenarioSpec.from_dict(_doc(tasks=_task(name=7))),
    "task/mode": lambda: TaskSpec(name="t", mode="asynchronous"),
    "task/trainer": lambda: TaskSpec(name="t", trainer=""),
    "task/config-goal": lambda: ScenarioSpec.from_dict(
        _doc(tasks=_task(concurrency=4, aggregation_goal=8))),
    "task/config-over-selection": lambda: ScenarioSpec.from_dict(
        _doc(tasks=_task(mode="sync", over_selection=-0.5))),
    # PlaneSpec
    "plane/name": lambda: PlaneSpec(name=""),
    "plane/num_shards": lambda: PlaneSpec(name="sharded", num_shards=0),
    "plane/hint-secure": lambda: PlaneSpec(name="secure", num_shards=4),
    "plane/hint-single": lambda: PlaneSpec(name="single", num_shards=2),
    "plane/shard_routing": lambda: PlaneSpec(name="sharded", shard_routing=""),
    "plane/executor": lambda: PlaneSpec(name="sharded", num_shards=2, executor="threads"),
    "plane/executor-owner": lambda: PlaneSpec(name="secure", executor="process"),
    # ExecutionSpec
    "execution/t_end_s": lambda: ExecutionSpec(t_end_s=-1.0),
    "execution/t_end_s-nonfinite": lambda: ExecutionSpec(t_end_s=float("nan")),
    "execution/max_server_steps": lambda: ExecutionSpec(max_server_steps=0),
    # FaultEvent
    "event/kind": lambda: FaultEvent(kind=""),
    "event/kind-missing": lambda: ScenarioSpec.from_dict(
        _doc(faults=_faults({"at_s": 1.0}))),
    "event/kind-unknown": lambda: FaultEvent(kind="meteor"),
    "event/at_s-type": lambda: FaultEvent(kind="blackout", at_s="soon"),
    "event/at_s-negative": lambda: FaultEvent(kind="blackout", at_s=-1.0),
    "event/at_s-infinite": lambda: FaultEvent(kind="blackout", at_s=float("inf")),
    "event/params-json": lambda: FaultEvent(kind="blackout", params={"fraction": {1}}),
    "event/param-range": lambda: ScenarioSpec.from_dict(_doc(faults=_faults(
        {"kind": "blackout", "fraction": 2.0, "duration_s": 1.0}))),
    "event/param-unknown": lambda: FaultEvent(
        kind="blackout", params={"fraction": 0.5, "duration_s": 1.0, "node": 0}),
    "event/param-required": lambda: FaultEvent(kind="blackout", params={"fraction": 0.5}),
    "event/param-int": lambda: FaultEvent(kind="aggregator_crash", params={"node": 0.5}),
    "event/param-int-ge": lambda: FaultEvent(
        kind="aggregator_flap",
        params={"node": 0, "count": 0, "down_s": 1.0, "up_s": 1.0}),
    "event/param-string": lambda: FaultEvent(
        kind="worker_kill", params={"task": "", "shard": 0}),
    # FaultSpec
    "faults/event-type": lambda: FaultSpec(events=("storm",)),
    "faults/events-list": lambda: ScenarioSpec.from_dict(_doc(faults={"events": "storm"})),
    # TelemetrySpec
    "telemetry/max_spans": lambda: TelemetrySpec(max_spans=0),
    # _apply_override
    "override/population": lambda: _spec().override("population.bogus", 1),
    "override/population-overrides": lambda: _spec().override("population.overrides", {}),
    "override/tasks-no-field": lambda: _spec().override("tasks.0", 1),
    "override/tasks-index": lambda: _spec().override("tasks.9.concurrency", 1),
    "override/tasks-name": lambda: _spec().override("tasks.nope.mode", "sync"),
    "override/tasks-field": lambda: _spec().override("tasks.0.bogus", 1),
    "override/plane": lambda: _spec().override("plane.bogus", 1),
    "override/execution": lambda: _spec().override("execution.bogus", 1),
    "override/system-no-field": lambda: _spec().override("system", 1),
    "override/faults": lambda: _spec().override("faults.events", []),
    "override/telemetry": lambda: _spec().override("telemetry.bogus", 1),
    "override/section": lambda: _spec().override("nonsense.path", 1),
    "override/revalidated": lambda: _spec().override("tasks.t.aggregation_goal", 10_000),
    # ScenarioSpec construction
    "scenario/population-type": lambda: ScenarioSpec(population="x", tasks=(_TASK,)),
    "scenario/plane-type": lambda: ScenarioSpec(population=_POP, tasks=(_TASK,), plane="x"),
    "scenario/execution-type": lambda: ScenarioSpec(
        population=_POP, tasks=(_TASK,), execution="x"),
    "scenario/faults-type": lambda: ScenarioSpec(population=_POP, tasks=(_TASK,), faults="x"),
    "scenario/telemetry-type": lambda: ScenarioSpec(
        population=_POP, tasks=(_TASK,), telemetry="x"),
    "scenario/task-type": lambda: ScenarioSpec(population=_POP, tasks=("t",)),
    "scenario/no-tasks": lambda: ScenarioSpec(population=_POP),
    "scenario/duplicate-tasks": lambda: ScenarioSpec(population=_POP, tasks=(_TASK, _TASK)),
    "scenario/secure-sync": lambda: ScenarioSpec.from_dict(
        _doc(tasks=_task(mode="sync", concurrency=5, aggregation_goal=4),
             plane={"name": "secure"})),
    "scenario/sharded-sync": lambda: ScenarioSpec.from_dict(
        _doc(tasks=_task(mode="sync", concurrency=5, aggregation_goal=4),
             plane={"name": "sharded", "num_shards": 2})),
    "scenario/system-n_shards": lambda: ScenarioSpec.from_dict(_doc(system={"n_shards": 8})),
    "scenario/system-plane-owned": lambda: ScenarioSpec.from_dict(
        _doc(system={"num_shards": 4})),
    "scenario/system-executor-owned": lambda: ScenarioSpec.from_dict(
        _doc(system={"shard_executor": "process"})),
    "scenario/system-plane": lambda: ScenarioSpec.from_dict(_doc(system={"plane": "x"})),
    "scenario/system-unknown": lambda: ScenarioSpec.from_dict(_doc(system={"bogus": 1})),
    "scenario/system-value": lambda: ScenarioSpec.from_dict(
        _doc(system={"n_aggregators": 0})),
    "scenario/unregistered-plane": lambda: ScenarioSpec.from_dict(
        _doc(plane={"name": "quantum"})),
    "scenario/fault-node": lambda: ScenarioSpec.from_dict(_doc(faults=_faults(
        {"kind": "aggregator_crash", "node": 3}))),
    "scenario/fault-task": lambda: ScenarioSpec.from_dict(_sharded_doc(faults=_faults(
        {"kind": "worker_kill", "task": "nope", "shard": 0}))),
    "scenario/worker-kill-inline": lambda: ScenarioSpec.from_dict(_doc(
        plane={"name": "sharded", "num_shards": 2},
        faults=_faults({"kind": "worker_kill", "task": "t", "shard": 0}))),
    "scenario/worker-kill-shard": lambda: ScenarioSpec.from_dict(_sharded_doc(
        faults=_faults({"kind": "worker_kill", "task": "t", "shard": 2}))),
    "scenario/population-missing": lambda: ScenarioSpec.from_dict({"tasks": [{"name": "t"}]}),
    "scenario/tasks-list": lambda: ScenarioSpec.from_dict(_doc(tasks="t")),
}


def _error(thunk) -> list[str]:
    with pytest.raises(SpecError) as info:
        thunk()
    err = info.value
    prefix = f"{err.field}: "
    text = str(err)
    assert text.startswith(prefix)
    return [err.field, text[len(prefix):]]


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

_VALID = _valid_specs()


def test_corpus_is_complete():
    golden = _golden()
    assert sorted(golden["valid"]) == sorted(_VALID)
    assert sorted(golden["invalid"]) == sorted(INVALID)


@pytest.mark.parametrize("name", sorted(_VALID))
def test_valid_canonical_json_is_pinned(name):
    blob = canonical(_VALID[name])
    assert blob == _golden()["valid"][name]
    # A disabled telemetry section is omitted whatever its other fields
    # hold, so the stable property is the bytes, not spec equality.
    assert canonical(ScenarioSpec.from_dict(json.loads(blob))) == blob


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_error_is_pinned(name):
    assert _error(INVALID[name]) == _golden()["invalid"][name]


def _write() -> None:
    doc = {
        "valid": {name: canonical(spec) for name, spec in sorted(_VALID.items())},
        "invalid": {name: _error(INVALID[name]) for name in sorted(INVALID)},
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(doc['valid'])} valid, {len(doc['invalid'])} invalid)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_spec_golden.py --write")
    _write()
