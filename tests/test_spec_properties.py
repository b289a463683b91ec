"""ScenarioSpec properties over generated specs, and the value vocabulary.

* :mod:`spec_strategies` covers every section field (a lockstep test
  fails when a field has no strategy);
* over generated specs: the JSON byte round trip is the identity,
  overriding every leaf path with its own value is the identity on
  canonical JSON, ``override(path, v)`` reads back ``v``, and an unknown
  key in any section raises a field-named :class:`SpecError`;
* wrong-typed values are rejected with the dotted field, never cast
  (``"false"`` is not false, ``1000.7`` is not an integer);
* ``--grid population.columnar=true,false`` sweeps both fleets.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st
from spec_strategies import COMPOSED, FIELD_STRATEGIES, PARAM_STRATEGIES, scenario_specs

import repro.api.spec as spec_module
from repro.api import (
    ExecutionSpec,
    PlaneSpec,
    PopulationSpec,
    ScenarioSpec,
    SpecError,
    TaskSpec,
)
from repro.sim.faults import FAULT_KINDS

SECTIONS = [
    getattr(spec_module, name)
    for name in spec_module.__all__
    if dataclasses.is_dataclass(getattr(spec_module, name))
]


def canonical(spec: ScenarioSpec) -> str:
    return json.dumps(spec.to_dict(), sort_keys=True)


def _thaw(value):
    return list(value) if isinstance(value, tuple) else value


def leaf_paths(spec: ScenarioSpec) -> dict[str, object]:
    """Every dotted override path addressing one scalar of ``spec``, with
    its current value (tasks by index, their trainer params by name)."""
    out: dict[str, object] = {"seed": spec.execution.seed, "faults.seed": spec.faults.seed}
    for name in ("population", "plane", "execution", "telemetry"):
        section = getattr(spec, name)
        for f in dataclasses.fields(section):
            value = getattr(section, f.name)
            if not isinstance(value, tuple):
                out[f"{name}.{f.name}"] = value
    for key, value in spec.population.overrides:
        out[f"population.{key}"] = value
    for i, task in enumerate(spec.tasks):
        for f in dataclasses.fields(task):
            value = getattr(task, f.name)
            if not isinstance(value, tuple):
                out[f"tasks.{i}.{f.name}"] = value
        for key, value in task.trainer_params:
            out[f"tasks.{task.name}.trainer_params.{key}"] = _thaw(value)
    for key, value in spec.system:
        out[f"system.{key}"] = value
    return out


# ---------------------------------------------------------------------------
# The strategy covers the spec
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls", SECTIONS, ids=lambda cls: cls.__name__)
def test_every_section_field_has_a_strategy(cls):
    drawn = set(FIELD_STRATEGIES.get(cls, {}))
    composed = COMPOSED.get(cls, set())
    assert not drawn & composed
    assert drawn | composed == {f.name for f in dataclasses.fields(cls)}


def test_every_fault_param_has_a_strategy():
    params = {p for kind in FAULT_KINDS.values() for p in kind.validators}
    assert params == set(PARAM_STRATEGIES)


REACHABLE = {
    **{f"plane={name}": lambda s, name=name: s.plane.name == name
       for name in ("single", "sharded", "secure", "secure_sharded")},
    "executor=process": lambda s: s.plane.executor == "process",
    "faults.seed": lambda s: s.faults.seed is not None,
    "telemetry on": lambda s: s.telemetry.enabled,
    "columnar": lambda s: s.population.columnar,
    "sync task": lambda s: any(t.mode == "sync" for t in s.tasks),
}


_FIND = settings(max_examples=500, phases=[Phase.generate], derandomize=True,
                 database=None, deadline=None)  # first hit wins: no shrinking


@pytest.mark.parametrize("case", sorted(REACHABLE))
def test_strategy_reaches(case):
    # A filter or constraint that starved one of these would quietly
    # shrink every property below.
    find(scenario_specs(), REACHABLE[case], settings=_FIND)


def test_strategy_reaches_worker_kill_on_a_process_plane():
    process = st.just(PlaneSpec(name="sharded", num_shards=2, executor="process"))
    find(scenario_specs(process),
         lambda s: any(e.kind == "worker_kill" for e in s.faults.events), settings=_FIND)


# ---------------------------------------------------------------------------
# Properties over generated specs
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(scenario_specs())
def test_json_bytes_round_trip_is_identity(spec):
    blob = canonical(spec)
    again = ScenarioSpec.from_dict(json.loads(blob))
    assert again == spec
    assert canonical(again) == blob


@settings(max_examples=30, deadline=None)
@given(scenario_specs())
def test_overriding_every_leaf_with_its_own_value_is_identity(spec):
    assert canonical(spec.with_overrides(leaf_paths(spec))) == canonical(spec)


@settings(max_examples=40, deadline=None)
@given(scenario_specs(), scenario_specs(), st.data())
def test_override_reads_back_the_value(spec, other, data):
    mine, theirs = leaf_paths(spec), leaf_paths(other)
    path = data.draw(st.sampled_from(sorted(mine.keys() & theirs.keys())))
    try:
        out = spec.override(path, theirs[path])
    except SpecError:
        assume(False)  # valid alone, invalid in this spec (cross-field)
    assert leaf_paths(out)[path] == theirs[path]


def _unknown_key_sites(doc: dict) -> list:
    """(section mapping, expected SpecError.field) for every section."""
    sites = [(doc, "scenario"), (doc["population"], "population"),
             (doc["plane"], "plane"), (doc["execution"], "execution"),
             (doc.setdefault("faults", {}), "faults"),
             (doc.setdefault("telemetry", {}), "telemetry")]
    sites += [(task, "tasks[]") for task in doc["tasks"]]
    # A fault event is a flat row: an unknown key is an unknown param.
    events = doc["faults"].get("events", [])
    sites += [(event, "faults.events[].zz_unknown") for event in events]
    return sites


@settings(max_examples=40, deadline=None)
@given(scenario_specs(), st.data())
def test_unknown_key_in_any_section_names_the_section(spec, data):
    doc = spec.to_dict()
    sites = _unknown_key_sites(doc)
    section, field_name = sites[data.draw(st.integers(0, len(sites) - 1))]
    section["zz_unknown"] = 1
    with pytest.raises(SpecError) as info:
        ScenarioSpec.from_dict(doc)
    assert info.value.field == field_name
    assert "zz_unknown" in str(info.value)


# ---------------------------------------------------------------------------
# The value vocabulary: wrong types are rejected, never cast
# ---------------------------------------------------------------------------

def _doc(**sections) -> dict:
    doc = {
        "population": {"n_devices": 500, "seed": 0},
        "tasks": [{"name": "t", "mode": "async", "concurrency": 16,
                   "aggregation_goal": 4, "model_size_bytes": 1000}],
        "execution": {"seed": 0, "t_end_s": 100.0},
    }
    doc.update(sections)
    return doc


def _event(**row) -> dict:
    return {"faults": {"events": [row]}}


_SPEC = ScenarioSpec.from_dict(_doc())

#: id -> (thunk, the dotted field its SpecError must name)
REJECTED = {
    "telemetry.enabled='false'": (
        lambda: ScenarioSpec.from_dict(_doc(telemetry={"enabled": "false"})),
        "telemetry.enabled"),
    "telemetry.profiling=1": (
        lambda: _SPEC.override("telemetry.profiling", 1), "telemetry.profiling"),
    "telemetry.max_spans=10.5": (
        lambda: _SPEC.override("telemetry.max_spans", 10.5), "telemetry.max_spans"),
    "population.columnar='no'": (
        lambda: _SPEC.override("population.columnar", "no"), "population.columnar"),
    "population.n_devices='500'": (
        lambda: _SPEC.override("population.n_devices", "500"), "population.n_devices"),
    "population.seed=1.5": (
        lambda: _SPEC.override("population.seed", 1.5), "population.seed"),
    "tasks.0.concurrency=1000.7": (
        lambda: _SPEC.override("tasks.0.concurrency", 1000.7), "tasks[t].concurrency"),
    "tasks.0.client_lr='0.1'": (
        lambda: _SPEC.override("tasks.0.client_lr", "0.1"), "tasks[t].client_lr"),
    "tasks.0.over_selection=False": (
        lambda: _SPEC.override("tasks.0.over_selection", False), "tasks[t].over_selection"),
    "tasks.0.trainer_params (whole mapping)": (
        lambda: _SPEC.override("tasks.0.trainer_params", {}), "tasks.0.trainer_params"),
    "seed=2.9": (lambda: _SPEC.override("seed", 2.9), "execution.seed"),
    "seed=None": (lambda: _SPEC.override("seed", None), "execution.seed"),
    "execution.t_end_s='100'": (
        lambda: _SPEC.override("execution.t_end_s", "100"), "execution.t_end_s"),
    "execution.max_server_steps=True": (
        lambda: _SPEC.override("execution.max_server_steps", True),
        "execution.max_server_steps"),
    "plane.num_shards=true": (
        lambda: _SPEC.with_overrides({"plane.name": "sharded", "plane.num_shards": True}),
        "plane.num_shards"),
    "faults.seed=True": (lambda: _SPEC.override("faults.seed", True), "faults.seed"),
    "fault fraction='0.5'": (
        lambda: ScenarioSpec.from_dict(_doc(**_event(
            kind="blackout", fraction="0.5", duration_s=60.0))),
        "faults.events[].fraction"),
    "fault duration_s=True": (
        lambda: ScenarioSpec.from_dict(_doc(**_event(
            kind="blackout", fraction=0.5, duration_s=True))),
        "faults.events[].duration_s"),
    "fault node=True": (
        lambda: ScenarioSpec.from_dict(_doc(**_event(kind="aggregator_crash", node=True))),
        "faults.events[].node"),
    "fault count='2'": (
        lambda: ScenarioSpec.from_dict(_doc(**_event(
            kind="aggregator_flap", node=0, count="2", down_s=1.0, up_s=1.0))),
        "faults.events[].count"),
    "fault at_s=True": (
        lambda: ScenarioSpec.from_dict(_doc(**_event(
            kind="coordinator_outage", at_s=True, duration_s=5.0))),
        "faults.events[].at_s"),
    "fault at_s='10'": (
        lambda: ScenarioSpec.from_dict(_doc(**_event(
            kind="coordinator_outage", at_s="10", duration_s=5.0))),
        "faults.events[].at_s"),
    "plane='' (falsy, not a mapping)": (
        lambda: ScenarioSpec.from_dict(_doc(plane="")), "plane"),
    "system=[] (falsy, not a mapping)": (
        lambda: ScenarioSpec.from_dict(_doc(system=[])), "system"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_wrong_typed_value_is_rejected_with_its_field(case):
    thunk, field_name = REJECTED[case]
    with pytest.raises(SpecError) as info:
        thunk()
    assert info.value.field == field_name


def test_integral_and_numpy_numbers_are_accepted_and_normalized():
    spec = _SPEC.with_overrides({
        "population.n_devices": np.int64(700),
        "tasks.0.concurrency": 32.0,
        "tasks.0.client_lr": np.float32(0.25),
        "execution.t_end_s": 50,
        "seed": np.int32(3),
    })
    assert spec.population.n_devices == 700 and type(spec.population.n_devices) is int
    assert spec.tasks[0].concurrency == 32 and type(spec.tasks[0].concurrency) is int
    assert spec.tasks[0].client_lr == 0.25 and type(spec.tasks[0].client_lr) is float
    assert spec.execution.t_end_s == 50.0 and type(spec.execution.t_end_s) is float
    assert spec.execution.seed == 3 and type(spec.execution.seed) is int
    assert ScenarioSpec.from_dict(json.loads(canonical(spec))) == spec


def test_constructors_reject_like_documents():
    with pytest.raises(SpecError) as info:
        PopulationSpec(n_devices=10, columnar="yes")
    assert info.value.field == "population.columnar"
    with pytest.raises(SpecError) as info:
        TaskSpec(name="t", batch_size=32.5)
    assert info.value.field == "tasks[t].batch_size"
    with pytest.raises(SpecError) as info:
        ExecutionSpec(seed="0")
    assert info.value.field == "execution.seed"


# ---------------------------------------------------------------------------
# The CLI grids booleans as booleans
# ---------------------------------------------------------------------------

def test_cli_grid_true_false_sweeps_one_columnar_and_one_object_fleet(tmp_path, monkeypatch):
    from repro.api.deployment import build_population
    from repro.harness import __main__ as cli
    from repro.sim.population import ColumnarDevicePopulation, DevicePopulation

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_doc(execution={"seed": 0, "t_end_s": 300.0})))
    swept = []
    real_run_sweep = cli.run_sweep

    def recording_run_sweep(cells, **kwargs):
        swept.extend(cells)
        return real_run_sweep(cells, **kwargs)

    monkeypatch.setattr(cli, "run_sweep", recording_run_sweep)
    code = cli.main([
        "sweep", "scenario", "--spec", str(spec_path), "--seeds", "0", "--no-cache",
        "--grid", "population.columnar=true,false",
    ])
    assert code == 0
    fleets = set()
    for cell in swept:
        params = dict(cell.params)
        base = ScenarioSpec.from_dict(json.loads(params.pop("spec")))
        population = build_population(base.with_overrides(params).population)
        fleets.add(type(population))
    assert fleets == {ColumnarDevicePopulation, DevicePopulation}
