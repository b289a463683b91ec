"""ScenarioSpec validation and serialization (ISSUE 5 satellite suite).

Three contracts:

* invalid combinations raise :class:`SpecError` whose message leads with
  the offending field name (actionable errors);
* ``ScenarioSpec.from_dict(spec.to_dict()) == spec`` for *any* valid
  spec, including through a JSON byte round trip (hypothesis property
  test over randomized specs);
* dotted override paths address every declarative knob and are applied
  atomically.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Deployment,
    ExecutionSpec,
    PlaneSpec,
    PopulationSpec,
    ScenarioSpec,
    SpecError,
    TaskSpec,
)
from repro.core.types import TrainingMode
from repro.sim.population import DevicePopulation, PopulationConfig
from repro.system import planes
from repro.system.aggregator import FLTaskRuntime


def simple_spec(**kw) -> ScenarioSpec:
    defaults = dict(
        population=PopulationSpec(n_devices=1000, seed=0),
        tasks=(TaskSpec(name="async", mode="async", concurrency=16,
                        aggregation_goal=4, model_size_bytes=1_000_000),),
        execution=ExecutionSpec(seed=0, t_end_s=1800.0),
    )
    defaults.update(kw)
    return ScenarioSpec(**defaults)


class TestValidation:
    def test_no_tasks_rejected(self):
        with pytest.raises(SpecError, match="tasks"):
            simple_spec(tasks=())

    def test_duplicate_task_names_named_in_error(self):
        with pytest.raises(SpecError, match="duplicate task names: x"):
            simple_spec(tasks=(TaskSpec(name="x"), TaskSpec(name="x")))

    def test_bad_mode_names_field(self):
        with pytest.raises(SpecError, match=r"tasks\[t\]\.mode"):
            TaskSpec(name="t", mode="asynchronous")

    def test_secure_plane_cannot_shard(self):
        with pytest.raises(SpecError, match=r"plane\.num_shards"):
            PlaneSpec(name="secure", num_shards=4)

    def test_single_plane_cannot_shard(self):
        with pytest.raises(SpecError, match=r"plane\.num_shards"):
            PlaneSpec(name="single", num_shards=2)

    def test_sharded_plane_at_one_shard_degenerates_to_single(self):
        # The S=1 point of a shard-count sweep: allowed, and it builds the
        # bit-identical single-aggregator path.
        spec = simple_spec(plane=PlaneSpec(name="sharded", num_shards=1))
        assert spec.plane.factory().num_shards == 1
        runtime = Deployment.from_spec(spec).build().task_runtimes["async"]
        assert type(runtime) is FLTaskRuntime

    def test_executor_value_validated(self):
        with pytest.raises(SpecError, match=r"plane\.executor"):
            PlaneSpec(name="sharded", num_shards=2, executor="threads")

    def test_process_executor_requires_sharded_plane(self):
        with pytest.raises(SpecError, match=r"plane\.executor"):
            PlaneSpec(name="single", executor="process")
        with pytest.raises(SpecError, match=r"plane\.executor"):
            PlaneSpec(name="secure", executor="process")

    def test_system_rejects_shard_executor_with_pointer(self):
        # Executor choice is plane-owned; the rejection points at the
        # declarative knob that does own it.
        with pytest.raises(SpecError, match=r"plane\.executor"):
            simple_spec(system={"shard_executor": "process"})

    def test_secure_plane_rejects_sync_task(self):
        with pytest.raises(SpecError, match=r"tasks\[0\]\.mode"):
            simple_spec(
                tasks=(TaskSpec(name="s", mode="sync", concurrency=13,
                                aggregation_goal=10),),
                plane=PlaneSpec(name="secure"),
            )

    def test_sharded_plane_needs_an_async_task(self):
        with pytest.raises(SpecError, match=r"plane\.name"):
            simple_spec(
                tasks=(TaskSpec(name="s", mode="sync", concurrency=13,
                                aggregation_goal=10),),
                plane=PlaneSpec(name="sharded", num_shards=2),
            )

    def test_unknown_plane_name_rejected(self):
        with pytest.raises(SpecError, match="registered plane"):
            simple_spec(plane=PlaneSpec(name="quantum"))

    def test_unknown_shard_routing_rejected(self):
        with pytest.raises(SpecError, match="shard_routing must be one of"):
            simple_spec(plane=PlaneSpec(name="sharded", num_shards=2,
                                        shard_routing="roulette"))

    def test_system_rejects_plane_owned_fields(self):
        with pytest.raises(SpecError, match=r"system\.num_shards"):
            simple_spec(system={"num_shards": 4})

    def test_system_rejects_legacy_n_shards_with_pointer(self):
        with pytest.raises(SpecError, match="drain_threads"):
            simple_spec(system={"n_shards": 8})

    def test_system_rejects_unknown_field(self):
        with pytest.raises(SpecError, match=r"system\.bogus"):
            simple_spec(system={"bogus": 1})

    def test_system_value_errors_surface(self):
        with pytest.raises(SpecError, match="system"):
            simple_spec(system={"n_aggregators": 0})

    def test_task_config_errors_carry_task_name(self):
        # async goal > concurrency deadlocks; TaskConfig's error must
        # surface under the task's field path.
        with pytest.raises(SpecError, match=r"tasks\[a\]"):
            simple_spec(tasks=(TaskSpec(name="a", mode="async",
                                        concurrency=4, aggregation_goal=8),))

    def test_population_override_field_checked(self):
        with pytest.raises(SpecError, match=r"population\.overrides\.typo"):
            PopulationSpec(n_devices=10, overrides={"typo": 1})

    def test_population_value_errors_surface(self):
        with pytest.raises(SpecError, match="population"):
            PopulationSpec(n_devices=10, overrides={"dropout_rate": 2.0})

    @pytest.mark.parametrize("text, message", [
        ('{"max_examples": 0}', "max_examples must be at least 1"),
        ('{"mean_examples": NaN}', "mean_examples must be finite"),
        ('{"sigma_speed": NaN}', "sigma_speed must be finite"),
    ])
    def test_out_of_range_population_overrides_rejected(self, text, message):
        # JSON ``NaN`` parses in Python; such a spec used to validate and
        # then fail (or silently corrupt the fleet) mid-run.
        doc = {"population": {"n_devices": 50, "overrides": json.loads(text)},
               "tasks": [{"name": "t"}]}
        with pytest.raises(SpecError) as info:
            ScenarioSpec.from_dict(doc)
        assert (info.value.field, str(info.value)) == (
            "population", f"population: {message}")

    def test_execution_validation(self):
        with pytest.raises(SpecError, match=r"execution\.t_end_s"):
            ExecutionSpec(t_end_s=-1.0)
        with pytest.raises(SpecError, match=r"execution\.max_server_steps"):
            ExecutionSpec(max_server_steps=0)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_horizon_rejected(self, literal):
        # Python's json parses these literals; a spec-built run with
        # either horizon would loop on its heartbeat forever.
        text = json.dumps(simple_spec().to_dict()).replace('"t_end_s": 1800.0', f'"t_end_s": {literal}')
        assert literal in text
        with pytest.raises(SpecError, match=r"execution\.t_end_s.*finite"):
            ScenarioSpec.from_dict(json.loads(text))

    def test_trainer_params_reject_non_json_values(self):
        with pytest.raises(SpecError, match="trainer_params"):
            TaskSpec(name="t", trainer_params={"fn": object()})


class TestDerivedConfigs:
    def test_single_plane_factory(self):
        assert type(simple_spec().plane.factory()) is planes.SinglePlane

    def test_sharded_plane_factory(self):
        spec = simple_spec(plane=PlaneSpec(name="sharded", num_shards=4,
                                           shard_routing="load"))
        plane = spec.plane.factory()
        assert type(plane) is planes.ShardedPlane
        assert plane.num_shards == 4
        assert plane.shard_routing == "load"
        assert plane.executor == "inline"

    def test_process_executor_plane_factory(self):
        spec = simple_spec(plane=PlaneSpec(name="sharded", num_shards=4,
                                           executor="process"))
        assert spec.plane.factory().executor == "process"

    def test_secure_plane_factory(self):
        spec = simple_spec(plane=PlaneSpec(name="secure"))
        assert type(spec.plane.factory()) is planes.SecurePlane
        [cfg] = spec.task_configs()
        assert cfg.mode is TrainingMode.ASYNC

    def test_custom_plane_factory_is_the_registered_one(self):
        custom = type("P", (), {"name": "custom-p", "build": None})()
        planes.register_plane(custom)
        try:
            assert simple_spec(plane=PlaneSpec(name="custom-p")).plane.factory() is custom
        finally:
            planes._PLANES._entries.pop("custom-p")

    def test_population_seed_defaults_to_execution_seed(self):
        spec = simple_spec(population=PopulationSpec(n_devices=10),
                           execution=ExecutionSpec(seed=5, t_end_s=1.0))
        assert spec.population_seed() == 5
        pinned = simple_spec(population=PopulationSpec(n_devices=10, seed=2))
        assert pinned.population_seed() == 2

    def test_population_spec_from_population_is_faithful(self):
        pop = DevicePopulation(
            PopulationConfig(n_devices=123, mean_examples=20.0, max_examples=80),
            seed=3,
        )
        spec = PopulationSpec.from_population(pop)
        assert spec.n_devices == 123
        assert spec.seed == 3
        assert spec.population_config() == pop.config


class TestOverrides:
    def test_task_by_index_and_name(self):
        spec = simple_spec()
        assert spec.override("tasks.0.concurrency", 32).tasks[0].concurrency == 32
        assert spec.override("tasks.async.concurrency", 8).tasks[0].concurrency == 8

    def test_trainer_params_path(self):
        spec = simple_spec().override("tasks.0.trainer_params.critical_goal", 7.0)
        assert dict(spec.tasks[0].trainer_params)["critical_goal"] == 7.0

    def test_atomic_interdependent_overrides(self):
        spec = simple_spec().with_overrides(
            {"plane.name": "sharded", "plane.num_shards": 4}
        )
        assert spec.plane.num_shards == 4

    def test_plane_executor_override(self):
        spec = simple_spec().with_overrides({
            "plane.name": "sharded",
            "plane.num_shards": 2,
            "plane.executor": "process",
        })
        assert spec.plane.executor == "process"
        assert spec.plane.factory().executor == "process"

    def test_seed_alias(self):
        assert simple_spec().override("seed", 9).execution.seed == 9

    def test_population_override_path(self):
        spec = simple_spec().override("population.mean_examples", 12.0)
        assert spec.population.population_config().mean_examples == 12.0

    def test_unknown_paths_rejected(self):
        spec = simple_spec()
        for path in ("tasks.0.bogus", "tasks.9.concurrency", "tasks.nope.mode",
                     "plane.bogus", "execution.bogus", "population.bogus",
                     "nonsense.path"):
            with pytest.raises(SpecError):
                spec.override(path, 1)

    def test_override_result_is_revalidated(self):
        with pytest.raises(SpecError):
            simple_spec().override("tasks.0.aggregation_goal", 10_000)


# ---------------------------------------------------------------------------
# Serialization round trip (property test over randomized specs)
# ---------------------------------------------------------------------------

def _task_specs():
    return st.builds(
        TaskSpec,
        name=st.sampled_from(["a", "b", "lm-task", "τ"]),
        mode=st.sampled_from(["async", "sync"]),
        concurrency=st.integers(8, 64),
        aggregation_goal=st.integers(1, 8),
        over_selection=st.sampled_from([0.0, 0.3]),
        max_staleness=st.integers(1, 200),
        client_timeout_s=st.sampled_from([60.0, 240.0]),
        model_size_bytes=st.sampled_from([1_000, 1_000_000]),
        trainer=st.sampled_from(["surrogate", "external"]),
        trainer_params=st.dictionaries(
            st.sampled_from(["critical_goal", "tau", "beta"]),
            st.floats(0.5, 100.0, allow_nan=False),
            max_size=2,
        ),
    )


def _scenario_specs():
    plane = st.one_of(
        st.builds(PlaneSpec, name=st.just("single")),
        st.builds(
            PlaneSpec,
            name=st.just("sharded"),
            num_shards=st.integers(2, 8),
            shard_routing=st.sampled_from(["hash", "load"]),
            executor=st.sampled_from(["inline", "process"]),
        ),
        st.builds(PlaneSpec, name=st.just("secure")),
    )
    return st.builds(
        lambda population, task, plane, system, execution: ScenarioSpec(
            population=population,
            tasks=(task,),
            plane=plane,
            system=system,
            execution=execution,
        ),
        population=st.builds(
            PopulationSpec,
            n_devices=st.integers(10, 10_000),
            seed=st.one_of(st.none(), st.integers(0, 100)),
            overrides=st.dictionaries(
                st.sampled_from(["mean_examples", "dropout_rate"]),
                st.floats(0.01, 0.5, allow_nan=False),
                max_size=2,
            ),
        ),
        # secure plane requires async; generate async-only tasks and let
        # sync coverage come from the single/sharded cases via filter.
        task=_task_specs().filter(lambda t: t.mode == "async"),
        plane=plane,
        system=st.dictionaries(
            st.sampled_from(
                ["n_aggregators", "drain_threads", "cohort_batch_size"]
            ),
            st.integers(1, 4),
            max_size=3,
        ),
        execution=st.builds(
            ExecutionSpec,
            seed=st.integers(0, 1000),
            t_end_s=st.one_of(st.none(), st.floats(1.0, 1e6, allow_nan=False)),
            target_loss=st.one_of(st.none(), st.floats(2.0, 4.0, allow_nan=False)),
            max_server_steps=st.one_of(st.none(), st.integers(1, 100)),
        ),
    )


class TestSerialization:
    @settings(max_examples=60, deadline=None)
    @given(_scenario_specs())
    def test_dict_round_trip_is_identity(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @settings(max_examples=30, deadline=None)
    @given(_scenario_specs())
    def test_json_byte_round_trip_is_identity(self, spec):
        blob = json.dumps(spec.to_dict(), sort_keys=True)
        assert ScenarioSpec.from_dict(json.loads(blob)) == spec
        # Canonical serialization is stable (what sweep fingerprints hash).
        again = json.dumps(ScenarioSpec.from_dict(json.loads(blob)).to_dict(),
                           sort_keys=True)
        assert again == blob

    def test_sync_task_round_trip(self):
        spec = simple_spec(
            tasks=(TaskSpec(name="sync", mode="sync", concurrency=13,
                            aggregation_goal=10, over_selection=0.3),),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_sections(self):
        doc = simple_spec().to_dict()
        doc["extra"] = {}
        with pytest.raises(SpecError, match="unknown keys"):
            ScenarioSpec.from_dict(doc)

    def test_from_dict_requires_population(self):
        with pytest.raises(SpecError, match="population"):
            ScenarioSpec.from_dict({"tasks": [{"name": "t"}]})

    def test_executor_default_omitted_from_canonical_json(self):
        # Pre-existing sweep-cache fingerprints hash the canonical spec
        # JSON; the new knob must not shift them at its default.
        spec = simple_spec(plane=PlaneSpec(name="sharded", num_shards=2))
        assert "executor" not in spec.to_dict()["plane"]
        process = simple_spec(plane=PlaneSpec(name="sharded", num_shards=2,
                                              executor="process"))
        assert process.to_dict()["plane"]["executor"] == "process"
        assert ScenarioSpec.from_dict(process.to_dict()) == process

    def test_from_dict_defaults_optional_sections(self):
        spec = ScenarioSpec.from_dict(
            {"population": {"n_devices": 50}, "tasks": [{"name": "t"}]}
        )
        assert spec.plane == PlaneSpec()
        assert spec.execution == ExecutionSpec()
        assert spec.system == ()


class TestColumnarKnob:
    def test_defaults_off_and_omitted_from_canonical_json(self):
        spec = simple_spec()
        assert spec.population.columnar is False
        # Omitted when False so pre-existing sweep-cache fingerprints
        # (which hash the canonical spec JSON) are unchanged.
        assert "columnar" not in spec.to_dict()["population"]

    def test_roundtrips_when_enabled(self):
        spec = simple_spec(
            population=PopulationSpec(n_devices=1000, seed=0, columnar=True)
        )
        doc = spec.to_dict()
        assert doc["population"]["columnar"] is True
        assert ScenarioSpec.from_dict(doc) == spec
        assert ScenarioSpec.from_dict(json.loads(json.dumps(doc))) == spec

    def test_override_path(self):
        flipped = simple_spec().override("population.columnar", True)
        assert flipped.population.columnar is True
        assert simple_spec().population.columnar is False

    def test_from_population_detects_representation(self):
        from repro.sim.population import ColumnarDevicePopulation

        cfg = PopulationConfig(n_devices=500)
        assert PopulationSpec.from_population(
            ColumnarDevicePopulation(cfg, seed=2)
        ).columnar is True
        assert PopulationSpec.from_population(
            DevicePopulation(cfg, seed=2)
        ).columnar is False

    def test_build_population_switches_representation(self):
        from repro.api.deployment import build_population
        from repro.sim.population import ColumnarDevicePopulation

        scalar = build_population(PopulationSpec(n_devices=500, seed=1))
        assert type(scalar) is DevicePopulation
        columnar = build_population(
            PopulationSpec(n_devices=500, seed=1, columnar=True)
        )
        assert type(columnar) is ColumnarDevicePopulation
        # Same distribution parameters flow into both representations.
        assert columnar.config == scalar.config

    def test_deployment_population_honours_knob(self):
        from repro.api import Deployment
        from repro.sim.population import ColumnarDevicePopulation

        spec = simple_spec().override("population.columnar", True)
        assert isinstance(
            Deployment.from_spec(spec).population, ColumnarDevicePopulation
        )
