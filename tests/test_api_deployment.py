"""Deployment façade: spec-built deployments are trace-identical to the
hand-wired pre-redesign construction, and the plane registry behaves.

The equivalence contract of the api_redesign PR: for every deployment
shape the repo runs (async, sync, sharded, secure, mixed multi-tenant),
``Deployment.from_spec(spec)`` must produce *byte-identical* traces —
participation records, server steps, and event-log lines — to wiring the
same ``TaskConfig`` + adapter + ``SystemConfig`` + plane factory into
``FederatedSimulation`` by hand.
"""

import importlib.util
import pathlib

import pytest

from repro.api import (
    Deployment,
    ExecutionSpec,
    PlaneSpec,
    PopulationSpec,
    ScenarioSpec,
    SpecError,
    TaskSpec,
    build_population,
)
from repro.core.types import TaskConfig, TrainingMode
from repro.harness.scenario import run_scenario
from repro.sim.population import DevicePopulation, PopulationConfig
from repro.system import planes
from repro.system.adapters import SurrogateAdapter
from repro.system.aggregator import FLTaskRuntime
from repro.system.orchestrator import FederatedSimulation, SystemConfig
from repro.system.sharding import ShardedFLTaskRuntime


def trace_fingerprint(result):
    """Everything observable about a finished run, exactly."""
    return (
        result.duration_s,
        result.trace.participations,
        result.trace.server_steps,
        [(r.time, r.component, r.kind, r.detail) for r in result.log],
    )


def make_pop(n=800, seed=0, **kw):
    return DevicePopulation(PopulationConfig(n_devices=n, **kw), seed=seed)


class TestTraceEquivalence:
    """Spec-built == hand-wired, byte for byte."""

    def run_both(self, spec, tasks, system, seed, t_end, plane=None, **run_kw):
        """Run the spec path and the hand-wired path on fresh populations."""
        spec_res = Deployment.from_spec(spec).run(t_end=t_end, **run_kw)
        pop = DevicePopulation(
            spec.population.population_config(), seed=spec.population_seed()
        )
        hand = FederatedSimulation(tasks, pop, system=system, plane=plane, seed=seed)
        hand_res = hand.run(t_end=t_end, **run_kw)
        return spec_res, hand_res

    def test_async_surrogate(self):
        spec = ScenarioSpec(
            population=PopulationSpec(n_devices=800, seed=0),
            tasks=(TaskSpec(name="async", mode="async", concurrency=16,
                            aggregation_goal=4, model_size_bytes=1_000_000),),
            execution=ExecutionSpec(seed=0),
        )
        cfg = TaskConfig(name="async", mode=TrainingMode.ASYNC, concurrency=16,
                         aggregation_goal=4, model_size_bytes=1_000_000)
        spec_res, hand_res = self.run_both(
            spec, [(cfg, SurrogateAdapter(seed=0))], None, 0, 1800.0
        )
        assert trace_fingerprint(spec_res) == trace_fingerprint(hand_res)

    def test_sync_with_over_selection(self):
        spec = ScenarioSpec(
            population=PopulationSpec(n_devices=800, seed=1),
            tasks=(TaskSpec(name="sync", mode="sync", concurrency=13,
                            aggregation_goal=10, over_selection=0.3,
                            model_size_bytes=1_000_000),),
            execution=ExecutionSpec(seed=1),
        )
        cfg = TaskConfig(name="sync", mode=TrainingMode.SYNC, concurrency=13,
                         aggregation_goal=10, over_selection=0.3,
                         model_size_bytes=1_000_000)
        spec_res, hand_res = self.run_both(
            spec, [(cfg, SurrogateAdapter(seed=1))], None, 1, 1800.0
        )
        assert trace_fingerprint(spec_res) == trace_fingerprint(hand_res)

    def test_sharded_plane(self):
        spec = ScenarioSpec(
            population=PopulationSpec(n_devices=400, seed=0),
            tasks=(TaskSpec(name="t", mode="async", concurrency=24,
                            aggregation_goal=6, model_size_bytes=100_000),),
            plane=PlaneSpec(name="sharded", num_shards=4, shard_routing="hash"),
            system={"n_aggregators": 3},
            execution=ExecutionSpec(seed=0),
        )
        cfg = TaskConfig(name="t", mode=TrainingMode.ASYNC, concurrency=24,
                         aggregation_goal=6, model_size_bytes=100_000)
        system = SystemConfig(n_aggregators=3)
        spec_res, hand_res = self.run_both(
            spec, [(cfg, SurrogateAdapter(seed=0))], system, 0, 2000.0,
            plane=planes.ShardedPlane(num_shards=4, shard_routing="hash"),
        )
        assert trace_fingerprint(spec_res) == trace_fingerprint(hand_res)
        assert isinstance(
            Deployment.from_spec(spec).build().task_runtimes["t"],
            ShardedFLTaskRuntime,
        )

    def test_secure_plane(self):
        spec = ScenarioSpec(
            population=PopulationSpec(n_devices=500, seed=0),
            tasks=(TaskSpec(name="secure", mode="async", concurrency=12,
                            aggregation_goal=4, model_size_bytes=100_000),),
            plane=PlaneSpec(name="secure"),
            execution=ExecutionSpec(seed=0),
        )
        cfg = TaskConfig(name="secure", mode=TrainingMode.ASYNC, concurrency=12,
                         aggregation_goal=4, model_size_bytes=100_000)
        spec_res, hand_res = self.run_both(
            spec, [(cfg, SurrogateAdapter(seed=0))], None, 0, 1200.0,
            plane=planes.SecurePlane(), max_server_steps=8,
        )
        assert trace_fingerprint(spec_res) == trace_fingerprint(hand_res)

    def test_multi_tenant_mixed_modes(self):
        spec = ScenarioSpec(
            population=PopulationSpec(n_devices=1000, seed=2),
            tasks=(
                TaskSpec(name="a", mode="async", concurrency=12,
                         aggregation_goal=4, model_size_bytes=1_000_000),
                TaskSpec(name="s", mode="sync", concurrency=13,
                         aggregation_goal=10, over_selection=0.3,
                         model_size_bytes=1_000_000),
            ),
            execution=ExecutionSpec(seed=2),
        )
        tasks = [
            (TaskConfig(name="a", mode=TrainingMode.ASYNC, concurrency=12,
                        aggregation_goal=4, model_size_bytes=1_000_000),
             SurrogateAdapter(seed=2)),
            (TaskConfig(name="s", mode=TrainingMode.SYNC, concurrency=13,
                        aggregation_goal=10, over_selection=0.3,
                        model_size_bytes=1_000_000),
             SurrogateAdapter(seed=2)),
        ]
        spec_res, hand_res = self.run_both(spec, tasks, None, 2, 1800.0)
        assert trace_fingerprint(spec_res) == trace_fingerprint(hand_res)


class TestPlaneFallback:
    """A sharded plane with an ineligible task logs a structured event."""

    def test_sync_task_falls_back_with_event(self):
        pop = make_pop(200, seed=0)
        cfg = TaskConfig(name="s", mode=TrainingMode.SYNC, concurrency=13,
                         aggregation_goal=10, model_size_bytes=1000)
        fs = FederatedSimulation(
            [(cfg, SurrogateAdapter(seed=0))], pop,
            plane=planes.ShardedPlane(num_shards=4), seed=0,
        )
        assert type(fs.task_runtimes["s"]) is FLTaskRuntime
        [event] = fs.log.of_kind("plane_fallback")
        assert event.detail["task"] == "s"
        assert event.detail["requested"] == "sharded"
        assert event.detail["chosen"] == "single"
        assert "ASYNC" in event.detail["reason"]

    def test_secure_task_shards_hierarchically_without_fallback(self):
        from repro.system.secure_sharding import SecureShardedFLTaskRuntime

        pop = make_pop(200, seed=0)
        cfg = TaskConfig(name="sec", mode=TrainingMode.ASYNC, concurrency=12,
                         aggregation_goal=4, model_size_bytes=1000)
        fs = FederatedSimulation(
            [(cfg, SurrogateAdapter(seed=0))], pop,
            plane=planes.SecureShardedPlane(num_shards=4), seed=0,
        )
        rt = fs.task_runtimes["sec"]
        assert type(rt) is SecureShardedFLTaskRuntime
        assert rt.core.num_shards == 4
        assert fs.log.count("plane_fallback") == 0

    def test_eligible_tasks_log_nothing(self):
        pop = make_pop(200, seed=0)
        cfg = TaskConfig(name="a", mode=TrainingMode.ASYNC, concurrency=12,
                         aggregation_goal=4, model_size_bytes=1000)
        fs = FederatedSimulation(
            [(cfg, SurrogateAdapter(seed=0))], pop,
            plane=planes.ShardedPlane(num_shards=2), seed=0,
        )
        assert fs.log.count("plane_fallback") == 0


class TestPlaneRegistry:
    def test_builtin_planes_registered(self):
        assert {"single", "sharded", "secure", "secure_sharded"} <= set(
            planes.plane_names()
        )

    def test_unknown_plane_lookup_lists_known(self):
        with pytest.raises(KeyError, match="single"):
            planes.get_plane("warp")

    def test_custom_plane_plugs_in_without_orchestrator_edits(self):
        class RecordingPlane:
            name = "recording"

            def __init__(self):
                self.built = []

            def build(self, ctx):
                self.built.append(ctx.config.name)
                return FLTaskRuntime(
                    ctx.config, ctx.adapter, ctx.sim, ctx.trace, ctx.log,
                    on_slot_free=ctx.on_slot_free, cohort=ctx.cohort,
                )

        factory = RecordingPlane()
        planes.register_plane(factory)
        try:
            pop = make_pop(100, seed=0)
            cfg = TaskConfig(name="t", mode=TrainingMode.ASYNC, concurrency=8,
                             aggregation_goal=4, model_size_bytes=1000)
            fs = FederatedSimulation(
                [(cfg, SurrogateAdapter(seed=0))], pop,
                plane=planes.get_plane("recording"), seed=0,
            )
            assert factory.built == ["t"]
            assert type(fs.task_runtimes["t"]) is FLTaskRuntime
        finally:
            planes._PLANES._entries.pop("recording")

    def test_custom_routing_plugs_in(self):
        class FirstShardRouting:
            name = "first"

            def route(self, client_id, shards):
                for idx, shard in enumerate(shards):
                    if shard.alive:
                        return idx
                raise RuntimeError("no live shards")

        planes.register_routing("first", FirstShardRouting)
        try:
            spec = ScenarioSpec(
                population=PopulationSpec(n_devices=200, seed=0),
                tasks=(TaskSpec(name="t", mode="async", concurrency=8,
                                aggregation_goal=4, model_size_bytes=1000),),
                plane=PlaneSpec(name="sharded", num_shards=2,
                                shard_routing="first"),
                execution=ExecutionSpec(seed=0, t_end_s=300.0),
            )
            fs = Deployment.from_spec(spec).build()
            assert fs.task_runtimes["t"].core.routing.name == "first"
        finally:
            planes._ROUTINGS._entries.pop("first")

    def test_trainer_registry_names(self):
        assert {"surrogate", "external", "real_lstm"} <= set(planes.trainer_names())


class TestDeploymentBehavior:
    def spec(self, **kw):
        defaults = dict(
            population=PopulationSpec(n_devices=300, seed=0),
            tasks=(TaskSpec(name="t", mode="async", concurrency=8,
                            aggregation_goal=4, model_size_bytes=1000),),
            execution=ExecutionSpec(seed=0, t_end_s=600.0),
        )
        defaults.update(kw)
        return ScenarioSpec(**defaults)

    def test_build_is_idempotent(self):
        dep = Deployment.from_spec(self.spec())
        assert dep.build() is dep.build()
        assert dep.simulation is dep.build()

    def test_run_uses_spec_execution_knobs(self):
        spec = self.spec(execution=ExecutionSpec(seed=0, t_end_s=600.0,
                                                 max_server_steps=3))
        res = Deployment.from_spec(spec).run()
        assert res.stats().server_steps == 3

    @pytest.mark.parametrize("mode", ["async", "sync"])
    def test_sim_digest_is_the_benchmark_definition(self, mode):
        """``RunResult.sim_digest`` and ``benchmarks/e2e`` hash the same fields.

        The benchmark keeps its own copy (that directory is frozen between
        benchmark-only PRs); until it is retired the two must not drift.
        """
        e2e = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
        loader = importlib.util.spec_from_file_location("e2e_rep", e2e / "e2e_rep.py")
        e2e_rep = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(e2e_rep)

        task = TaskSpec(name="t", mode=mode, concurrency=8, aggregation_goal=4,
                        model_size_bytes=1000)
        res = Deployment.from_spec(self.spec(tasks=(task,))).run()
        assert res.stats().server_steps > 0 and res.trace.participations
        assert res.sim_digest() == e2e_rep.sim_digest(res)
        # Same spec + seed -> same digest; one more second of horizon -> not.
        assert Deployment.from_spec(self.spec(tasks=(task,))).run().sim_digest() \
            == res.sim_digest()
        longer = self.spec(tasks=(task,), execution=ExecutionSpec(seed=0, t_end_s=900.0))
        assert Deployment.from_spec(longer).run().sim_digest() != res.sim_digest()

    def test_run_without_horizon_names_field(self):
        spec = self.spec(execution=ExecutionSpec(seed=0))
        with pytest.raises(SpecError, match=r"execution\.t_end_s"):
            Deployment.from_spec(spec).run()
        # ... but an explicit t_end at run time is fine.
        res = Deployment.from_spec(spec).run(t_end=300.0)
        assert res.duration_s <= 300.0

    def test_external_trainer_requires_adapter(self):
        spec = self.spec(tasks=(TaskSpec(name="t", mode="async", concurrency=8,
                                         aggregation_goal=4,
                                         model_size_bytes=1000,
                                         trainer="external"),))
        with pytest.raises(SpecError, match="external"):
            Deployment.from_spec(spec).build()
        adapter = SurrogateAdapter(seed=0)
        dep = Deployment.from_spec(spec, adapters={"t": adapter})
        assert dep.build().task_runtimes["t"].adapter is adapter
        assert dep.adapter("t") is adapter

    def test_adapter_override_for_unknown_task_rejected(self):
        with pytest.raises(SpecError, match="no such task"):
            Deployment.from_spec(
                self.spec(), adapters={"zzz": SurrogateAdapter(seed=0)}
            )

    def test_adapter_injection_requires_external_trainer(self):
        # Injecting over a declared trainer would make the serialized
        # spec misdescribe what ran.
        with pytest.raises(SpecError, match="external"):
            Deployment.from_spec(
                self.spec(), adapters={"t": SurrogateAdapter(seed=0)}
            )

    def test_adapter_accessor_names_unknown_task(self):
        dep = Deployment.from_spec(self.spec())
        with pytest.raises(SpecError, match="no such task"):
            dep.adapter("typo")

    def test_unknown_trainer_name_lists_registered(self):
        spec = self.spec(tasks=(TaskSpec(name="t", mode="async", concurrency=8,
                                         aggregation_goal=4,
                                         model_size_bytes=1000,
                                         trainer="nonexistent"),))
        with pytest.raises(KeyError, match="surrogate"):
            Deployment.from_spec(spec).build()

    def test_population_reuse_override(self):
        pop = make_pop(300, seed=0)
        dep = Deployment.from_spec(self.spec(), population=pop)
        assert dep.population is pop
        assert dep.build().population is pop

    def test_build_population_helper(self):
        pop = build_population(PopulationSpec(n_devices=77, seed=3))
        assert pop.config.n_devices == 77
        assert pop.seed == 3


class TestScenarioExperiment:
    def test_run_scenario_summary_matches_direct_run(self):
        spec = ScenarioSpec(
            population=PopulationSpec(n_devices=300, seed=0),
            tasks=(TaskSpec(name="t", mode="async", concurrency=8,
                            aggregation_goal=4, model_size_bytes=1000),),
            execution=ExecutionSpec(seed=0, t_end_s=600.0),
        )
        summary = run_scenario(spec)
        direct = Deployment.from_spec(spec).run()
        [task] = summary.tasks
        assert task.server_steps == direct.stats().server_steps
        assert task.aggregated == direct.stats().aggregated
        assert summary.duration_s == direct.duration_s

    def test_run_scenario_seed_and_overrides(self):
        spec = ScenarioSpec(
            population=PopulationSpec(n_devices=300),
            tasks=(TaskSpec(name="t", mode="async", concurrency=8,
                            aggregation_goal=4, model_size_bytes=1000),),
            execution=ExecutionSpec(seed=0, t_end_s=600.0),
        )
        a = run_scenario(spec, seed=0)
        b = run_scenario(spec, seed=1)
        assert a != b  # the seed override actually reaches the run
        c = run_scenario(spec, seed=0, overrides={"tasks.0.concurrency": 16})
        assert c.tasks[0].downloads > a.tasks[0].downloads

    def test_run_scenario_without_seed_honors_spec_seed(self):
        spec = ScenarioSpec(
            population=PopulationSpec(n_devices=300),
            tasks=(TaskSpec(name="t", mode="async", concurrency=8,
                            aggregation_goal=4, model_size_bytes=1000),),
            execution=ExecutionSpec(seed=7, t_end_s=600.0),
        )
        # seed=None (the CLI run path with no --seed) must not clobber
        # the spec's own execution.seed with 0.
        assert run_scenario(spec.to_dict()) == run_scenario(spec, seed=7)
        assert run_scenario(spec.to_dict()) != run_scenario(spec, seed=0)

    def test_scenario_cells_validate_interdependent_grids_atomically(self):
        from repro.harness.sweep import build_scenario_cells, run_sweep

        base = ScenarioSpec(
            population=PopulationSpec(n_devices=300, seed=0),
            tasks=(TaskSpec(name="t", mode="async", concurrency=8,
                            aggregation_goal=4, model_size_bytes=1000),),
            execution=ExecutionSpec(seed=0, t_end_s=600.0),
        )
        # plane.name and plane.num_shards only make sense together; the
        # grid must be judged per cell, not per axis.
        cells = build_scenario_cells(
            base, seeds=[0],
            grid={"plane.name": ["sharded"], "plane.num_shards": [2, 4]},
        )
        assert len(cells) == 2
        assert run_sweep(cells).ran == 2
        # ... and a combination that is invalid in every cell fails when
        # the sweep executor plans, before any arm runs.
        bad = build_scenario_cells(
            base, seeds=[0],
            grid={"tasks.0.mode": ["sync"], "plane.name": ["secure"]},
        )
        with pytest.raises(SpecError):
            run_sweep(bad)

    def test_run_scenario_requires_horizon(self):
        spec = ScenarioSpec(
            population=PopulationSpec(n_devices=100),
            tasks=(TaskSpec(name="t", mode="async", concurrency=8,
                            aggregation_goal=4, model_size_bytes=1000),),
        )
        with pytest.raises(SpecError, match=r"execution\.t_end_s"):
            run_scenario(spec)
