"""Fault-injection plane, retry/backoff policies, and recovery contracts.

The contracts this suite pins:

* :class:`BackoffPolicy` / :class:`RetryPolicy` parse a compact string
  grammar, validate their fields, and — on the default policies —
  consume the RNG stream *exactly* as the legacy hard-coded jitter did
  (bit-identity of every pre-existing trace);
* :class:`FaultSpec` is frozen, JSON-round-trippable, validated with
  field-named :class:`SpecError`\\ s, and *omitted* from the canonical
  document when empty (sweep-cache fingerprints unchanged);
* a deployment with ``FaultSpec == none`` builds no injector at all,
  and the same spec + seed + schedule replays bit-identically;
* the recovery invariants — device conservation, update conservation
  (no aggregated update lost or double-counted across failover) — hold
  under **every** canned adversarial spec in ``examples/scenarios/``;
* the deprecated ``inject_*`` shims route through the FaultSpec path
  unchanged, and coordinator failover emits structured events.
"""

import copy
import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.api import (
    Deployment,
    ExecutionSpec,
    FaultEvent,
    FaultSpec,
    PlaneSpec,
    PopulationSpec,
    ScenarioSpec,
    SpecError,
    TaskSpec,
)
from repro.sim.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultParamError,
    event_end_s,
    recovery_report,
    validate_fault_params,
)
from repro.utils.backoff import BackoffPolicy, RetryPolicy
from repro.utils.rng import child_rng

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples" / "scenarios"
SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.json"))


def small_spec(faults=None, plane=None, **execution) -> ScenarioSpec:
    execution.setdefault("seed", 0)
    execution.setdefault("t_end_s", 1200.0)
    return ScenarioSpec(
        population=PopulationSpec(n_devices=400),
        tasks=(TaskSpec(name="train", mode="async", concurrency=24,
                        aggregation_goal=4, model_size_bytes=1_000_000),),
        plane=plane or PlaneSpec(),
        execution=ExecutionSpec(**execution),
        faults=faults or FaultSpec(),
    )


def trace_fingerprint(result) -> str:
    h = hashlib.sha256()
    for p in result.trace.participations:
        h.update(repr((p.device_id, p.task, p.start_time,
                       p.end_time, p.outcome)).encode())
    for s in result.trace.server_steps:
        h.update(repr((s.time, s.task, s.version, s.num_updates, s.loss)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Backoff / retry policies
# ---------------------------------------------------------------------------


class TestBackoffPolicy:
    def test_parse_round_trips(self):
        for text in ("fixed", "fixed,jitter=0.5", "exponential,base=2,factor=3,cap=60",
                     "exponential,base=1.5,jitter=0.25"):
            policy = BackoffPolicy.parse(text)
            again = BackoffPolicy.parse(policy.to_string())
            assert again == policy

    @pytest.mark.parametrize("bad", [
        "bogus", "fixed,nope=1", "fixed,jitter=1.5", "exponential,factor=0.5",
        "fixed,base=-1", "exponential,cap=0",
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            BackoffPolicy.parse(bad)

    def test_fixed_no_jitter_makes_no_rng_call(self):
        rng = child_rng(0, "x")
        before = rng.bit_generator.state
        policy = BackoffPolicy.parse("fixed", default_base=7.0)
        assert policy.delay(rng) == 7.0
        assert rng.bit_generator.state == before

    def test_default_jitter_matches_legacy_scalar_draw(self):
        # The orchestrator's historical jitter: latency * uniform(0.5, 1.5).
        policy = BackoffPolicy.parse("fixed,jitter=0.5", default_base=3.0)
        a, b = child_rng(5, "routing"), child_rng(5, "routing")
        for _ in range(100):
            assert policy.delay(a) == 3.0 * float(b.uniform(0.5, 1.5))

    def test_default_block_matches_legacy_fleet_draw(self):
        # The fleet's historical wakes: backoff_s * (0.5 + random(n)).
        policy = BackoffPolicy.parse("fixed,jitter=0.5", default_base=900.0)
        a, b = child_rng(9, "fleet"), child_rng(9, "fleet")
        got = policy.delay_block(64, a)
        want = 900.0 * (0.5 + b.random(64))
        np.testing.assert_array_equal(got, want)

    def test_exponential_growth_and_cap(self):
        policy = BackoffPolicy.parse("exponential,base=2,factor=2,cap=10")
        rng = child_rng(0, "x")
        assert [policy.delay(rng, attempt=a) for a in range(4)] == [2.0, 4.0, 8.0, 10.0]


class TestRetryPolicy:
    def test_parse_forms(self):
        assert RetryPolicy.parse("always").max_attempts is None
        assert RetryPolicy.parse("never").max_attempts == 0
        limited = RetryPolicy.parse("max=3,exponential,base=1,cap=30")
        assert limited.max_attempts == 3
        assert limited.backoff.kind == "exponential"
        assert RetryPolicy.parse(limited.to_string()) == limited

    def test_should_retry_and_delay(self):
        policy = RetryPolicy.parse("max=2,fixed,base=5")
        assert policy.should_retry(1) and policy.should_retry(2)
        assert not policy.should_retry(3)
        assert RetryPolicy.parse("always").should_retry(10_000)
        assert policy.retry_delay(1, child_rng(0, "x")) == 5.0
        assert RetryPolicy.parse("never").retry_delay(1, child_rng(0, "x")) == 0.0


# ---------------------------------------------------------------------------
# FaultSpec / FaultEvent
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_round_trip_through_json(self):
        spec = FaultSpec(
            events=(
                FaultEvent("dropout_storm", 100.0, {"fraction": 0.3}),
                FaultEvent("aggregator_crash", 50.0,
                           {"node": 0, "recover_after_s": 10.0}),
            ),
            seed=4,
        )
        again = FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_events_serialize_flat(self):
        doc = FaultEvent("network_loss", 10.0,
                         {"rate": 0.2, "duration_s": 60.0}).to_dict()
        assert doc == {"kind": "network_loss", "at_s": 10.0,
                       "rate": 0.2, "duration_s": 60.0}

    @pytest.mark.parametrize("event_kwargs, field_part", [
        (dict(kind="nope", at_s=0.0), "kind"),
        (dict(kind="dropout_storm", at_s=-1.0, params={"fraction": 0.5}), "at_s"),
        (dict(kind="dropout_storm", at_s=0.0, params={}), "fraction"),
        (dict(kind="dropout_storm", at_s=0.0,
              params={"fraction": 0.5, "bogus": 1}), "bogus"),
        (dict(kind="network_loss", at_s=0.0,
              params={"rate": 1.5, "duration_s": 10.0}), "rate"),
    ])
    def test_field_named_errors(self, event_kwargs, field_part):
        with pytest.raises(SpecError) as err:
            FaultEvent(**event_kwargs)
        assert field_part in err.value.field

    def test_cross_validation_against_scenario(self):
        with pytest.raises(SpecError, match="faults.events"):
            small_spec(faults=FaultSpec(events=(
                FaultEvent("aggregator_crash", 10.0, {"node": 9}),)))
        with pytest.raises(SpecError, match="no task"):
            small_spec(faults=FaultSpec(events=(
                FaultEvent("worker_kill", 10.0, {"task": "ghost", "shard": 0}),)),
                plane=PlaneSpec(name="sharded", num_shards=2, executor="process"))
        with pytest.raises(SpecError, match="worker_kill"):
            small_spec(faults=FaultSpec(events=(
                FaultEvent("worker_kill", 10.0, {"task": "train", "shard": 0}),)))

    def test_faults_key_omitted_when_default(self):
        doc = small_spec().to_dict()
        assert "faults" not in doc
        # ... so pre-PR canonical documents still parse and fingerprint.
        assert ScenarioSpec.from_dict(doc) == small_spec()

    def test_override_supports_fault_seed_only(self):
        spec = small_spec().override("faults.seed", 7)
        assert spec.faults.seed == 7
        with pytest.raises(SpecError, match="faults.seed"):
            small_spec().override("faults.events", [])

    def test_validate_fault_params_defaults(self):
        filled = validate_fault_params("dropout_storm", {"fraction": 0.5},
                                       fill_defaults=True)
        assert filled["interval_s"] == 60.0
        with pytest.raises(FaultParamError):
            validate_fault_params("no_such_kind", {})

    def test_event_end_covers_every_kind(self):
        valid = {
            "aggregator_crash": {"node": 0, "recover_after_s": 30.0},
            "aggregator_flap": {"node": 0, "count": 2, "down_s": 10.0, "up_s": 20.0},
            "coordinator_outage": {"duration_s": 60.0},
            "dropout_storm": {"fraction": 0.5, "duration_s": 120.0},
            "straggler_tier": {"factor": 2.0, "fraction": 0.5, "duration_s": 60.0},
            "network_delay": {"factor": 2.0, "duration_s": 60.0},
            "network_loss": {"rate": 0.5, "duration_s": 60.0},
            "blackout": {"fraction": 0.5, "duration_s": 60.0},
            "availability_wave": {"amplitude": 0.5, "period_s": 60.0,
                                  "duration_s": 120.0},
            "flash_crowd": {"burst": 5, "duration_s": 60.0},
            "worker_kill": {"task": "t", "shard": 0},
        }
        assert set(valid) == set(FAULT_KINDS)
        for kind, params in valid.items():
            assert event_end_s(kind, 100.0, params) >= 100.0


# ---------------------------------------------------------------------------
# Differential contracts (the default path is byte-identical)
# ---------------------------------------------------------------------------


class TestDifferentialContracts:
    def test_no_faults_builds_no_injector(self):
        dep = Deployment.from_spec(small_spec())
        dep.run()
        assert dep.simulation.fault_injector is None

    def test_explicit_default_policies_are_bit_identical(self):
        base = Deployment.from_spec(small_spec()).run()
        explicit = Deployment.from_spec(small_spec().with_overrides({
            "system.selection_backoff": "fixed,jitter=0.5",
            "system.checkin_backoff": "fixed",
            "system.placement_retry": "always",
        })).run()
        assert trace_fingerprint(explicit) == trace_fingerprint(base)

    def test_same_schedule_replays_bit_identically(self):
        faults = FaultSpec(events=(
            FaultEvent("dropout_storm", 300.0,
                       {"fraction": 0.4, "duration_s": 120.0}),
            FaultEvent("network_loss", 500.0,
                       {"rate": 0.3, "duration_s": 120.0}),
        ))
        first = Deployment.from_spec(small_spec(faults=faults)).run()
        second = Deployment.from_spec(small_spec(faults=faults)).run()
        assert trace_fingerprint(first) == trace_fingerprint(second)

    def test_fault_seed_decouples_realization_from_workload(self):
        faults = FaultSpec(events=(
            FaultEvent("dropout_storm", 300.0,
                       {"fraction": 0.4, "duration_s": 300.0}),))
        pinned = FaultSpec(events=faults.events, seed=123)
        a = Deployment.from_spec(small_spec(faults=faults)).run()
        b = Deployment.from_spec(small_spec(faults=pinned)).run()
        assert trace_fingerprint(a) != trace_fingerprint(b)


# ---------------------------------------------------------------------------
# Recovery invariants over the canned scenario library
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "path", SCENARIO_FILES, ids=[p.stem for p in SCENARIO_FILES]
)
def test_recovery_invariants_hold_for_canned_spec(path):
    assert SCENARIO_FILES, "examples/scenarios/ must hold the canned specs"
    spec = ScenarioSpec.from_dict(json.loads(path.read_text()))
    dep = Deployment.from_spec(spec)
    result = dep.run()
    try:
        injector = dep.simulation.fault_injector
        assert injector is not None and injector.fired, "schedule never fired"
        report = recovery_report(dep.simulation, result)
        assert report["device_conservation_ok"], report
        assert report["updates_conservation_ok"], report
        for name, task_report in report["tasks"].items():
            assert task_report["unaccounted"] == 0, (name, task_report)
        # The run must keep making progress after the last fault window.
        end = injector.last_fault_end_s
        assert any(s.time >= end for s in result.trace.server_steps), (
            f"no server step after the fault window closed at {end}"
        )
    finally:
        for rt in dep.simulation.task_runtimes.values():
            close = getattr(rt, "close", None)
            if close is not None:
                close()


def test_recovery_report_reads_the_buffered_count_contract():
    """``buffered_now`` is the core's public ``buffered_count`` — a core
    that has no ``_count`` private must not read as an empty buffer and
    turn its buffered updates into a false ``unaccounted``."""
    dep = Deployment.from_spec(small_spec(t_end_s=600.0))
    result = dep.run()
    rt = dep.simulation.task_runtimes["train"]
    buffered = rt.core.buffered_count
    assert buffered > 0, "pick a horizon that ends mid-epoch"

    class PublicContractOnly:
        buffered_count = buffered

    rt.core = PublicContractOnly()
    report = recovery_report(dep.simulation, result)["tasks"]["train"]
    assert report["buffered_now"] == buffered and report["unaccounted"] == 0


# ---------------------------------------------------------------------------
# Fault behaviours through the sim
# ---------------------------------------------------------------------------


class TestFaultBehaviours:
    def test_blackout_blocks_checkins(self):
        faults = FaultSpec(events=(
            FaultEvent("blackout", 200.0, {"fraction": 0.9, "duration_s": 400.0}),))
        dep = Deployment.from_spec(small_spec(faults=faults))
        dep.run()
        assert dep.simulation.fault_injector.checkins_blocked > 0

    def test_network_loss_drops_uploads_conservatively(self):
        faults = FaultSpec(events=(
            FaultEvent("network_loss", 200.0, {"rate": 0.5, "duration_s": 400.0}),))
        dep = Deployment.from_spec(small_spec(faults=faults))
        result = dep.run()
        injector = dep.simulation.fault_injector
        assert injector.uploads_lost > 0
        assert len(list(result.log.of_kind("upload_lost"))) == injector.uploads_lost
        report = recovery_report(dep.simulation, result)
        assert report["updates_conservation_ok"]

    def test_straggler_tier_slows_a_stable_subset(self):
        faults = FaultSpec(events=(
            FaultEvent("straggler_tier", 100.0,
                       {"factor": 5.0, "fraction": 0.5, "duration_s": 900.0}),))
        slow = Deployment.from_spec(small_spec(faults=faults)).run()
        fast = Deployment.from_spec(small_spec()).run()
        assert slow.stats("train").aggregated < fast.stats("train").aggregated

    def test_worker_kill_falls_back_bit_identically(self):
        plane = PlaneSpec(name="sharded", num_shards=2, executor="process")
        faults = FaultSpec(events=(
            FaultEvent("worker_kill", 400.0, {"task": "train", "shard": 1}),))
        dep = Deployment.from_spec(small_spec(faults=faults, plane=plane))
        try:
            killed = dep.run()
            fallbacks = list(killed.log.of_kind("executor_fallback"))
            assert fallbacks and fallbacks[0].detail["reason"] == "worker_dead"
        finally:
            for rt in dep.simulation.task_runtimes.values():
                rt.close()
        # The dispatch-log replay makes the degraded run byte-identical
        # to the inline executor with no faults at all.
        inline = Deployment.from_spec(
            small_spec(plane=PlaneSpec(name="sharded", num_shards=2))
        ).run()
        assert trace_fingerprint(killed) == trace_fingerprint(inline)


# ---------------------------------------------------------------------------
# Late-attached injectors and coordinator structured events
# ---------------------------------------------------------------------------


class TestShimsAndEvents:
    def test_inject_shims_route_through_fault_injector(self):
        dep = Deployment.from_spec(small_spec())
        fedsim = dep.build()
        attached = FaultInjector(fedsim, seed=fedsim.seed)
        attached.schedule("aggregator_crash", 300.0, node=0)
        attached.schedule("coordinator_outage", 600.0, duration_s=60.0)
        injector = fedsim.fault_injector
        assert injector is not None
        result = fedsim.run(t_end=1200.0)
        assert {"aggregator_crash", "coordinator_outage"} <= {
            k for _, k in injector.fired
        }
        assert recovery_report(fedsim, result)["device_conservation_ok"]

    def test_single_plane_failover_events_are_structured(self):
        faults = FaultSpec(events=(
            FaultEvent("aggregator_crash", 300.0,
                       {"node": 0, "recover_after_s": 200.0}),))
        result = Deployment.from_spec(small_spec(faults=faults)).run()
        failed = list(result.log.of_kind("shard_failed"))
        assert failed
        assert failed[0].component == "task:train"
        assert failed[0].detail["node"] == 0 and failed[0].detail["shard"] == 0
        events = list(result.log.of_kind("shard_replaced"))
        assert events
        detail = events[0].detail
        assert detail["task"] == "train" and detail["shard"] == 0
        assert detail["node"] != 0
        assert detail["reason"] in ("heartbeat_expired", "node_dead")
        assert detail["retries"] == 0

    def test_shard_replaced_event_is_structured(self):
        plane = PlaneSpec(name="sharded", num_shards=2)
        faults = FaultSpec(events=(
            FaultEvent("aggregator_crash", 300.0,
                       {"node": 0, "recover_after_s": 200.0}),))
        result = Deployment.from_spec(small_spec(faults=faults, plane=plane)).run()
        events = list(result.log.of_kind("shard_replaced"))
        assert events
        detail = events[0].detail
        assert detail["task"] == "train"
        assert detail["shard"] in (0, 1) and "node" in detail
        assert detail["reason"] in ("node_dead", "heartbeat_expired", "retry")
        assert detail["retries"] >= 0

    def test_placement_retry_then_abandoned(self):
        # Crash both aggregators with no recovery: placement has no live
        # node, so a max=2 policy retries twice and then gives up loudly.
        faults = FaultSpec(events=(
            FaultEvent("aggregator_crash", 200.0, {"node": 0}),
            FaultEvent("aggregator_crash", 200.0, {"node": 1}),
        ))
        spec = small_spec(faults=faults, t_end_s=900.0).override(
            "system.placement_retry", "max=2,fixed,base=30"
        )
        result = Deployment.from_spec(spec).run()
        retries = list(result.log.of_kind("placement_retry"))
        abandoned = list(result.log.of_kind("placement_abandoned"))
        assert retries and abandoned
        assert abandoned[0].detail["task"] == "train"
        assert abandoned[0].detail["retries"] > 2

    def test_fault_events_land_in_the_log(self):
        faults = FaultSpec(events=(
            FaultEvent("dropout_storm", 300.0,
                       {"fraction": 0.5, "duration_s": 120.0}),))
        result = Deployment.from_spec(small_spec(faults=faults)).run()
        assert list(result.log.of_kind("fault_dropout_storm"))


# ---------------------------------------------------------------------------
# The chaos experiment (tiny operating point; floors live in benchmarks/)
# ---------------------------------------------------------------------------


class TestChaosExperiment:
    def test_small_grid_measures_and_replays(self, capsys):
        from repro.harness.chaos import chaos_experiment, print_chaos

        res = chaos_experiment(
            n_devices=200, seed=0, t_end_s=2400.0,
            schedules="none,aggregator_crash", planes="single", replay=True,
        )
        assert [p.schedule for p in res.points] == ["none", "aggregator_crash"]
        baseline, crashed = res.points
        assert baseline.goodput_retention == 1.0
        assert baseline.recovery_s is None and baseline.replay_identical is None
        assert crashed.replay_identical is True
        assert crashed.device_conservation_ok and crashed.updates_conservation_ok
        assert crashed.unaccounted == 0
        print_chaos(res)
        assert "aggregator_crash" in capsys.readouterr().out

    def test_rejects_bad_parameters(self):
        from repro.harness.chaos import chaos_experiment

        with pytest.raises(SpecError, match="t_end_s"):
            chaos_experiment(t_end_s=100.0)
        with pytest.raises(SpecError, match="schedules"):
            chaos_experiment(schedules="nope")
        with pytest.raises(SpecError, match="planes"):
            chaos_experiment(planes="mesh")

    def test_registered_in_the_experiment_registry(self):
        from repro.harness import chaos, registry  # noqa: F401

        spec = registry.get("chaos")
        assert spec.result_type.__name__ == "ChaosResult"
        assert not spec.uses_scale


# ---------------------------------------------------------------------------
# SystemConfig policy validation
# ---------------------------------------------------------------------------


class TestSystemConfigPolicies:
    @pytest.mark.parametrize("field_name", [
        "selection_backoff", "checkin_backoff", "placement_retry",
    ])
    def test_bad_policy_strings_fail_at_spec_time(self, field_name):
        with pytest.raises(SpecError, match=field_name):
            small_spec().override(f"system.{field_name}", "bogus,nope=1")

    def test_policies_survive_spec_round_trip(self):
        spec = small_spec().with_overrides({
            "system.selection_backoff": "exponential,base=2,cap=120,jitter=0.1",
            "system.placement_retry": "max=5",
        })
        again = ScenarioSpec.from_dict(copy.deepcopy(spec.to_dict()))
        assert again == spec
