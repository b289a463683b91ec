"""Integration tests of the full simulated PAPAYA deployment."""

import numpy as np
import pytest

from repro.core import FedAdam, GlobalModelState, LocalTrainer, TaskConfig, TrainingMode
from repro.data import CorpusSpec, FederatedDataset, TopicMarkovCorpus
from repro.nn import LSTMLanguageModel, ModelConfig
from repro.sim import DevicePopulation, Outcome, PopulationConfig
from repro.sim.faults import FaultInjector
from repro.system import (
    FederatedSimulation,
    RealTrainingAdapter,
    SurrogateAdapter,
    SystemConfig,
)

MODEL_BYTES = 500_000


def async_task(name="async", concurrency=60, goal=10, **kw):
    return TaskConfig(
        name=name, mode=TrainingMode.ASYNC, concurrency=concurrency,
        aggregation_goal=goal, model_size_bytes=MODEL_BYTES, **kw,
    )


def sync_task(name="sync", goal=40, over_selection=0.3, **kw):
    cohort = int(np.ceil(goal * (1 + over_selection)))
    return TaskConfig(
        name=name, mode=TrainingMode.SYNC, concurrency=cohort,
        aggregation_goal=goal, over_selection=over_selection,
        model_size_bytes=MODEL_BYTES, **kw,
    )


def make_sim(tasks, n_devices=4000, seed=0, system=None, pop_kw=None):
    pop = DevicePopulation(
        PopulationConfig(n_devices=n_devices, **(pop_kw or {})), seed=seed
    )
    return FederatedSimulation(tasks, pop, system=system, seed=seed)


class TestAsyncRun:
    @pytest.fixture(scope="class")
    def result(self):
        fs = make_sim([(async_task(), SurrogateAdapter(seed=0))])
        return fs.run(t_end=1800.0)

    def test_server_steps_happen(self, result):
        assert result.stats().server_steps > 20

    def test_loss_decreases(self, result):
        times, losses = result.trace.loss_curve("async")
        assert losses[-1] < losses[0]

    def test_some_dropouts_observed(self, result):
        s = result.stats()
        # ~10% dropout rate in the population must show up.
        assert s.failed > 0
        assert s.failed < 0.25 * s.aggregated

    def test_no_overselection_waste_in_async(self, result):
        assert result.stats().discarded == 0

    def test_staleness_positive_but_bounded(self, result):
        s = result.stats()
        assert 0.0 < s.mean_staleness <= 100.0

    def test_high_utilization(self, result):
        util = result.trace.mean_utilization(60, t_start=300.0, t_end=1800.0)
        assert util > 0.8  # paper: "close to 100%"

    def test_concurrency_never_exceeded(self, result):
        _, counts = result.trace.active_series()
        assert counts.max() <= 60

    def test_every_step_has_goal_updates(self, result):
        for s in result.trace.server_steps:
            assert s.num_updates == 10


class TestSyncRun:
    @pytest.fixture(scope="class")
    def result(self):
        fs = make_sim([(sync_task(), SurrogateAdapter(seed=0))])
        return fs.run(t_end=3600.0)

    def test_rounds_complete(self, result):
        assert result.stats().server_steps > 3

    def test_overselection_discards_stragglers(self, result):
        s = result.stats()
        assert s.discarded > 0
        # Roughly the over-selected 30% of each round gets discarded.
        frac = s.discarded / max(1, s.aggregated + s.discarded)
        assert 0.05 < frac < 0.45

    def test_sync_staleness_zero(self, result):
        assert result.stats().mean_staleness == 0.0

    def test_utilization_fluctuates_below_async_levels(self, result):
        util = result.trace.mean_utilization(52, t_start=300.0, t_end=3600.0)
        assert util < 0.8  # sawtooth: Figure 7

    def test_rounds_aggregate_exact_goal(self, result):
        for s in result.trace.server_steps:
            assert s.num_updates == 40

    def test_discarded_clients_biased_slow(self, result):
        # The over-selection victims should be slower than average — the
        # mechanism behind the paper's fairness analysis.
        parts = result.trace.participations
        agg = [p.execution_time for p in parts if p.outcome is Outcome.AGGREGATED]
        disc = [p.execution_time for p in parts if p.outcome is Outcome.DISCARDED]
        assert np.mean(disc) > np.mean(agg)


class TestReplacementAndDemand:
    def test_failed_clients_replaced(self):
        # With heavy dropout, the system must keep making progress.
        fs = make_sim(
            [(async_task(concurrency=30, goal=5), SurrogateAdapter(seed=0))],
            pop_kw={"dropout_rate": 0.4},
        )
        res = fs.run(t_end=1800.0)
        s = res.stats()
        assert s.failed > 50
        assert s.server_steps > 10  # progress despite churn

    def test_sync_mid_round_replacement(self):
        fs = make_sim(
            [(sync_task(goal=20, over_selection=0.0), SurrogateAdapter(seed=0))],
            pop_kw={"dropout_rate": 0.3},
        )
        res = fs.run(t_end=3600.0)
        # Without over-selection and with 30% dropout, rounds can only
        # complete if failed clients are replaced mid-round.
        assert res.stats().server_steps >= 3
        assert res.stats().failed > 0

    def test_async_goal_reachability_with_small_concurrency(self):
        fs = make_sim([(async_task(concurrency=10, goal=10), SurrogateAdapter(seed=0))])
        res = fs.run(t_end=3600.0)
        assert res.stats().server_steps >= 1


class TestStalenessControl:
    def test_max_staleness_aborts(self):
        # Tiny max staleness with a big spread of execution times forces
        # aborts of slow clients after server steps.
        fs = make_sim(
            [(async_task(concurrency=50, goal=5, max_staleness=1),
              SurrogateAdapter(seed=0))],
        )
        res = fs.run(t_end=1800.0)
        s = res.stats()
        assert s.aborted > 0
        # No aggregated update may exceed the bound by more than one step
        # (abort happens right after the step that tripped it).
        stals = res.trace.staleness_values()
        assert stals.max() <= 2

    def test_generous_staleness_no_aborts(self):
        fs = make_sim(
            [(async_task(concurrency=40, goal=5, max_staleness=1000),
              SurrogateAdapter(seed=0))],
        )
        res = fs.run(t_end=900.0)
        assert res.stats().aborted == 0


class TestFailureRecovery:
    def test_aggregator_failure_recovers(self):
        fs = make_sim(
            [(async_task(), SurrogateAdapter(seed=0))],
            system=SystemConfig(n_aggregators=2, heartbeat_interval_s=5.0),
        )
        FaultInjector(fs, seed=fs.seed).schedule("aggregator_crash", 600.0, node=0)
        res = fs.run(t_end=2400.0)
        # The task moved and kept stepping after the failure.
        assert len(res.log.of_kind("shard_failed")) >= 1
        post = [s for s in res.trace.server_steps if s.time > 700.0]
        assert len(post) > 5

    def test_aggregator_failure_drops_inflight(self):
        fs = make_sim(
            [(async_task(), SurrogateAdapter(seed=0))],
            system=SystemConfig(n_aggregators=2, heartbeat_interval_s=5.0),
        )
        FaultInjector(fs, seed=fs.seed).schedule("aggregator_crash", 600.0, node=0)
        res = fs.run(t_end=1800.0)
        assert res.stats().aborted > 0  # the failed node's sessions died

    def test_coordinator_outage_pauses_assignments_only(self):
        fs = make_sim([(async_task(), SurrogateAdapter(seed=0))])
        FaultInjector(fs, seed=fs.seed).schedule(
            "coordinator_outage", 600.0, duration_s=120.0
        )
        res = fs.run(t_end=2400.0)
        # Steps continue throughout (participating clients unaffected)...
        during = [s for s in res.trace.server_steps if 600.0 < s.time < 720.0]
        assert len(during) > 0
        # ...and after recovery the system refills and keeps going.
        after = [s for s in res.trace.server_steps if s.time > 800.0]
        assert len(after) > 5

    def test_rejections_counted_during_outage(self):
        fs = make_sim([(async_task(), SurrogateAdapter(seed=0))])
        FaultInjector(fs, seed=fs.seed).schedule(
            "coordinator_outage", 300.0, duration_s=300.0
        )
        fs.run(t_end=1200.0)
        assert fs.coordinator.assignments_rejected > 0


class TestMultiTenancy:
    def test_two_tasks_share_population(self):
        fs = make_sim(
            [
                (async_task(name="a", concurrency=30, goal=5), SurrogateAdapter(seed=1)),
                (async_task(name="b", concurrency=30, goal=5), SurrogateAdapter(seed=2)),
            ]
        )
        res = fs.run(t_end=1800.0)
        assert res.task_stats["a"].server_steps > 10
        assert res.task_stats["b"].server_steps > 10

    def test_device_never_concurrently_in_two_tasks(self):
        fs = make_sim(
            [
                (async_task(name="a", concurrency=25, goal=5), SurrogateAdapter(seed=1)),
                (async_task(name="b", concurrency=25, goal=5), SurrogateAdapter(seed=2)),
            ],
            n_devices=200,  # tight population forces contention
        )
        res = fs.run(t_end=900.0)
        # Reconstruct concurrent activity per device from participations.
        intervals: dict[int, list[tuple[float, float]]] = {}
        for p in res.trace.participations:
            intervals.setdefault(p.device_id, []).append((p.start_time, p.end_time))
        for spans in intervals.values():
            spans.sort()
            for (s1, e1), (s2, _) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-9

    def test_mixed_mode_tenancy_sync_and_async_coexist(self):
        # A sync task and an async task sharing one deployment and one
        # population — the multi-tenancy PAPAYA actually runs.
        fs = make_sim(
            [
                (async_task(name="async", concurrency=30, goal=5),
                 SurrogateAdapter(seed=1)),
                (sync_task(name="sync", goal=20, over_selection=0.3),
                 SurrogateAdapter(seed=2)),
            ]
        )
        res = fs.run(t_end=2400.0)
        assert res.task_stats["async"].server_steps > 10
        assert res.task_stats["sync"].server_steps >= 2
        # Each preserves its own mode's signature behaviour.
        assert res.task_stats["async"].mean_staleness > 0
        assert res.task_stats["sync"].mean_staleness == 0.0
        assert res.task_stats["sync"].discarded > 0
        assert res.task_stats["async"].discarded == 0

    def test_duplicate_task_names_rejected(self):
        pop = DevicePopulation(PopulationConfig(n_devices=100), seed=0)
        with pytest.raises(ValueError):
            FederatedSimulation(
                [
                    (async_task(name="x"), SurrogateAdapter()),
                    (async_task(name="x"), SurrogateAdapter()),
                ],
                pop,
            )

    def test_empty_tasks_rejected(self):
        pop = DevicePopulation(PopulationConfig(n_devices=100), seed=0)
        with pytest.raises(ValueError):
            FederatedSimulation([], pop)


class TestParticipationHistory:
    def test_cooldown_spreads_participation(self):
        # With a tight population, a re-participation cooldown must lower
        # the maximum number of times any single device is drafted.
        def max_participations(cooldown):
            fs = make_sim(
                [(async_task(concurrency=20, goal=5), SurrogateAdapter(seed=0))],
                n_devices=60,
                system=SystemConfig(min_reparticipation_interval_s=cooldown),
            )
            res = fs.run(t_end=1800.0)
            counts = {}
            for p in res.trace.participations:
                counts[p.device_id] = counts.get(p.device_id, 0) + 1
            return max(counts.values()), len(res.trace.participations)

        hot_max, hot_total = max_participations(0.0)
        cool_max, cool_total = max_participations(300.0)
        assert cool_max < hot_max
        assert cool_total > 0

    def test_cooldown_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(min_reparticipation_interval_s=-1.0)


class TestStopConditions:
    def test_target_loss_stops_early(self):
        fs = make_sim([(async_task(), SurrogateAdapter(seed=0))])
        res = fs.run(t_end=36_000.0, target_loss=3.5)
        assert res.stats().final_loss <= 3.5
        assert res.duration_s < 36_000.0
        assert res.stats().time_to_target == pytest.approx(res.duration_s)

    def test_max_server_steps_stops(self):
        fs = make_sim([(async_task(), SurrogateAdapter(seed=0))])
        res = fs.run(t_end=36_000.0, max_server_steps=7)
        assert res.stats().server_steps == 7

    def test_stats_requires_task_when_ambiguous(self):
        fs = make_sim(
            [
                (async_task(name="a"), SurrogateAdapter(seed=1)),
                (async_task(name="b"), SurrogateAdapter(seed=2)),
            ]
        )
        res = fs.run(t_end=200.0)
        with pytest.raises(ValueError):
            res.stats()
        assert res.stats("a").name == "a"


class TestRealTrainingIntegration:
    def test_real_lstm_federated_run_improves_loss(self):
        model_cfg = ModelConfig(vocab_size=24, embed_dim=8, hidden_dim=12)
        corpus = TopicMarkovCorpus(CorpusSpec(vocab_size=24, seq_len=8), seed=3)
        dataset = FederatedDataset(corpus)
        model = LSTMLanguageModel(model_cfg, seed=0)
        state = GlobalModelState(model.get_flat(), FedAdam(lr=0.05))
        trainer = LocalTrainer(model_cfg, lr=0.5, batch_size=8, seed=0)
        pop = DevicePopulation(
            PopulationConfig(n_devices=300, mean_examples=20, max_examples=60),
            seed=3,
        )
        adapter = RealTrainingAdapter(
            trainer, dataset, state,
            eval_clients=[pop.profile(i).device_id for i in range(10)],
            eval_examples=[pop.profile(i).n_examples for i in range(10)],
        )
        cfg = TaskConfig(
            name="real", mode=TrainingMode.ASYNC, concurrency=16,
            aggregation_goal=4, model_size_bytes=100_000,
        )
        fs = FederatedSimulation([(cfg, adapter)], pop, seed=3)
        res = fs.run(t_end=3600.0, max_server_steps=10)
        times, losses = res.trace.loss_curve("real")
        assert len(losses) == 10
        assert losses[-1] < losses[0]
