"""Tests for FedBuff-through-SecAgg (the paper's headline integration)."""

import numpy as np
import pytest

from repro.core import (
    FedAdam,
    FedSGD,
    GlobalModelState,
    LocalTrainer,
    TaskConfig,
    TrainingMode,
    TrainingResult,
)
from repro.data import CorpusSpec, FederatedDataset, TopicMarkovCorpus
from repro.nn import LSTMLanguageModel, ModelConfig
from repro.sim import DevicePopulation, PopulationConfig
from repro.system import (
    FederatedSimulation,
    RealTrainingAdapter,
    SecureBufferedAggregator,
    SurrogateAdapter,
)
from repro.system.planes import SecurePlane, SinglePlane


def make_state(dim=8):
    return GlobalModelState(np.zeros(dim, dtype=np.float32), FedSGD(lr=1.0))


def result(cid, delta, n=1, version=0):
    return TrainingResult(
        client_id=cid,
        delta=np.asarray(delta, dtype=np.float32),
        num_examples=n,
        train_loss=1.0,
        initial_version=version,
    )


class TestSecureBufferedAggregator:
    def test_secure_step_matches_plain_weighted_mean(self):
        # Two clients with different example counts: the securely
        # aggregated step must equal the plain FedBuff weighted mean to
        # fixed-point precision.
        agg = SecureBufferedAggregator(make_state(4), goal=2, vector_length=4, seed=0)
        agg.register_download(0)
        agg.register_download(1)
        agg.receive_update(result(0, [1.0, 0, 0, 0], n=3))
        upd, info = agg.receive_update(result(1, [3.0, 0, 0, 0], n=1))
        assert info is not None and info.version == 1
        # weighted mean = (3*1 + 1*3) / 4 = 1.5
        np.testing.assert_allclose(agg.state.current()[0], 1.5, atol=0.01)

    def test_staleness_weight_applied_securely(self):
        agg = SecureBufferedAggregator(
            make_state(1), goal=2, vector_length=1,
            example_weighting="none", seed=0,
        )
        agg.register_download(0)  # will become stale
        # Advance the version by 3 via goal-sized batches of zero updates.
        for v in range(3):
            a, b = 10 + 2 * v, 11 + 2 * v
            agg.register_download(a)
            agg.register_download(b)
            agg.receive_update(result(a, [0.0], version=v))
            agg.receive_update(result(b, [0.0], version=v))
        assert agg.version == 3
        agg.register_download(1)
        agg.receive_update(result(1, [0.0], version=3))  # fresh, w=1
        upd, info = agg.receive_update(result(0, [3.0], version=0))  # s=3, w=0.5
        assert upd.staleness == 3
        # mean = 3 * 0.5 / 1.5 = 1.0
        np.testing.assert_allclose(agg.state.current()[0], 1.0, atol=0.01)

    def test_version_and_epochs_advance(self):
        agg = SecureBufferedAggregator(make_state(2), goal=2, vector_length=2, seed=1)
        for step in range(3):
            a, b = 2 * step, 2 * step + 1
            agg.register_download(a)
            agg.register_download(b)
            agg.receive_update(result(a, [0.5, -0.5], version=step))
            agg.receive_update(result(b, [0.5, -0.5], version=step))
        assert agg.version == 3
        assert agg.epochs_completed == 3
        assert agg.boundary_bytes_in_total > 0

    def test_unknown_client_rejected(self):
        agg = SecureBufferedAggregator(make_state(2), goal=2, vector_length=2)
        with pytest.raises(KeyError):
            agg.receive_update(result(99, [0.0, 0.0]))

    def test_version_mismatch_rejected(self):
        agg = SecureBufferedAggregator(make_state(2), goal=2, vector_length=2)
        agg.register_download(0)
        with pytest.raises(ValueError):
            agg.receive_update(result(0, [0.0, 0.0], version=7))

    def test_stale_clients_reported(self):
        agg = SecureBufferedAggregator(
            make_state(1), goal=1, vector_length=1, max_staleness=1, seed=2
        )
        agg.register_download(0)
        for v in range(3):
            cid = 10 + v
            agg.register_download(cid)
            agg.receive_update(result(cid, [0.0], version=v))
        assert agg.stale_clients() == [0]

    def test_failover_drops_epoch(self):
        agg = SecureBufferedAggregator(make_state(1), goal=3, vector_length=1, seed=3)
        agg.register_download(0)
        agg.receive_update(result(0, [1.0]))
        assert agg.buffered_count == 1
        lost, dropped = agg.drop_buffer_and_inflight()
        assert lost == 1 and dropped == []
        assert agg.buffered_count == 0
        # A fresh epoch accepts new contributions and still steps.
        for cid in (1, 2, 3):
            agg.register_download(cid)
            agg.receive_update(result(cid, [1.0]))
        assert agg.version == 1

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_tsa_rejection_rolls_back_the_arrival(self, monkeypatch, num_shards):
        # A TSA-rejected submission must not leave phantom bookkeeping
        # behind: the epoch's weights may only reference processed legs,
        # so the epoch still finalizes after the error.
        from repro.secagg.threat import flip_sealed_ciphertext_bit

        agg = SecureBufferedAggregator(
            make_state(6), goal=4, vector_length=6, seed=0, num_shards=num_shards
        )
        for cid in range(3):
            agg.register_download(cid)
        agg.receive_update(result(0, [0.1] * 6))
        server = agg._shards[agg.shard_of(1)].server
        original = server.submit
        monkeypatch.setattr(
            server, "submit", lambda sub: original(flip_sealed_ciphertext_bit(sub))
        )
        with pytest.raises(RuntimeError, match="rejected by honest TSA"):
            agg.receive_update(result(1, [0.1] * 6))
        monkeypatch.setattr(server, "submit", original)
        agg.receive_update(result(2, [0.1] * 6))
        assert agg.buffered_count == 2
        assert agg._contributors == [0, 2]
        assert agg.updates_received == 2
        assert sum(len(s.weights) for s in agg._shards) == 2
        for cid in (10, 11):
            agg.register_download(cid)
            _, info = agg.receive_update(result(cid, [0.1] * 6))
        assert info is not None and agg.version == 1
        assert info.contributors == (0, 2, 10, 11)

    def test_clipping_bounds_large_deltas(self):
        agg = SecureBufferedAggregator(
            make_state(1), goal=1, vector_length=1, clip_value=2.0, seed=4,
            example_weighting="none",
        )
        agg.register_download(0)
        agg.receive_update(result(0, [100.0]))
        assert agg.state.current()[0] == pytest.approx(2.0, abs=0.01)

    def test_weight_quantization_minimum(self):
        # A near-zero staleness weight must still count as >= 1/WEIGHT_SCALE
        # so the TSA threshold bookkeeping stays consistent.
        agg = SecureBufferedAggregator(
            make_state(1), goal=1, vector_length=1, seed=5,
            example_weighting="none",
        )
        agg.register_download(0)
        upd, info = agg.receive_update(result(0, [1.0]))
        assert info is not None
        np.testing.assert_allclose(agg.state.current()[0], 1.0, atol=0.01)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            SecureBufferedAggregator(make_state(1), goal=0, vector_length=1)
        with pytest.raises(ValueError):
            SecureBufferedAggregator(make_state(1), goal=1, vector_length=1,
                                     example_weighting="bogus")


class TestSecureSystemIntegration:
    def test_secure_async_simulation_runs(self):
        pop = DevicePopulation(PopulationConfig(n_devices=500), seed=0)
        cfg = TaskConfig(
            name="secure", mode=TrainingMode.ASYNC, concurrency=12,
            aggregation_goal=4, model_size_bytes=100_000,
        )
        fs = FederatedSimulation([(cfg, SurrogateAdapter(seed=0))], pop,
                                 plane=SecurePlane(), seed=0)
        res = fs.run(t_end=1200.0, max_server_steps=8)
        s = res.stats()
        assert s.server_steps == 8
        assert s.aggregated >= 32

    def test_secure_sync_rejected(self):
        pop = DevicePopulation(PopulationConfig(n_devices=100), seed=0)
        cfg = TaskConfig(
            name="bad", mode=TrainingMode.SYNC, concurrency=12,
            aggregation_goal=4,
        )
        with pytest.raises(ValueError, match="Asynchronous SecAgg"):
            FederatedSimulation([(cfg, SurrogateAdapter(seed=0))], pop,
                                plane=SecurePlane(), seed=0)

    def test_secure_real_training_improves_loss(self):
        model_cfg = ModelConfig(vocab_size=16, embed_dim=6, hidden_dim=8)
        corpus = TopicMarkovCorpus(CorpusSpec(vocab_size=16, seq_len=8), seed=1)
        dataset = FederatedDataset(corpus)
        model = LSTMLanguageModel(model_cfg, seed=0)
        state = GlobalModelState(model.get_flat(), FedAdam(lr=0.05))
        trainer = LocalTrainer(model_cfg, lr=0.5, batch_size=8, seed=0)
        pop = DevicePopulation(
            PopulationConfig(n_devices=100, mean_examples=15, max_examples=40), seed=1
        )
        adapter = RealTrainingAdapter(
            trainer, dataset, state,
            eval_clients=list(range(8)),
            eval_examples=[pop.profile(i).n_examples for i in range(8)],
        )
        cfg = TaskConfig(
            name="secure-real", mode=TrainingMode.ASYNC, concurrency=8,
            aggregation_goal=3, model_size_bytes=100_000,
        )
        fs = FederatedSimulation([(cfg, adapter)], pop, plane=SecurePlane(), seed=1)
        res = fs.run(t_end=3e6, max_server_steps=6)
        _, losses = res.trace.loss_curve("secure-real")
        assert len(losses) == 6
        assert losses[-1] < losses[0]

    def test_secure_matches_plain_loss_trajectory(self):
        # The privacy machinery must be computationally transparent:
        # secure and plain runs of the same surrogate config should land
        # at nearly identical losses.
        pop = DevicePopulation(PopulationConfig(n_devices=500), seed=2)

        def run(secure):
            cfg = TaskConfig(
                name="t", mode=TrainingMode.ASYNC, concurrency=12,
                aggregation_goal=4, model_size_bytes=100_000,
            )
            plane = SecurePlane() if secure else SinglePlane()
            fs = FederatedSimulation([(cfg, SurrogateAdapter(seed=3))], pop,
                                     plane=plane, seed=3)
            res = fs.run(t_end=3600.0, max_server_steps=10)
            return res.stats().final_loss

        plain, secure = run(False), run(True)
        assert secure == pytest.approx(plain, rel=0.05)
