"""Differential equivalence suite: batched cohort engine vs scalar path.

The contract under test (see ``repro/core/cohort.py``): for every client,
the batched :class:`CohortTrainer` produces deltas and losses that match
the scalar :class:`LocalTrainer` within 1e-8 — in practice bit-for-bit —
across randomized cohorts (varied K, sequence lengths, learning rates,
epochs, batch sizes, seeds, ragged per-client data), and cohort
dispatch leaves a whole simulation's trace unchanged.  This is what lets
the system layer enable cohort dispatch without changing a single
experimental number.
"""

import numpy as np
import pytest

from repro.core.client_trainer import LocalTrainer
from repro.core.cohort import CohortRequest, CohortTrainer
from repro.core.state import GlobalModelState
from repro.core.types import TaskConfig, TrainingMode
from repro.data.federated import FederatedDataset
from repro.data.synthetic_text import CorpusSpec, TopicMarkovCorpus
from repro.nn import layers
from repro.nn.loss import batched_cross_entropy, cross_entropy
from repro.nn.model import BatchedLSTMLanguageModel, LSTMLanguageModel, ModelConfig
from repro.nn.optim import SGD, CohortSGD

ATOL = 1e-8


def make_federation(vocab=24, seq_len=10, seed=0):
    corpus = TopicMarkovCorpus(CorpusSpec(vocab_size=vocab, seq_len=seq_len), seed=seed)
    return FederatedDataset(corpus)


def cohort_and_scalar(cfg, fed, base, *, K, lr, batch_size, epochs, seed, rng,
                      spread=0.01):
    """Train one randomized cohort both ways; return paired results."""
    scalar = LocalTrainer(cfg, lr=lr, batch_size=batch_size, epochs=epochs, seed=seed)
    batched = CohortTrainer(cfg, lr=lr, batch_size=batch_size, epochs=epochs, seed=seed)
    requests, refs = [], []
    for i in range(K):
        n = int(rng.integers(3, 60))
        ds = fed.client_dataset(int(rng.integers(10_000)), n)
        init = (base + rng.standard_normal(base.size).astype(np.float32) * spread)
        participation = int(rng.integers(0, 3))
        version = int(rng.integers(0, 5))
        requests.append(CohortRequest(init, ds, version, participation))
        refs.append(scalar.train(init, ds, version, participation))
    return refs, batched.train_cohort(requests)


class TestCohortTrainerEquivalence:
    @pytest.mark.parametrize("K", [1, 2, 5, 16])
    def test_randomized_cohorts_match_scalar(self, K):
        cfg = ModelConfig(vocab_size=24, embed_dim=8, hidden_dim=16)
        fed = make_federation()
        base = LSTMLanguageModel(cfg, seed=1).get_flat()
        rng = np.random.default_rng(K)
        refs, outs = cohort_and_scalar(
            cfg, fed, base, K=K, lr=0.7, batch_size=8, epochs=1, seed=3, rng=rng
        )
        for ref, out in zip(refs, outs):
            assert out.client_id == ref.client_id
            assert out.num_examples == ref.num_examples
            assert out.initial_version == ref.initial_version
            np.testing.assert_allclose(out.delta, ref.delta, rtol=0, atol=ATOL)
            assert abs(out.train_loss - ref.train_loss) <= ATOL

    @pytest.mark.parametrize("seed,lr,epochs,batch_size,seq_len", [
        (0, 0.1, 1, 8, 6),
        (1, 1.5, 2, 4, 10),
        (2, 0.5, 3, 16, 12),
    ])
    def test_hyperparameter_sweep(self, seed, lr, epochs, batch_size, seq_len):
        cfg = ModelConfig(vocab_size=20, embed_dim=6, hidden_dim=12)
        fed = make_federation(vocab=20, seq_len=seq_len, seed=seed)
        base = LSTMLanguageModel(cfg, seed=seed).get_flat()
        rng = np.random.default_rng(seed + 100)
        refs, outs = cohort_and_scalar(
            cfg, fed, base, K=7, lr=lr, batch_size=batch_size, epochs=epochs,
            seed=seed, rng=rng,
        )
        for ref, out in zip(refs, outs):
            np.testing.assert_allclose(out.delta, ref.delta, rtol=0, atol=ATOL)
            assert abs(out.train_loss - ref.train_loss) <= ATOL

    def test_unclipped_path(self):
        cfg = ModelConfig(vocab_size=16, embed_dim=6, hidden_dim=8)
        fed = make_federation(vocab=16, seq_len=8)
        base = LSTMLanguageModel(cfg, seed=2).get_flat()
        scalar = LocalTrainer(cfg, lr=0.3, batch_size=8, clip_norm=None)
        batched = CohortTrainer(cfg, lr=0.3, batch_size=8, clip_norm=None)
        requests, refs = [], []
        for cid in range(5):
            ds = fed.client_dataset(cid, 12 + cid)
            requests.append(CohortRequest(base, ds, 0, 0))
            refs.append(scalar.train(base, ds, 0, 0))
        for ref, out in zip(refs, batched.train_cohort(requests)):
            np.testing.assert_allclose(out.delta, ref.delta, rtol=0, atol=ATOL)

    def test_empty_cohort(self):
        cfg = ModelConfig(vocab_size=16, embed_dim=6, hidden_dim=8)
        assert CohortTrainer(cfg).train_cohort([]) == []

    def test_ragged_single_row_batches(self):
        # B=1 tail batches exercise the GEMV/GEMM kernel boundary that
        # naive row padding gets wrong by one ulp.
        cfg = ModelConfig(vocab_size=16, embed_dim=6, hidden_dim=8)
        fed = make_federation(vocab=16, seq_len=8)
        base = LSTMLanguageModel(cfg, seed=2).get_flat()
        scalar = LocalTrainer(cfg, lr=0.9, batch_size=8)
        batched = CohortTrainer(cfg, lr=0.9, batch_size=8)
        sizes = [2, 13, 3, 27, 2]  # n_train of 1, 9, 2, 18, 1 -> B=1 tails
        requests, refs = [], []
        for cid, n in enumerate(sizes):
            ds = fed.client_dataset(100 + cid, n)
            requests.append(CohortRequest(base, ds, 0, 0))
            refs.append(scalar.train(base, ds, 0, 0))
        for ref, out in zip(refs, batched.train_cohort(requests)):
            np.testing.assert_allclose(out.delta, ref.delta, rtol=0, atol=ATOL)
            assert abs(out.train_loss - ref.train_loss) <= ATOL


class TestBatchedKernels:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_batched_model_matches_scalar_rows(self):
        cfg = ModelConfig(vocab_size=18, embed_dim=6, hidden_dim=10, num_layers=2)
        K, B, T = 4, 5, 7
        stack = np.stack([
            LSTMLanguageModel(cfg, seed=s).get_flat() for s in range(K)
        ])
        tokens = self.rng.integers(0, 18, size=(K, B, T))
        targets = self.rng.integers(0, 18, size=(K, B, T))
        bm = BatchedLSTMLanguageModel(cfg, K)
        bm.set_flat_stack(stack)
        losses, grads = bm.loss_and_grad(tokens, targets)
        for k in range(K):
            m = LSTMLanguageModel(cfg, seed=0)
            m.set_flat(stack[k])
            loss, grad = m.loss_and_grad(tokens[k], targets[k])
            assert abs(loss - float(losses[k])) <= ATOL
            np.testing.assert_allclose(grads[k], grad, rtol=0, atol=ATOL)

    def test_batched_model_ragged_valid_rows(self):
        cfg = ModelConfig(vocab_size=18, embed_dim=6, hidden_dim=10)
        K, B, T = 3, 6, 5
        stack = np.stack([
            LSTMLanguageModel(cfg, seed=s).get_flat() for s in range(K)
        ])
        valid = np.array([1, 4, 6])
        tokens = np.zeros((K, B, T), dtype=np.int64)
        targets = np.zeros_like(tokens)
        per_client = []
        for k in range(K):
            b = int(valid[k])
            tk = self.rng.integers(0, 18, size=(b, T))
            tg = self.rng.integers(0, 18, size=(b, T))
            tokens[k, :b], targets[k, :b] = tk, tg
            per_client.append((tk, tg))
        bm = BatchedLSTMLanguageModel(cfg, K)
        bm.set_flat_stack(stack)
        losses, grads = bm.loss_and_grad(tokens, targets, valid_rows=valid)
        for k, (tk, tg) in enumerate(per_client):
            m = LSTMLanguageModel(cfg, seed=0)
            m.set_flat(stack[k])
            loss, grad = m.loss_and_grad(tk, tg)
            assert abs(loss - float(losses[k])) <= ATOL
            np.testing.assert_allclose(grads[k], grad, rtol=0, atol=ATOL)

    def test_batched_lstm_kernels_per_slice(self):
        K, B, T, D, H = 3, 4, 6, 5, 8
        params = {
            "w_x": self.rng.standard_normal((K, D, 4 * H)).astype(np.float32),
            "w_h": self.rng.standard_normal((K, H, 4 * H)).astype(np.float32),
            "bias": self.rng.standard_normal((K, 4 * H)).astype(np.float32),
        }
        x = self.rng.standard_normal((K, B, T, D)).astype(np.float32)
        d_hs = self.rng.standard_normal((K, B, T, H)).astype(np.float32)
        hs, cache = layers.batched_lstm_forward(params, x)
        d_x, grads = layers.batched_lstm_backward(cache, d_hs)
        for k in range(K):
            pk = {n: params[n][k] for n in params}
            hk, ck = layers.lstm_forward(pk, x[k])
            np.testing.assert_allclose(hs[k], hk, rtol=0, atol=ATOL)
            dxk, gk = layers.lstm_backward(ck, d_hs[k])
            np.testing.assert_allclose(d_x[k], dxk, rtol=0, atol=ATOL)
            for name in gk:
                np.testing.assert_allclose(grads[name][k], gk[name], rtol=0, atol=ATOL)

    def test_batched_embedding_kernels_per_slice(self):
        K, V, D, B, T = 3, 9, 4, 5, 6
        params = {"weight": self.rng.standard_normal((K, V, D)).astype(np.float32)}
        tokens = self.rng.integers(0, V, size=(K, B, T))
        d_out = self.rng.standard_normal((K, B, T, D)).astype(np.float32)
        out, cache = layers.batched_embedding_forward(params, tokens)
        grads = layers.batched_embedding_backward(cache, d_out)
        for k in range(K):
            pk = {"weight": params["weight"][k]}
            ok, ck = layers.embedding_forward(pk, tokens[k])
            np.testing.assert_array_equal(out[k], ok)
            gk = layers.embedding_backward(ck, d_out[k])
            np.testing.assert_array_equal(grads["weight"][k], gk["weight"])

    def test_batched_linear_kernels_per_slice(self):
        K, B, T, D, O = 3, 4, 6, 5, 7
        params = {
            "weight": self.rng.standard_normal((K, D, O)).astype(np.float32),
            "bias": self.rng.standard_normal((K, O)).astype(np.float32),
        }
        x = self.rng.standard_normal((K, B, T, D)).astype(np.float32)
        d_out = self.rng.standard_normal((K, B, T, O)).astype(np.float32)
        y, cache = layers.batched_linear_forward(params, x)
        d_x, grads = layers.batched_linear_backward(cache, d_out)
        for k in range(K):
            pk = {n: params[n][k] for n in params}
            yk, ck = layers.linear_forward(pk, x[k])
            np.testing.assert_allclose(y[k], yk, rtol=0, atol=ATOL)
            dxk, gk = layers.linear_backward(ck, d_out[k])
            np.testing.assert_allclose(d_x[k], dxk, rtol=0, atol=ATOL)
            for name in gk:
                np.testing.assert_allclose(grads[name][k], gk[name], rtol=0, atol=ATOL)

    def test_batched_linear_kernels_ragged_valid_rows(self):
        K, B, T, D, O = 3, 5, 4, 6, 3
        params = {
            "weight": self.rng.standard_normal((K, D, O)).astype(np.float32),
            "bias": self.rng.standard_normal((K, O)).astype(np.float32),
        }
        valid = np.array([1, 3, 5])
        x = np.zeros((K, B, T, D), dtype=np.float32)
        d_out = np.zeros((K, B, T, O), dtype=np.float32)
        for k, b in enumerate(valid):
            x[k, :b] = self.rng.standard_normal((b, T, D))
            d_out[k, :b] = self.rng.standard_normal((b, T, O))
        y, cache = layers.batched_linear_forward(params, x, valid_rows=valid)
        d_x, grads = layers.batched_linear_backward(cache, d_out, valid_rows=valid)
        for k, b in enumerate(valid):
            pk = {n: params[n][k] for n in params}
            yk, ck = layers.linear_forward(pk, x[k, :b])
            np.testing.assert_array_equal(y[k, :b], yk)
            np.testing.assert_array_equal(y[k, b:], 0.0)
            dxk, gk = layers.linear_backward(ck, d_out[k, :b])
            np.testing.assert_array_equal(d_x[k, :b], dxk)
            np.testing.assert_array_equal(d_x[k, b:], 0.0)
            for name in gk:
                np.testing.assert_array_equal(grads[name][k], gk[name])

    def test_batched_cross_entropy_per_slice(self):
        K, B, T, V = 4, 3, 5, 12
        logits = (self.rng.standard_normal((K, B, T, V)) * 3).astype(np.float32)
        targets = self.rng.integers(0, V, size=(K, B, T))
        losses, d = batched_cross_entropy(logits, targets)
        for k in range(K):
            loss, dk = cross_entropy(logits[k], targets[k])
            assert abs(loss - float(losses[k])) <= ATOL
            np.testing.assert_allclose(d[k], dk, rtol=0, atol=ATOL)

    def test_cohort_sgd_matches_scalar_rows(self):
        K, P = 5, 40
        params = self.rng.standard_normal((K, P)).astype(np.float32)
        # Large grads so some rows clip and others do not.
        grads = (self.rng.standard_normal((K, P)) *
                 self.rng.choice([0.1, 10.0], size=(K, 1))).astype(np.float32)
        cohort_opt = CohortSGD(lr=0.4, clip_norm=2.0)
        stepped = cohort_opt.step(params, grads)
        for k in range(K):
            opt = SGD(lr=0.4, clip_norm=2.0)
            np.testing.assert_allclose(
                stepped[k], opt.step(params[k], grads[k]), rtol=0, atol=ATOL
            )

    def test_cohort_sgd_momentum(self):
        K, P = 3, 20
        params = self.rng.standard_normal((K, P)).astype(np.float32)
        cohort_opt = CohortSGD(lr=0.2, momentum=0.9)
        scalar_opts = [SGD(lr=0.2, momentum=0.9) for _ in range(K)]
        scalar_params = [params[k].copy() for k in range(K)]
        for _ in range(4):
            grads = self.rng.standard_normal((K, P)).astype(np.float32)
            params = cohort_opt.step(params, grads)
            for k in range(K):
                scalar_params[k] = scalar_opts[k].step(scalar_params[k], grads[k])
        for k in range(K):
            np.testing.assert_allclose(params[k], scalar_params[k], rtol=0, atol=ATOL)

    def test_cohort_sgd_rejects_bad_shapes(self):
        opt = CohortSGD(lr=0.1)
        with pytest.raises(ValueError):
            opt.step(np.zeros((2, 3), np.float32), np.zeros((3, 2), np.float32))
        with pytest.raises(ValueError):
            opt.step(np.zeros(3, np.float32), np.zeros(3, np.float32))


class TestEndToEndCohortDispatch:
    """Full-simulation differential test: cohort dispatch vs scalar.

    The reference arm (cap 1) trains every client through the scalar
    :class:`LocalTrainer` path: its adapter keeps the base per-client
    ``train_cohort`` loop over ``RealTrainingAdapter.train``.
    """

    @staticmethod
    def _run(mode, cohort_batch_size, max_steps=25):
        from repro.core.server_opt import FedAdam as _FedAdam
        from repro.harness.runner import make_population
        from repro.system.adapters import RealTrainingAdapter, TrainerAdapter
        from repro.system.orchestrator import FederatedSimulation, SystemConfig

        class ScalarOracleAdapter(RealTrainingAdapter):
            train_cohort = TrainerAdapter.train_cohort

        model_cfg = ModelConfig(vocab_size=24, embed_dim=8, hidden_dim=16)
        corpus = TopicMarkovCorpus(
            CorpusSpec(vocab_size=24, seq_len=10, volume_topic_coupling=0.8,
                       reference_examples=20.0),
            seed=0,
        )
        pop = make_population(300, seed=0, mean_examples=20.0, max_examples=80)
        dataset = FederatedDataset(corpus)
        model = LSTMLanguageModel(model_cfg, seed=0)
        state = GlobalModelState(model.get_flat(), _FedAdam(lr=0.05))
        trainer = LocalTrainer(model_cfg, lr=1.0, batch_size=8, seed=0)
        ids = list(range(24))
        adapter_cls = ScalarOracleAdapter if cohort_batch_size == 1 else RealTrainingAdapter
        adapter = adapter_cls(
            trainer, dataset, state, eval_clients=ids,
            eval_examples=[pop.profile(i).n_examples for i in ids], eval_every=5,
        )
        cfg = TaskConfig(
            name="t", mode=mode, concurrency=24, aggregation_goal=6,
            over_selection=0.3 if mode is TrainingMode.SYNC else 0.0,
            model_size_bytes=200_000,
        )
        fs = FederatedSimulation(
            [(cfg, adapter)], pop, seed=0,
            system=SystemConfig(cohort_batch_size=cohort_batch_size),
        )
        res = fs.run(t_end=3e5, max_server_steps=max_steps)
        return res, fs

    @pytest.mark.parametrize("mode", [TrainingMode.ASYNC, TrainingMode.SYNC])
    def test_traces_identical(self, mode):
        res1, _ = self._run(mode, 1)
        res16, fs16 = self._run(mode, 16)

        t1, l1 = res1.trace.loss_curve("t")
        t16, l16 = res16.trace.loss_curve("t")
        np.testing.assert_array_equal(t1, t16)
        np.testing.assert_allclose(l1, l16, rtol=0, atol=ATOL)

        parts1 = [(p.device_id, p.start_time, p.end_time, p.outcome, p.staleness)
                  for p in res1.trace.participations]
        parts16 = [(p.device_id, p.start_time, p.end_time, p.outcome, p.staleness)
                   for p in res16.trace.participations]
        assert parts1 == parts16

        dispatcher = fs16.task_runtimes["t"].cohort
        assert dispatcher is not None
        assert dispatcher.batches_run > 0
        assert dispatcher.trainings_run >= dispatcher.batches_run
        # Batching actually grouped clients (not all singleton batches).
        assert dispatcher.trainings_run > dispatcher.batches_run

    @pytest.mark.parametrize("plane", [
        {"name": "single"},
        {"name": "sharded", "num_shards": 2},
        {"name": "secure"},
        {"name": "secure_sharded", "num_shards": 2},
    ])
    def test_every_plane_runtime_holds_a_dispatcher(self, plane):
        from repro.api import Deployment, ScenarioSpec
        from repro.system.client_runtime import CohortDispatcher

        tasks = [{"name": "a", "mode": "async", "concurrency": 8, "aggregation_goal": 2}]
        if plane["name"] == "sharded":
            # The sync task falls back to the single plane.
            tasks.append({"name": "s", "mode": "sync", "concurrency": 8,
                          "aggregation_goal": 2})
        spec = ScenarioSpec.from_dict({
            "population": {"n_devices": 50}, "tasks": tasks, "plane": plane,
            "system": {"cohort_batch_size": 3},
        })
        sim = Deployment.from_spec(spec).build()
        assert len(sim.task_runtimes) == len(tasks)
        for rt in sim.task_runtimes.values():
            assert isinstance(rt.cohort, CohortDispatcher)
            assert rt.cohort.adapter is rt.adapter
            assert rt.cohort.max_cohort == 3


class TestCohortDispatchSafety:
    def test_stale_queued_upload_from_replaced_device_is_ignored(self):
        """A queued upload of an aborted session must not resolve after the
        device was re-selected under a NEW session with the same id — the
        discarded PendingTraining is gone and draining it would crash."""
        from repro.sim import MetricsTrace, Outcome, Simulator
        from repro.sim.network import NetworkModel
        from repro.sim.population import DevicePopulation, PopulationConfig
        from repro.system.adapters import SurrogateAdapter
        from repro.system.aggregator import AggregatorNode
        from repro.system.client_runtime import ClientSession, CohortDispatcher
        from repro.system.planes import PlaneContext, SinglePlane
        from repro.utils import EventLog

        sim, log, trace = Simulator(), EventLog(), MetricsTrace()
        cfg = TaskConfig(name="t", mode=TrainingMode.ASYNC, concurrency=4,
                         aggregation_goal=2, model_size_bytes=1000)
        adapter = SurrogateAdapter(seed=0)
        dispatcher = CohortDispatcher(adapter, max_cohort=4)
        rt = SinglePlane().build(
            PlaneContext(cfg, adapter, sim, trace, log, lambda: None, dispatcher)
        )
        rt.place_shard(0, AggregatorNode(0, sim, log))
        pop = DevicePopulation(PopulationConfig(n_devices=2), seed=0)

        def make_session(participation):
            session = ClientSession(
                profile=pop.profile(0), task_rt=rt, sim=sim,
                network=NetworkModel(), population=pop, trace=trace,
                participation=participation, failure_detection_s=5.0,
                on_end=rt.session_ended,
            )
            rt.pending_assignments += 1
            rt.attach_session(session)
            return session

        old = make_session(0)
        rt.core.register_download(0)
        pending = dispatcher.submit(old.profile, None, 0, 0)
        old._pending = pending
        old.abort(Outcome.ABORTED)  # discards the deferred training
        assert len(dispatcher) == 0

        new = make_session(1)  # same device, re-selected
        rt.core.register_download(0)
        before = rt.core.updates_received
        rt.process_update(old, pending)  # the stale shard event fires
        assert rt.core.updates_received == before
        assert not new.finished
        assert rt.sessions[0] is new
