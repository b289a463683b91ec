"""Tests for the local trainer, server optimizers, and surrogate model."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FedAdam,
    FedAvgM,
    FedBuffAggregator,
    FedSGD,
    GlobalModelState,
    LocalTrainer,
    SurrogateModelState,
    SurrogateParams,
    SurrogateTrainer,
    SyncRoundAggregator,
)
from repro.data import CorpusSpec, FederatedDataset, TopicMarkovCorpus
from repro.nn import LSTMLanguageModel, ModelConfig
from repro.nn.optim import Adam
from repro.utils import child_rng


@pytest.fixture(scope="module")
def small_setup():
    cfg = ModelConfig(vocab_size=24, embed_dim=8, hidden_dim=12)
    corpus = TopicMarkovCorpus(CorpusSpec(vocab_size=24, seq_len=8), seed=11)
    fd = FederatedDataset(corpus)
    trainer = LocalTrainer(cfg, lr=0.5, batch_size=8, seed=0)
    model = LSTMLanguageModel(cfg, seed=1)
    return cfg, fd, trainer, model


class TestLocalTrainer:
    def test_delta_is_trained_minus_initial(self, small_setup):
        _, fd, trainer, model = small_setup
        ds = fd.client_dataset(1, 20)
        vec = model.get_flat()
        res = trainer.train(vec, ds, initial_version=0)
        assert res.delta.shape == vec.shape
        assert np.linalg.norm(res.delta) > 0
        assert res.num_examples == ds.num_train_examples
        assert res.initial_version == 0

    def test_training_improves_local_loss(self, small_setup):
        _, fd, trainer, model = small_setup
        ds = fd.client_dataset(2, 60)
        vec = model.get_flat()
        before = trainer.evaluate(vec, ds.train_x, ds.train_y)
        res = trainer.train(vec, ds, initial_version=0)
        after = trainer.evaluate(vec + res.delta, ds.train_x, ds.train_y)
        assert after < before

    def test_deterministic_per_participation(self, small_setup):
        _, fd, trainer, model = small_setup
        ds = fd.client_dataset(3, 20)
        vec = model.get_flat()
        r1 = trainer.train(vec, ds, 0, participation=0)
        r2 = trainer.train(vec, ds, 0, participation=0)
        np.testing.assert_array_equal(r1.delta, r2.delta)

    def test_participation_reshuffles(self, small_setup):
        _, fd, trainer, model = small_setup
        ds = fd.client_dataset(3, 20)
        vec = model.get_flat()
        r1 = trainer.train(vec, ds, 0, participation=0)
        r2 = trainer.train(vec, ds, 0, participation=1)
        assert not np.array_equal(r1.delta, r2.delta)

    def test_initial_model_not_mutated(self, small_setup):
        _, fd, trainer, model = small_setup
        ds = fd.client_dataset(4, 10)
        vec = model.get_flat()
        ref = vec.copy()
        trainer.train(vec, ds, 0)
        np.testing.assert_array_equal(vec, ref)

    def test_invalid_args(self, small_setup):
        cfg = small_setup[0]
        with pytest.raises(ValueError):
            LocalTrainer(cfg, batch_size=0)
        with pytest.raises(ValueError):
            LocalTrainer(cfg, epochs=0)

    def test_multiple_local_epochs_move_further(self, small_setup):
        cfg, fd, _, model = small_setup
        ds = fd.client_dataset(6, 40)
        vec = model.get_flat()
        one = LocalTrainer(cfg, lr=0.3, batch_size=8, epochs=1, seed=0)
        three = LocalTrainer(cfg, lr=0.3, batch_size=8, epochs=3, seed=0)
        d1 = np.linalg.norm(one.train(vec, ds, 0).delta)
        d3 = np.linalg.norm(three.train(vec, ds, 0).delta)
        assert d3 > d1

    def test_perplexity_eval(self, small_setup):
        _, fd, trainer, model = small_setup
        ds = fd.client_dataset(5, 30)
        ppl = trainer.evaluate_perplexity(model.get_flat(), ds.test_x, ds.test_y)
        assert 1.0 < ppl < 50.0  # near-uniform start: ~vocab size


class TestServerOptimizers:
    def test_fedsgd_applies_delta(self):
        opt = FedSGD(lr=0.5)
        out = opt.apply(np.zeros(2, np.float32), np.array([2.0, -2.0], np.float32))
        np.testing.assert_allclose(out, [1.0, -1.0])

    def test_fedavgm_momentum(self):
        opt = FedAvgM(lr=1.0, momentum=0.5)
        p = np.zeros(1, np.float32)
        p = opt.apply(p, np.ones(1, np.float32))   # v=1, p=1
        p = opt.apply(p, np.ones(1, np.float32))   # v=1.5, p=2.5
        assert p[0] == pytest.approx(2.5)
        opt.reset()
        p = opt.apply(np.zeros(1, np.float32), np.ones(1, np.float32))
        assert p[0] == pytest.approx(1.0)

    def test_fedadam_moves_toward_delta_direction(self):
        opt = FedAdam(lr=0.1)
        p = np.zeros(3, np.float32)
        out = opt.apply(p, np.array([1.0, -1.0, 0.5], np.float32))
        assert out[0] > 0 and out[1] < 0 and out[2] > 0
        assert opt.step_count == 1

    def test_fedadam_reset(self):
        opt = FedAdam()
        opt.apply(np.zeros(1, np.float32), np.ones(1, np.float32))
        opt.reset()
        assert opt.step_count == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FedSGD(lr=0)
        with pytest.raises(ValueError):
            FedAvgM(momentum=1.0)

    def test_global_state_requires_flat(self):
        with pytest.raises(ValueError):
            GlobalModelState(np.zeros((2, 2), np.float32), FedSGD())

    def test_global_state_shape_check(self):
        st = GlobalModelState(np.zeros(3, np.float32), FedSGD())
        with pytest.raises(ValueError):
            st.apply(np.zeros(4, np.float32), 1)


class ReferenceAdam:
    """The textbook seven-line step ``Adam.step`` shipped with before it
    was buffered — kept here as the reference the buffered one must
    equal byte for byte (several full-length float64 temporaries a call)."""

    def __init__(self, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self._m = self._v = None
        self._t = 0

    def step(self, params, grad):
        if self._m is None:
            self._m = np.zeros_like(params, dtype=np.float64)
            self._v = np.zeros_like(params, dtype=np.float64)
        self._t += 1
        g = grad.astype(np.float64)
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * g
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * g * g
        m_hat = self._m / (1.0 - self.beta1**self._t)
        v_hat = self._v / (1.0 - self.beta2**self._t)
        update = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return (params.astype(np.float64) - update).astype(np.float32)


def _sha(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def kat_run(optimizer, steps=25, n=1000):
    """``{t: (sha(params), sha(m), sha(v))}`` of a seeded run whose first
    gradient is all zero (m = v = 0: the update is 0 / eps), whose second
    is scaled by 1e-8 (v underflows toward eps**2) and whose eighth by
    1e+2."""
    rng = child_rng(20, "adam-kat")
    params = rng.standard_normal(n).astype(np.float32)
    grads = rng.standard_normal((steps, n)).astype(np.float32)
    grads[0] = 0.0
    grads[1] *= np.float32(1e-8)
    grads[7] *= np.float32(1e2)
    out = {}
    for t in range(1, steps + 1):
        params = optimizer.step(params, grads[t - 1])
        out[t] = (_sha(params), _sha(optimizer._m), _sha(optimizer._v))
    return out


# Printed by the commit before the buffered step (the seven-line
# expression above was then ``Adam.step`` itself), lr=0.05.
ADAM_KAT = {
    1: ("9174c2a5c86a3551dce9b5d91bad17f1e203dd23ac6d91f2adadaed419ba0d26",
        "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b",
        "668946bab9868b28489bb906205ee1026045c8bcd3ca62a1bdf733c65491351b"),
    2: ("68bf540a51ee62c1500a43e913824f1fedb2ecac691a442df3d2ce5b4beb3194",
        "b2d5ff5c89d398ee19b0e3ae7292852dd3da209971705e70cb15c199b477143b",
        "5b866fed696bd57d43fccb9068190fd83bae866573b89720f6e085c126565139"),
    25: ("bc77b16b3e5b395f749b3a2ac17e5dfb51f089e272c22fe0f5587a3e97b6703d",
         "fcccd27e8f5e076b910f6db6c42da205e40e851f2540f3d304ffad3a79219fd5",
         "ea2355da9f3fd8795f1df472e749dca27db6fe0be7e595ee9c3c8bd1b8b43d20"),
}


class TestAdamFrozenNumerics:
    def test_known_answers(self):
        got = kat_run(Adam(lr=0.05))
        assert {t: got[t] for t in ADAM_KAT} == ADAM_KAT

    def test_the_reference_in_this_file_is_the_frozen_one(self):
        got = kat_run(ReferenceAdam(lr=0.05))
        assert {t: got[t] for t in ADAM_KAT} == ADAM_KAT

    @given(
        n=st.integers(1, 4096),
        steps=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.integers(-9, 3),
        lr=st.sampled_from([1e-3, 0.05, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_byte_equal_to_the_reference_expression(self, n, steps, seed, exponent, lr):
        rng = np.random.default_rng(seed)
        new, ref = Adam(lr=lr), ReferenceAdam(lr=lr)
        p_new = p_ref = rng.standard_normal(n).astype(np.float32)
        for t in range(steps):
            grad = (rng.standard_normal(n) * 10.0**exponent).astype(np.float32)
            if t == seed % 5:
                grad[::2] = 0.0
            p_new, p_ref = new.step(p_new, grad), ref.step(p_ref, grad)
            assert p_new.dtype == np.float32
            assert p_new.tobytes() == p_ref.tobytes()
            assert new._m.tobytes() == ref._m.tobytes()
            assert new._v.tobytes() == ref._v.tobytes()

    def test_step_neither_returns_nor_retains_its_arguments(self):
        opt = Adam(lr=0.1)
        params = np.linspace(-1, 1, 64, dtype=np.float32)
        grad = np.linspace(1, 2, 64, dtype=np.float32)
        params0, grad0 = params.copy(), grad.copy()
        for _ in range(3):
            out = opt.step(params, grad)
            held = [out, opt._m, opt._v, *opt._work]
            assert not any(np.shares_memory(a, params) for a in held)
            assert not any(np.shares_memory(a, grad) for a in held)
            assert not any(np.shares_memory(out, a) for a in held[1:])
        np.testing.assert_array_equal(params, params0)
        np.testing.assert_array_equal(grad, grad0)

    def test_two_optimizers_never_share_work_vectors(self):
        a, b = FedAdam(lr=0.1), FedAdam(lr=0.1)
        model, delta = np.zeros(32, np.float32), np.ones(32, np.float32)
        for _ in range(2):
            a.apply(model, delta)
            b.apply(model, delta)
        mine = [a._adam._m, a._adam._v, *a._adam._work]
        theirs = [b._adam._m, b._adam._v, *b._adam._work]
        assert not any(np.shares_memory(x, y) for x in mine for y in theirs)

    def test_nothing_is_allocated_before_the_first_step(self):
        opt = Adam()
        assert opt._m is None and opt._v is None and opt._work is None

    def test_reset_lets_the_optimizer_be_reused_at_another_length(self):
        opt = Adam(lr=0.1)
        opt.step(np.zeros(5, np.float32), np.ones(5, np.float32))
        opt.reset()
        assert opt._work is None and opt.step_count == 0
        out = opt.step(np.zeros(9, np.float32), np.ones(9, np.float32))
        fresh = Adam(lr=0.1).step(np.zeros(9, np.float32), np.ones(9, np.float32))
        assert out.tobytes() == fresh.tobytes()

    def test_a_warm_step_allocates_only_the_model_it_returns(self):
        """The reference holds several 2 MB float64 temporaries at once;
        the buffered step's only full-length allocation is its result."""
        n = 262_144
        rng = np.random.default_rng(3)
        params = rng.standard_normal(n).astype(np.float32)
        grads = rng.standard_normal((10, n)).astype(np.float32)
        opt = Adam(lr=0.05)
        opt.step(params, grads[0])
        tracemalloc.start()
        try:
            for grad in grads[1:]:
                opt.step(params, grad)  # result dropped: one step's own peak
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 1.0 * params.nbytes <= peak <= 1.5 * params.nbytes


class TestSurrogate:
    def test_loss_decreases_with_progress(self):
        st = SurrogateModelState()
        l0 = st.loss()
        st.apply(np.array([1.0]), 10)
        assert st.loss() < l0

    def test_loss_bounded_by_floor(self):
        st = SurrogateModelState()
        st.apply(np.array([1e9]), 100)
        assert st.loss() >= st.params.floor_loss

    def test_step_efficiency_saturates(self):
        st = SurrogateModelState(SurrogateParams(critical_goal=100.0))
        # Small K: nearly linear. Large K: saturating toward K_c.
        assert st.step_efficiency(1) == pytest.approx(1.0 / 1.01, rel=1e-6)
        assert st.step_efficiency(10_000) < 101.0

    def test_per_update_efficiency_decreasing_in_goal(self):
        st = SurrogateModelState()
        effs = [st.step_efficiency(k) / k for k in (1, 10, 100, 1000)]
        assert all(a > b for a, b in zip(effs, effs[1:]))

    def test_progress_for_loss_inverse(self):
        st = SurrogateModelState()
        target = 3.0
        p = st.progress_for_loss(target)
        st.progress = p
        assert st.loss() == pytest.approx(target, rel=1e-9)

    def test_progress_for_loss_range_check(self):
        st = SurrogateModelState()
        with pytest.raises(ValueError):
            st.progress_for_loss(st.params.floor_loss)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SurrogateParams(floor_loss=10.0, initial_loss=5.0)
        with pytest.raises(ValueError):
            SurrogateParams(tau=0)
        with pytest.raises(ValueError):
            SurrogateParams(quality_noise=-1)

    def test_trainer_quality_increases_with_examples(self):
        tr = SurrogateTrainer(SurrogateParams(quality_noise=0.0))
        assert tr.quality(500) > tr.quality(50) > tr.quality(5)

    def test_trainer_reference_quality_is_one(self):
        tr = SurrogateTrainer(SurrogateParams(reference_examples=50, quality_noise=0.0))
        assert tr.quality(50) == pytest.approx(1.0)

    def test_trainer_deterministic(self):
        tr = SurrogateTrainer(seed=0)
        r1 = tr.train(30, client_id=1, initial_version=0, participation=2)
        r2 = tr.train(30, client_id=1, initial_version=0, participation=2)
        np.testing.assert_array_equal(r1.delta, r2.delta)
        r3 = tr.train(30, client_id=1, initial_version=0, participation=3)
        assert not np.array_equal(r1.delta, r3.delta)

    def test_surrogate_drives_fedbuff(self):
        st = SurrogateModelState()
        tr = SurrogateTrainer(seed=1)
        agg = FedBuffAggregator(st, goal=5, example_weighting="none",
                                normalize_by="goal")
        for cid in range(5):
            v, _ = agg.register_download(cid)
            agg.receive_update(tr.train(50, cid, v))
        assert agg.version == 1
        assert st.progress > 0
        assert st.loss() < st.params.initial_loss

    def test_surrogate_drives_syncfl(self):
        st = SurrogateModelState()
        tr = SurrogateTrainer(seed=1)
        agg = SyncRoundAggregator(st, goal=4, example_weighting="none")
        for cid in range(4):
            v, _ = agg.register_download(cid)
            agg.receive_update(tr.train(50, cid, v))
        assert agg.version == 1 and st.progress > 0

    def test_small_goal_more_efficient_per_update(self):
        # The large-cohort effect (paper Fig. 10): same number of client
        # updates, smaller K converges further.
        def run(goal, n_updates):
            st = SurrogateModelState()
            tr = SurrogateTrainer(SurrogateParams(quality_noise=0.0))
            agg = FedBuffAggregator(st, goal=goal, example_weighting="none",
                                    normalize_by="goal")
            for cid in range(n_updates):
                v, _ = agg.register_download(cid)
                agg.receive_update(tr.train(50, cid, v))
            return st.loss()

        assert run(goal=10, n_updates=1000) < run(goal=500, n_updates=1000)


class TestEndToEndFederatedTraining:
    def test_fedbuff_with_real_gradients_converges(self, small_setup):
        cfg, fd, trainer, model = small_setup
        state = GlobalModelState(model.get_flat(), FedAdam(lr=0.05))
        agg = FedBuffAggregator(state, goal=4)
        ex, ey = fd.evaluation_batch(list(range(8)), [30] * 8)
        before = trainer.evaluate(state.current(), ex, ey)
        part = 0
        for step in range(8):
            for cid in range(4):
                client = step * 4 + cid
                version, vec = agg.register_download(client)
                ds = fd.client_dataset(client, 30)
                agg.receive_update(trainer.train(vec, ds, version, part))
                part += 1
        after = trainer.evaluate(state.current(), ex, ey)
        assert agg.version == 8
        assert after < before - 0.05
