"""Tests for the synthetic federated corpus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    BOS_ID,
    CorpusSpec,
    FederatedDataset,
    TopicMarkovCorpus,
    Vocabulary,
)
from repro.utils import child_rng


@pytest.fixture(scope="module")
def corpus():
    return TopicMarkovCorpus(CorpusSpec(vocab_size=32, n_topics=3, seq_len=10), seed=42)


class TestVocabulary:
    def test_bos_spelling(self):
        assert Vocabulary(10).word(BOS_ID) == "<s>"

    def test_words_unique(self):
        v = Vocabulary(300)
        words = [v.word(i) for i in range(300)]
        assert len(set(words)) == 300

    def test_words_stable(self):
        assert Vocabulary(50).word(17) == Vocabulary(50).word(17)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(10).word(10)

    def test_decode_joins(self):
        v = Vocabulary(10)
        assert v.decode([0, 1]) == f"<s> {v.word(1)}"

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(1)


class TestCorpusStructure:
    def test_unigram_is_distribution(self, corpus):
        assert corpus.unigram[BOS_ID] == 0.0
        assert corpus.unigram.sum() == pytest.approx(1.0)
        # Zipf: earlier ranks more probable.
        assert corpus.unigram[1] > corpus.unigram[10] > corpus.unigram[31]

    def test_kernels_row_stochastic(self, corpus):
        sums = corpus.kernels.sum(axis=2)
        np.testing.assert_allclose(sums, 1.0, rtol=1e-9)

    def test_no_transition_into_bos(self, corpus):
        assert np.all(corpus.kernels[:, :, BOS_ID] == 0.0)

    def test_stationary_sample_never_emits_bos(self, corpus):
        tokens = corpus.stationary_sample(child_rng(0, "eval"), 2_000)
        assert tokens.shape == (2_000,)
        assert tokens.min() > BOS_ID and tokens.max() < corpus.spec.vocab_size

    def test_stationary_sample_follows_unigram(self, corpus):
        tokens = corpus.stationary_sample(child_rng(1, "eval"), 50_000)
        freq = np.bincount(tokens, minlength=corpus.spec.vocab_size) / tokens.size
        np.testing.assert_allclose(freq, corpus.unigram, atol=0.01)
        again = corpus.stationary_sample(child_rng(1, "eval"), 50_000)
        np.testing.assert_array_equal(tokens, again)

    def test_client_mixture_is_distribution(self, corpus):
        mix = corpus.client_topic_mixture(123)
        assert mix.shape == (3,)
        assert mix.sum() == pytest.approx(1.0)
        assert np.all(mix >= 0)

    def test_client_mixture_deterministic(self, corpus):
        np.testing.assert_array_equal(
            corpus.client_topic_mixture(9), corpus.client_topic_mixture(9)
        )

    def test_clients_are_non_iid(self, corpus):
        m1 = corpus.client_transition_matrix(1)
        m2 = corpus.client_transition_matrix(2)
        assert np.abs(m1 - m2).max() > 1e-3

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            CorpusSpec(vocab_size=2)
        with pytest.raises(ValueError):
            CorpusSpec(seq_len=1)
        with pytest.raises(ValueError):
            CorpusSpec(n_topics=0)
        with pytest.raises(ValueError):
            CorpusSpec(topic_concentration=0.0)
        with pytest.raises(ValueError):
            CorpusSpec(volume_topic_coupling=1.5)
        with pytest.raises(ValueError):
            CorpusSpec(reference_examples=0.0)


class TestVolumeTopicCoupling:
    @pytest.fixture(scope="class")
    def coupled(self):
        return TopicMarkovCorpus(
            CorpusSpec(vocab_size=32, n_topics=3, seq_len=8,
                       volume_topic_coupling=0.9, reference_examples=20.0),
            seed=5,
        )

    def test_heavy_clients_lean_topic_zero(self, coupled):
        light = coupled.client_topic_mixture(1, n_examples=2)
        heavy = coupled.client_topic_mixture(1, n_examples=500)
        assert heavy[0] > light[0]
        assert heavy[0] > 0.5  # strong coupling dominates at high volume

    def test_mixture_still_normalized(self, coupled):
        mix = coupled.client_topic_mixture(3, n_examples=100)
        assert mix.sum() == pytest.approx(1.0)
        assert np.all(mix >= 0)

    def test_no_volume_hint_uncoupled(self, coupled):
        base = coupled.client_topic_mixture(7)
        again = coupled.client_topic_mixture(7, n_examples=None)
        np.testing.assert_array_equal(base, again)

    def test_zero_coupling_ignores_volume(self, corpus):
        a = corpus.client_topic_mixture(2, n_examples=1)
        b = corpus.client_topic_mixture(2, n_examples=1000)
        np.testing.assert_array_equal(a, b)

    def test_heavy_clients_share_distribution(self, coupled):
        # Two different heavy clients become topically similar — the
        # "prolific users look alike" structure behind Table 1.
        m1 = coupled.client_transition_matrix(10, n_examples=500)
        m2 = coupled.client_transition_matrix(11, n_examples=500)
        l1 = coupled.client_transition_matrix(10, n_examples=2)
        l2 = coupled.client_transition_matrix(11, n_examples=2)
        assert np.abs(m1 - m2).mean() < np.abs(l1 - l2).mean()


class TestSequenceGeneration:
    def test_shapes_and_shift(self, corpus):
        x, y = corpus.generate_sequences(5, 20)
        assert x.shape == (20, 10) and y.shape == (20, 10)
        np.testing.assert_array_equal(x[:, 1:], y[:, :-1])
        assert np.all(x[:, 0] == BOS_ID)

    def test_tokens_in_range(self, corpus):
        x, y = corpus.generate_sequences(5, 50)
        assert x.min() >= 0 and x.max() < 32
        assert y.min() > 0  # BOS never generated mid-sequence

    def test_deterministic_per_client(self, corpus):
        x1, _ = corpus.generate_sequences(5, 10)
        x2, _ = corpus.generate_sequences(5, 10)
        np.testing.assert_array_equal(x1, x2)

    def test_clients_get_different_data(self, corpus):
        x1, _ = corpus.generate_sequences(1, 10)
        x2, _ = corpus.generate_sequences(2, 10)
        assert not np.array_equal(x1, x2)

    def test_zero_sequences_rejected(self, corpus):
        with pytest.raises(ValueError):
            corpus.generate_sequences(1, 0)

    def test_empirical_unigram_tracks_zipf(self, corpus):
        # Pool many clients: the aggregate unigram should correlate strongly
        # with the corpus-level Zipf law.
        counts = np.zeros(32)
        for cid in range(30):
            _, y = corpus.generate_sequences(cid, 30)
            counts += np.bincount(y.reshape(-1), minlength=32)
        emp = counts / counts.sum()
        corr = np.corrcoef(emp[1:], corpus.unigram[1:])[0, 1]
        assert corr > 0.8

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 30))
    def test_generation_valid_for_any_client(self, client_id, n):
        corpus = TopicMarkovCorpus(CorpusSpec(vocab_size=16, seq_len=4), seed=1)
        x, y = corpus.generate_sequences(client_id, n)
        assert x.shape == (n, 4)
        assert y.min() >= 1 and y.max() < 16


class TestFederatedDataset:
    def test_split_sizes(self, corpus):
        fd = FederatedDataset(corpus, val_fraction=0.1, test_fraction=0.2)
        ds = fd.client_dataset(3, 100)
        assert ds.num_train_examples == 70
        assert ds.val_x.shape[0] == 10
        assert ds.test_x.shape[0] == 20

    def test_minimum_one_training_example(self, corpus):
        fd = FederatedDataset(corpus, val_fraction=0.4, test_fraction=0.4)
        ds = fd.client_dataset(3, 1)
        assert ds.num_train_examples >= 1

    def test_cache_returns_same_object(self, corpus):
        fd = FederatedDataset(corpus)
        assert fd.client_dataset(1, 10) is fd.client_dataset(1, 10)
        fd.clear_cache()
        assert fd.client_dataset(1, 10) is not None

    def test_splits_disjoint_cover_data(self, corpus):
        fd = FederatedDataset(corpus, val_fraction=0.25, test_fraction=0.25)
        ds = fd.client_dataset(8, 40)
        total = ds.num_train_examples + ds.val_x.shape[0] + ds.test_x.shape[0]
        assert total == 40

    def test_invalid_fractions_rejected(self, corpus):
        with pytest.raises(ValueError):
            FederatedDataset(corpus, val_fraction=0.6, test_fraction=0.5)
        with pytest.raises(ValueError):
            FederatedDataset(corpus, val_fraction=-0.1)

    def test_invalid_example_count_rejected(self, corpus):
        fd = FederatedDataset(corpus)
        with pytest.raises(ValueError):
            fd.client_dataset(0, 0)

    def test_train_batches_cover_epoch(self, corpus):
        fd = FederatedDataset(corpus)
        ds = fd.client_dataset(2, 50)
        rng = child_rng(0, "batches")
        batches = ds.train_batches(8, rng)
        n = sum(bx.shape[0] for bx, _ in batches)
        assert n == ds.num_train_examples
        assert all(bx.shape[0] <= 8 for bx, _ in batches)

    def test_train_batches_shuffled(self, corpus):
        fd = FederatedDataset(corpus)
        ds = fd.client_dataset(2, 64)
        b1 = ds.train_batches(64, child_rng(0, "s1"))[0][0]
        b2 = ds.train_batches(64, child_rng(0, "s2"))[0][0]
        assert not np.array_equal(b1, b2)

    def test_evaluation_batch_pools_clients(self, corpus):
        fd = FederatedDataset(corpus)
        x, y = fd.evaluation_batch([1, 2, 3], [30, 30, 30], max_per_client=4)
        assert x.shape[0] <= 12 and x.shape[0] > 0
        assert x.shape == y.shape

    def test_evaluation_batch_empty_rejected(self, corpus):
        fd = FederatedDataset(corpus)
        with pytest.raises(ValueError):
            fd.evaluation_batch([], [])

    def test_batch_size_validation(self, corpus):
        fd = FederatedDataset(corpus)
        ds = fd.client_dataset(2, 10)
        with pytest.raises(ValueError):
            ds.train_batches(0, child_rng(0, "x"))
